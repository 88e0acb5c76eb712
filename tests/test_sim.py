import dataclasses
import itertools
import math
import statistics
from collections import Counter
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, assume, example, find, given, settings
from hypothesis import strategies as st

from qedvqe import builders, noise, qcore, sim, splitmix
from qedvqe.noise import DepolarizingParams, ReadoutParams
from qedvqe.qcore import Circuit, ROLE_DATA
from qedvqe.sim import (
    ShotTable,
    TrajectoryConfig,
    born_distribution,
    evolve_density,
    red_vote_distribution,
    red_vote_kernel,
    red_vote_kernel_for,
    sample_shots,
)
from test_postselect import red_vote  # the string-key vote, oracle of the vote kernel


def tvd(a: dict, b: dict) -> float:
    keys = set(a) | set(b)
    return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)


def empirical(table: ShotTable) -> dict:
    return {k: v / table.n_shots for k, v in table.counts.items()}


def all_measured(n: int) -> Circuit:
    return Circuit(n, tuple(qcore.measure(q) for q in range(n)), (ROLE_DATA,) * n)


# the random-circuit generators draw every unitary kind of the IR, so a kind
# that one backend lacks a kernel for fails a test
UNITARY_KINDS = qcore.UNITARY_1Q_KINDS + qcore.UNITARY_2Q_KINDS


def make_gate(kind, qubits, angle):
    """A gate of a unitary kind on qubits: (control, target) for a two-qubit kind."""
    if kind in qcore.UNITARY_2Q_KINDS:
        return qcore.Gate(kind, qubits[1:], control=qubits[0])
    return qcore.Gate(kind, qubits[:1], angle=angle if kind in qcore.PARAMETRIC_KINDS else None)


def refuse_allocation(monkeypatch, state_class):
    def zero(n_qubits):
        pytest.fail(f"allocated a {n_qubits}-qubit {state_class.__name__}")

    monkeypatch.setattr(state_class, "zero", staticmethod(zero))


# ---------------------------------------------------------------------------
# density backend
# ---------------------------------------------------------------------------


def test_noiseless_encoded_density_is_target_projector():
    circ = builders.build_encoded_ansatz(0.6, "Z")
    rho = evolve_density(noise.noiseless(circ))
    target = builders.encoded_target_state(0.6).outer()
    assert np.max(np.abs(rho.mat - target.mat)) < 1e-12


def test_full_depolarizing_single_gate_population():
    # p splits the weight equally over X, Y, Z; X and Y excite |0> -> |1>, so 2p/3 of it
    # moves there, and p = 0 leaves |0><0| as it was
    circ = Circuit(1, (qcore.h(0), qcore.h(0), qcore.measure(0)), (ROLE_DATA,))
    for p in (1.0, 0.3, 0.0):
        nc = noise.NoisyCircuit(
            circ,
            ((), (noise.PauliNoise(0, p / 3.0, p / 3.0, p / 3.0),), ()),
        )
        rho = evolve_density(nc)
        assert np.max(np.abs(rho.mat - np.diag([1.0 - 2 * p / 3, 2 * p / 3]))) <= 1e-12


def test_evolve_density_trace_and_cap(monkeypatch):
    circ = builders.build_encoded_ansatz(0.3, "Z")
    rho = evolve_density(noise.attach_noise(circ, DepolarizingParams(p2=0.05)))
    assert np.trace(rho.mat).real == pytest.approx(1.0, abs=1e-10)
    refuse_allocation(monkeypatch, qcore.DensityMatrix)
    with pytest.raises(ValueError, match="capped"):
        evolve_density(noise.noiseless(all_measured(sim.DENSITY_QUBIT_CAP + 1)))


def embedded(k, qubits, n):
    """The operator k on qubits of an n-qubit register, entry by entry: <i|K|j> is k's entry at
    i's and j's bits on those qubits (the first the most significant) where i and j agree on
    every other qubit, and 0 elsewhere; qubit 0 is the most significant bit of i."""
    bits = [[(i >> (n - 1 - q)) & 1 for q in range(n)] for i in range(2**n)]

    def sub(i):  # i's bits on those qubits, as an index of k
        return sum(bits[i][q] << (len(qubits) - 1 - s) for s, q in enumerate(qubits))

    full = np.zeros((2**n, 2**n), dtype=complex)
    for i, j in np.ndindex(full.shape):
        if all(bits[i][q] == bits[j][q] for q in range(n) if q not in qubits):
            full[i, j] = k[sub(i), sub(j)]
    return full


@st.composite
def noisy_circuits(draw):
    """A random 1-4 qubit circuit with init flips and random depolarizing and
    damping slots, and its Kraus-sum oracle: per step, the weighted operators
    (w, k, qubits), rho -> sum w K rho K^dagger with K the operator k on those qubits
    (embedded). The oracle's channels are written out here: the four weighted
    Paulis and the damping pair. A two-qubit gate takes any ordered pair, so
    descending pairs and chains that fit no one qubit order (a qubit with three
    partners, a cycle) come up."""
    n = draw(st.integers(1, 4))
    prob = st.floats(0.0, 1.0)
    flips = [draw(prob) for _ in range(n)]
    pre = tuple(noise.PauliNoise(q, p, 0.0, 0.0) for q, p in enumerate(flips))
    bit_flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    steps = [[(1.0 - p, np.eye(2), (q,)), (p, bit_flip, (q,))] for q, p in enumerate(flips)]
    # two-qubit kinds weighted up, so that chains of them are drawn
    kinds = UNITARY_KINDS + qcore.UNITARY_2Q_KINDS * 6 if n >= 2 else qcore.UNITARY_1Q_KINDS
    ops, channels = [], []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(kinds))
        c = draw(st.integers(0, n - 1))
        if kind in qcore.UNITARY_2Q_KINDS:
            op = make_gate(kind, (c, draw(st.sampled_from([q for q in range(n) if q != c]))), None)
        else:
            op = make_gate(kind, (c,), draw(st.floats(-math.pi, math.pi)))
        ops.append(op)
        steps.append([(1.0, op.matrix(), op.qubits)])
        slot = []
        for q in op.qubits:
            for damping, p in draw(st.lists(st.tuples(st.booleans(), prob), max_size=2)):
                if damping:
                    slot.append(noise.DampingNoise(q, p))
                    pair = (np.diag([1.0, math.sqrt(1.0 - p)]), np.array([[0.0, math.sqrt(p)], [0.0, 0.0]]))
                    steps.append([(1.0, k, (q,)) for k in pair])
                else:
                    slot.append(noise.PauliNoise(q, p / 3.0, p / 3.0, p / 3.0))
                    paulis = (np.eye(2), qcore.PAULI_X, qcore.PAULI_Y, qcore.PAULI_Z)
                    steps.append([(w, k, (q,)) for w, k in zip((1.0 - p, p / 3, p / 3, p / 3), paulis)])
        channels.append(tuple(slot))
    circ = Circuit(n, tuple(ops), (ROLE_DATA,) * n)
    return noise.NoisyCircuit(circ, tuple(channels), pre), steps


def _three_segments():
    """A noiseless 4-qubit case of noisy_circuits' form whose CNOTs fit three qubit orders, cut
    where qubit 0 takes a third partner and where (1, 2) would close the cycle 1-3-0-2; its
    density is complex before the first cut, so a move that transposed it would show."""
    pairs = [(0, 1), (2, 0), (0, 3), (3, 1), (0, 2), (1, 2), (2, 3)]
    ops = [qcore.ry(0.3 + q, q) for q in range(4)] + [qcore.s(1), qcore.rz(0.9, 3)]
    ops += [qcore.cnot(c, t) for c, t in pairs] + [qcore.rz(0.5, 2)]
    return noise.noiseless(Circuit(4, tuple(ops), (ROLE_DATA,) * 4)), [[(1.0, op.matrix(), op.qubits)] for op in ops]


@settings(max_examples=150, deadline=None)
@given(noisy_circuits())
@example(_three_segments())
def test_evolve_density_matches_a_kraus_sum_oracle(case):
    noisy, steps = case
    n = noisy.circuit.n_qubits
    want = np.zeros((2**n, 2**n), dtype=complex)
    want[0, 0] = 1.0
    for step in steps:
        want = sum(w * K @ want @ K.conj().T for w, K in ((w, embedded(k, qubits, n)) for w, k, qubits in step))
    rho = evolve_density(noisy).mat
    assert np.max(np.abs(rho - want)) <= 1e-12
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(rho).min() >= -1e-12


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 6), data=st.data())
def test_a_path_order_puts_each_pair_side_by_side_or_is_refused(n, data):
    # oracle: every order of the register, tried one by one
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True).map(tuple)
    pairs = data.draw(st.lists(pair, max_size=7)) if n > 1 else []
    fits = [order for order in itertools.permutations(range(n))
            if all(abs(order.index(a) - order.index(b)) == 1 for a, b in pairs)]
    order = sim._path_order(pairs, n)
    if not fits:
        assert order is None
    else:
        assert tuple(order) in fits


def test_the_encoded_circuit_contracts_on_runs_with_one_move_per_stack(monkeypatch):
    # the encoded circuit's CNOTs (1,2) (1,3) | (1,4) (1,0) (2,0) (5,2) (5,3) fit two qubit
    # orders: every contraction is on an ascending run of axes, a CNOT on a descending pair
    # taking its exchanged superoperator, and each stack is moved once, at the cut
    axes_seen, moves = [], []
    contract, move = qcore.apply_matrix, sim._moved

    def recording(tensor, mat, axes):
        axes_seen.append(tuple(axes))
        return contract(tensor, mat, axes)

    monkeypatch.setattr(qcore, "apply_matrix", recording)
    monkeypatch.setattr(sim, "apply_matrix", recording)
    monkeypatch.setattr(sim, "_moved", lambda rho, axes: moves.append(len(rho)) or move(rho, axes))
    assert [order for _, order in sim._pair_orders(sim.density_layout(noise.noiseless(ENCODED)))] == [
        [0, 4, 5, 2, 1, 3], [3, 5, 2, 0, 1, 4]]
    ((noisy, rates),) = noise.attach_grid(ENCODED, [dataclasses.replace(DEVICE, depol=DepolarizingParams(p2=p2))
                                                    for p2 in (0.001, 0.002, 0.003, 0.004, 0.005)])
    got = list(sim.evolve_densities([noisy], rates))
    assert axes_seen and all(axes == tuple(range(axes[0], axes[0] + len(axes))) for axes in axes_seen)
    assert moves == [2, 2, 1]  # the 5 states' stacks of at most 2, each moved once
    monkeypatch.undo()
    for rho, p2 in zip(got, (0.001, 0.002, 0.003, 0.004, 0.005)):
        alone = sim.evolve_density(noise.attach_noise(ENCODED, dataclasses.replace(DEVICE, depol=DepolarizingParams(p2=p2))))
        assert rho.mat.tobytes() == alone.mat.tobytes()


def test_evolve_density_applies_channels_off_the_gate_and_after_a_measurement():
    # a slot may hold channels on a qubit its gate does not touch, and a
    # measurement's slot channels of its own: each is the Kraus sum it states
    def on(k, q):
        return np.kron(k, np.eye(2)) if q == 0 else np.kron(np.eye(2), k)

    ops = (qcore.h(0), qcore.cnot(0, 1), qcore.measure(1), qcore.measure(0))
    slots = (
        (noise.DampingNoise(1, 0.3), noise.PauliNoise(0, 0.1, 0.05, 0.02), noise.PauliNoise(1, 0.2, 0.0, 0.0)),
        (noise.DampingNoise(0, 0.4),),
        (noise.PauliNoise(1, 0.1, 0.1, 0.1),),
        (noise.DampingNoise(0, 0.25),),
    )
    noisy = noise.NoisyCircuit(Circuit(2, ops, (ROLE_DATA,) * 2), slots)
    want = np.zeros((4, 4), dtype=complex)
    want[0, 0] = 1.0
    for op, slot in zip(ops, slots):
        if op.is_unitary:
            u = np.kron(op.matrix(), np.eye(2)) if len(op.qubits) == 1 else op.matrix()
            want = u @ want @ u.conj().T
        for ch in slot:
            want = sum(on(k, ch.qubit) @ want @ on(k, ch.qubit).conj().T for k in ch.kraus)
    assert np.max(np.abs(evolve_density(noisy).mat - want)) <= 1e-14


@pytest.mark.parametrize(
    "op", [noise.DampingNoise(1, 0.3), noise.PauliNoise(0, 0.1, 0.05, 0.02), qcore.ry(0.3, 1)],
    ids=["damping", "pauli", "gate"],
)
def test_channel_superoperators_are_built_once_and_read_only(op):
    # a gate's superoperator is cached by the gate's value; a channel's is built from its rates
    # on its class's basis, which is built once: what is shared is read-only. The rate-built
    # stacks' property is test_noise.test_rate_built_superoperator_stacks_match_kraus_and_each_channel_alone
    if isinstance(op, qcore.Gate):
        shared = sim._superoperator(op)
        assert sim._superoperator(dataclasses.replace(op)) is shared  # keyed by the gate's value
        assert np.array_equal(shared, qcore.superoperator((op.matrix(),)))
        # a gate every circuit of a stack shares is broadcast from the cache, not copied
        assert sim._stacked([op, dataclasses.replace(op)]).base is shared
    else:
        basis = {noise.PauliNoise: noise._pauli_basis, noise.DampingNoise: noise._damping_basis}[type(op)]
        shared = basis()
        assert basis() is shared
        sup = type(op).superoperators(*(np.array([rate]) for rate in dataclasses.replace(op).rates))
        assert sup.shape == (1, 4, 4)
        assert np.max(np.abs(sup[0] - qcore.superoperator(op.kraus))) <= 1e-15
    with pytest.raises(ValueError, match="read-only"):
        shared[0, 0] = 0.0


@pytest.mark.parametrize("kind", UNITARY_KINDS)
@pytest.mark.parametrize("angle", [0.0, 0.7])
def test_gate_superoperators_are_real_but_for_rz_and_s(kind, angle):
    # U (x) U* is real for every other kind at any angle, so it is kept real and contracts as
    # a real matmul; the dtype goes by kind, not value (RZ(0) is real too), so one layout's
    # stacks share it at every angle
    shared = sim._superoperator(make_gate(kind, (0, 1), angle))
    assert shared.dtype == (complex if kind in ("RZ", "S") else float)
    assert shared.flags.c_contiguous


@settings(max_examples=30, deadline=None)
@given(
    build=st.sampled_from([builders.build_unencoded_ansatz, builders.build_encoded_ansatz]),
    device=st.booleans(),
    points=st.lists(st.tuples(st.floats(1e-4, 0.2), st.floats(-math.pi, math.pi)), min_size=1, max_size=20),
    stack_amps=st.sampled_from([2**4, 2**6, 2**13]),
    group_circuits=st.sampled_from([1, 2, 4, 8, 16]),
)
def test_evolve_densities_equals_each_circuit_evolved_alone(build, device, points, stack_amps, group_circuits):
    # a grid over p2 and the RY angle; stacks of 1 to 512 states cross a stack boundary at
    # 2 qubits (4 a stack at 2**6) and at 6 (2 a stack at 2**13, else 1), and fusion groups
    # of 1 to 16 stacks cross a group boundary; the device model adds damping and init
    # flips, whose rates move with p2 too
    def model(p2):
        depol = DepolarizingParams(p2=p2)
        return dataclasses.replace(noise.default_device_model(), depol=depol, p_init=p2 / 20) if device else depol

    noisy = [noise.attach_noise(build(theta, "Z"), model(p2)) for p2, theta in points]
    with mock.patch.object(sim, "_STACK_AMPS", stack_amps), mock.patch.object(sim, "_GROUP_CIRCUITS", group_circuits):
        got = list(sim.evolve_densities(noisy))
    assert len(got) == len(noisy)
    for rho, nc in zip(got, noisy):
        assert rho.mat.tobytes() == evolve_density(nc).mat.tobytes()
    assert list(sim.evolve_densities([])) == []


@settings(max_examples=30, deadline=None)
@given(
    build=st.sampled_from([builders.build_unencoded_ansatz, builders.build_encoded_ansatz]),
    device=st.booleans(),
    grid=st.lists(st.one_of(st.just(0.0), st.floats(1e-4, 0.2)), min_size=1, max_size=20),
    theta=st.floats(-math.pi, math.pi),
    stack_amps=st.sampled_from([2**4, 2**6, 2**13]),
    group_circuits=st.sampled_from([1, 2, 4, 8, 16]),
)
def test_a_grid_attached_once_evolves_each_point_as_it_would_alone(build, device, grid, theta, stack_amps, group_circuits):
    # the exact grids' route: one attachment per run of points and the run's rate rows, with
    # gates broadcast over the stack; each state keeps the bytes of its point attached and
    # evolved alone, wherever a run, a stack or a group starts (CI's split-grid cmp)
    def model(p2):
        depol = DepolarizingParams(p2=p2)
        return dataclasses.replace(noise.default_device_model(), depol=depol, p_init=p2 / 20) if device else depol

    circuit, models = build(theta, "Z"), [model(p2) for p2 in grid]
    with mock.patch.object(sim, "_STACK_AMPS", stack_amps), mock.patch.object(sim, "_GROUP_CIRCUITS", group_circuits):
        got = [rho for noisy, rates in noise.attach_grid(circuit, models) for rho in sim.evolve_densities([noisy], rates)]
    assert len(got) == len(grid)
    for rho, m in zip(got, models):
        assert rho.mat.tobytes() == evolve_density(noise.attach_noise(circuit, m)).mat.tobytes()


def test_evolve_densities_refuses_rates_that_do_not_fit():
    nc = _bell()  # three depolarizing channels: nine rates a row
    rates = np.array([[r for ch in sim._channels(nc) for r in ch.rates]] * 3)
    assert [rho.mat.tobytes() for rho in sim.evolve_densities([nc], rates)] == [evolve_density(nc).mat.tobytes()] * 3
    for circuits, bad in (([nc], rates[:, 1:]), ([nc], np.zeros((3, 0))), ([nc, nc], rates)):
        with pytest.raises(ValueError, match="rates must"):
            list(sim.evolve_densities(circuits, bad))


def test_evolve_densities_holds_one_group_of_fused_slots_at_a_time():
    # the 60-point encoded grid of a dense fidelity sweep, attached once: a generator drained
    # state by state holds one stack and one group's fused slots, not the grid's
    ((noisy, rates),) = noise.attach_grid(ENCODED, [DepolarizingParams(p2=k / 600) for k in range(1, 61)])
    sim._superoperator.cache_clear()
    tracemalloc.start()
    try:
        for rho in sim.evolve_densities([noisy], rates):
            del rho
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


def _bell(first=qcore.h(0), register=2, p2=0.01, slot0=None, pre=()):
    """A noisy Bell-pair circuit under depolarizing p2, its first slot and init flips replaceable."""
    circ = Circuit(register, (first, qcore.cnot(0, 1), qcore.measure(0), qcore.measure(1)), (ROLE_DATA,) * register)
    nc = noise.attach_noise(circ, DepolarizingParams(p2=p2))
    return dataclasses.replace(nc, channels=(nc.channels[0] if slot0 is None else slot0,) + nc.channels[1:], pre_channels=pre)


@pytest.mark.parametrize("other", [
    _bell(qcore.x(0)),
    _bell(qcore.h(1)),
    _bell(register=3),
    _bell(p2=0.0),
    _bell(slot0=(noise.DampingNoise(0, 0.01),)),
    _bell(slot0=(noise.PauliNoise(1, 0.01, 0.0, 0.0),)),
    _bell(pre=(noise.PauliNoise(0, 0.1, 0.0, 0.0),)),
], ids=["gate-kind", "gate-qubit", "register", "no-channels", "channel-type", "channel-qubit", "init-flips"])
def test_evolve_densities_refuses_circuits_of_another_layout(other):
    base = _bell()
    # another gate angle or channel parameter is the same layout
    assert len(list(sim.evolve_densities([base, _bell(p2=0.3, slot0=(noise.PauliNoise(0, 0.2, 0.1, 0.0),))]))) == 2
    for pair in ([base, other], [other, base]):
        with pytest.raises(ValueError, match="must share"):
            list(sim.evolve_densities(pair))


def test_born_distribution_basics():
    sv = qcore.StateVector(2, [0, 1, 0, 0])  # |01>
    assert born_distribution(sv.outer()) == {"01": pytest.approx(1.0)}
    rho = qcore.DensityMatrix(2, np.eye(4) / 4)
    probs = born_distribution(rho)
    assert all(p == pytest.approx(0.25) for p in probs.values())


def test_read_through_a_lossy_kernel_checks_mass_before_and_after():
    rho = qcore.DensityMatrix(2, np.eye(4) / 4)
    vote = np.array([[0.9, 0.0], [0.05, 0.8]])  # keeps 0.95 of the 0s and 0.8 of the 1s
    probs = sim._read(sim._born(rho), vote)
    assert probs.sum() == pytest.approx(((0.95 + 0.8) / 2) ** 2, abs=1e-15)
    with pytest.raises(ValueError, match="created probability mass"):
        sim._read(sim._born(rho), np.array([[1.0, 0.0], [1e-9, 1.0]]))
    # the Born diagonal is checked before the push, so a lossy kernel cannot hide lost trace
    with pytest.raises(ValueError, match="does not sum to 1"):
        sim._read(sim._born(qcore.DensityMatrix(2, np.eye(4) / 5)), vote)
    # each bit's push is one qcore.apply_matrix call, kernel @ (2, rest) with the
    # bit's axis in front: the float operations of this tensordot/moveaxis loop,
    # so the read equals it bit for bit
    model = noise.default_device_model()
    rho = evolve_density(noise.attach_noise(builders.build_encoded_ansatz(0.3, "X"), model))
    for kernel in (model.readout.kernel, red_vote_kernel_for(model)):
        t = np.clip(rho.diagonal(), 0.0, None).reshape((2,) * 6)
        for q in range(6):
            t = np.moveaxis(np.tensordot(kernel, t, axes=([1], [q])), 0, q)
        assert np.array_equal(sim._read(sim._born(rho), kernel), t.reshape(-1))


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 6),
    n_rows=st.integers(1, 40),
    keep=st.lists(st.sampled_from((1.0, 0.9, 0.55)), min_size=2, max_size=2),
    flip=st.lists(st.floats(0.0, 0.5), min_size=2, max_size=2),
    data=st.data(),
)
def test_a_stack_of_rows_reads_as_each_row_alone(n, n_rows, keep, flip, data):
    # faulty shots read their classes' Born rows as one stack: each row's read, and its read
    # weights on a subset of measured qubits, are the bytes of that row read alone. Rows may
    # hold less than 1, as an unnormalized faulty state does, and zeros.
    measured = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    circ = Circuit(n, tuple(qcore.measure(q) for q in sorted(measured)), (ROLE_DATA,) * n)
    kernel = np.array([[keep[0] - flip[0], flip[1]], [flip[0], keep[1] - flip[1]]])
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = rng.random((n_rows, 2**n)) * (rng.random((n_rows, 2**n)) < 0.8)
    rows /= rows.sum(axis=1, keepdims=True) + rng.random((n_rows, 1))
    stacked = sim._read_measured(rows, circ, kernel)
    assert stacked.shape == (n_rows, 2 ** len(measured) + 1)
    assert stacked.tobytes() == np.array([sim._read_measured(row, circ, kernel) for row in rows]).tobytes()
    assert sim._read(rows, kernel).tobytes() == np.array([sim._read(row, kernel) for row in rows]).tobytes()


def test_born_distribution_readout_flip():
    rho = qcore.StateVector(1, [1, 0]).outer()
    probs = born_distribution(rho, ReadoutParams(p_flip0=1e-3))
    assert probs["1"] == pytest.approx(1e-3)
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# trajectory backend
# ---------------------------------------------------------------------------


def test_noiseless_sampling_theta_zero():
    circ = builders.build_unencoded_ansatz(0.0, "Z")
    table = sample_shots(noise.noiseless(circ), TrajectoryConfig(1000, seed=1))
    assert table.counts == {"00": 1000}


MASK64, GAMMA = 2**64 - 1, 0x9E3779B97F4A7C15


def splitmix64_output(z: int) -> int:
    """SplitMix64's output function on a Python int, as in Vigna's splitmix64.c."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def splitmix64_words(state: int, first: int, n: int) -> list[int]:
    """Words first to first + n of raw SplitMix64 from state: word j is the output
    function of state + (j + 1) gamma mod 2^64."""
    return [splitmix64_output((state + (j + 1) * GAMMA) & MASK64) for j in range(first, first + n)]


def reference_uniforms(seed: int, family: int, n_draws: int, first_word: int = 0) -> np.ndarray:
    """The doubles of one sampler stream from Python ints, from word first_word on: the key
    is output(output(seed mod 2^64) + (family + 1) gamma), and each double is the top 53
    bits of its word."""
    key = splitmix64_output((splitmix64_output(seed % 2**64) + (family + 1) * GAMMA) & MASK64)
    return np.array([(w >> 11) * 2.0**-53 for w in splitmix64_words(key, first_word, n_draws)], dtype=float)


def faulty_rows(noisy, n_shots: int, seed: int):
    """Per faulty shot, (u_out, location uniforms), drawn one shot at a time from the
    reference streams.

    N_F inverts family 0's first uniform through sim._binomial, which is checked against exact
    pmfs below. Faulty shot j reads its row of 2 + n_loc uniforms from family 2, past the rows
    of every earlier shot: u, u_out, then v, whatever the read kernel. With
    u_f = P_F u, the first faulty location K is the first k at which the survival product
    prod_{j <= k} (1 - th_j) drops to or below 1 - u_f; then u_j = th_j + (1 - th_j) v_j
    before K, th_K v_K at K and v_j after it.
    """
    _, thresholds = sim._Trajectory(noisy).no_jump_reference()
    th = [min(t, 1.0) for t in thresholds.tolist()]
    p_fault = 1.0 - math.prod(1.0 - t for t in th)
    n_faulty = int(sim._binomial(np.array([n_shots]), np.array([p_fault]), reference_uniforms(seed, 0, 1))[0])
    row = 2 + len(th)
    for j in range(n_faulty):
        u = reference_uniforms(seed, 2, row, j * row).tolist()
        u_f, v = p_fault * u[0], u[2:]
        survive = 1.0
        for first, t in enumerate(th):
            survive *= 1.0 - t
            if u_f < 1.0 - survive:
                break
        u_loc = np.array([t + (1.0 - t) * x if k < first else t * x if k == first else x
                          for k, (t, x) in enumerate(zip(th, v))])
        yield u[1], u_loc


def run_alone(traj, u_loc: np.ndarray) -> np.ndarray:
    """traj.run on the fault codes of rows of location uniforms, with zero frames: every fault
    is inserted as the rows run."""
    return traj.run(traj.fault_codes(u_loc), np.zeros((len(u_loc), traj.frames.shape[0]), dtype=np.uint64))


def read_weights(noisy, amps: np.ndarray) -> np.ndarray:
    """The read weights of one statevector, written apart from sim: its Born vector marginalised
    to the measured bits index by index, read bit by bit through the kernel by tensordot, then
    the mass the kernel drops, exactly 0 when every kernel column sums to 1."""
    n, measured, kernel = noisy.circuit.n_qubits, noisy.circuit.measured_qubits, noisy.readout
    born = np.abs(amps) ** 2
    marginal = np.zeros(2 ** len(measured))
    for idx, p in enumerate(born):
        marginal[int("".join(str((idx >> (n - 1 - q)) & 1) for q in measured), 2)] += p
    t = marginal.reshape((2,) * len(measured))
    for q in range(len(measured)):
        t = np.moveaxis(np.tensordot(kernel, t, axes=([1], [q])), 0, q)
    read = t.reshape(-1)
    dropped = 0.0 if np.all(kernel.sum(axis=0) == 1.0) else max(born.sum() - read.sum(), 0.0)
    return np.append(read, dropped)


def replay_faulty(noisy, n_shots: int, seed: int) -> Counter:
    """The sampler's faulty shots resolved one at a time: each row evolved alone, and its
    outcome searched in the cdf of its own read weights; the last entry drops the shot."""
    traj = sim._Trajectory(noisy)
    n_meas = len(noisy.circuit.measured_qubits)
    counts = Counter()
    for u_out, u_loc in faulty_rows(noisy, n_shots, seed):
        cdf = np.cumsum(read_weights(noisy, run_alone(traj, u_loc[None])[0]))
        cdf /= cdf[-1]
        idx = int(np.searchsorted(cdf, u_out, side="right"))
        if idx < 1 << n_meas:
            counts[qcore.bitstring(idx, n_meas)] += 1
    return counts


MULTINOMIAL = sim._multinomial  # the unpatched draw, for the recording wrapper below


def sample_recording(noisy, cfg):
    """sample_shots(noisy, cfg), with the weights and the counts of its one _multinomial draw."""
    calls = []

    def recording(n, weights, bits):
        counts = MULTINOMIAL(n, weights, bits)
        calls.append((weights.copy(), counts.copy()))  # copies, as the sampler adds to its counts
        return counts

    with mock.patch.object(sim, "_multinomial", recording):
        table = sample_shots(noisy, cfg)
    ((weights, counts),) = calls
    return table, weights, counts


def test_splitmix64_known_answers():
    # raw SplitMix64 from state 1234567, as Vigna's splitmix64.c prints it
    want = [6457827717110365317, 3203168211198807973, 9817491932198370423, 4593380528125082431,
            16408922859458223821]
    assert splitmix64_words(1234567, 0, 5) == want
    bits = splitmix.Stream(1234567)
    assert bits.random_raw(2).tolist() + bits.random_raw(0).tolist() + bits.random_raw(3).tolist() == want


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(-(2**70), 2**70),  # reduced mod 2^64, negative and wide seeds included
    family=st.sampled_from((0, 1, 2)),
    n_draws=st.integers(0, 130),
)
def test_stream_uniforms_match_reference_stream(seed, family, n_draws):
    # every drawn quantity reads the words of its own family's key, as Python ints compute them
    got = sim._uniforms(sim._stream(seed, family).random_raw(n_draws))
    assert got.tobytes() == reference_uniforms(seed, family, n_draws).tobytes()


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    row=st.integers(1, 70),
    sizes=st.lists(st.integers(1, 9), min_size=1, max_size=5),
)
def test_stream_uniforms_split_into_any_shot_ranges(seed, row, sizes):
    # faulty shot j owns words j row to (j + 1) row of family 2: read in chunks of any
    # sizes from one stream, each row is its own shot's span
    bits = sim._stream(seed, 2)
    rows = np.concatenate([sim._uniforms(bits.random_raw(size * row)).reshape(size, row) for size in sizes])
    for j, got in enumerate(rows):
        assert got.tobytes() == reference_uniforms(seed, 2, row, j * row).tobytes()


@settings(max_examples=12, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**64 - 1))
@example(seed=0)
@example(seed=2**64 - 1)  # its neighbour wraps to seed 0
def test_streams_are_uniform_and_uncorrelated_across_families_and_neighbouring_seeds(seed):
    # 2^16 doubles of each of families 0-2 at seed and seed + 1: each passes a 64-bin
    # chi-square at p > 1e-6, and no two streams correlate beyond 5 / sqrt(N), five
    # standard errors of Pearson's r between independent streams
    n, bins = 2**16, 64
    streams = [sim._uniforms(sim._stream(s, f).random_raw(n)) for s in (seed, seed + 1) for f in range(3)]
    for u in streams:
        observed = np.bincount((u * bins).astype(np.intp), minlength=bins)
        chi2 = ((observed - n / bins) ** 2).sum() / (n / bins)
        assert chi2 <= chi_square_threshold(bins - 1, statistics.NormalDist().inv_cdf(1.0 - 1e-6))
    r = np.corrcoef(np.array(streams))
    assert np.all(np.abs(r[np.triu_indices(len(streams), 1)]) < 5.0 / math.sqrt(n))


def test_binomial_inversion_cdf_matches_exact_pmfs():
    # every case in one call, so that windows of many widths share it; u sits inside each step
    # of the exact cdf (math.comb pmfs), 1e-12 from its ends and at its middle, and the larger
    # cases' windows are strict subsets of [0, n]. No shots or p = 0 draws none and p = 1 draws
    # all, at the lowest and the top uniform.
    ns, ps, us, want = [], [], [], []
    for n in (1, 2, 3, 7, 20, 40, 100, 1000):
        for p in (1e-9, 1e-3, 0.013, 0.3, 0.5, 0.77, 0.999, 1.0 - 1e-9, 1.0 - 2.0**-52):
            cdf = np.cumsum([math.comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(n + 1)])
            below = np.concatenate([[0.0], cdf[:-1]])
            for k in np.flatnonzero(cdf - below > 1e-10).tolist():
                for u in (below[k] + 1e-12, (below[k] + cdf[k]) / 2, min(cdf[k], 1.0) - 1e-12):
                    ns.append(n), ps.append(p), us.append(u), want.append(k)
    for n, p, k in ((0, 0.0, 0), (0, 0.5, 0), (0, 1.0, 0), (5, 0.0, 0), (5, 1.0, 5), (2**40, 0.0, 0), (2**40, 1.0, 2**40)):
        for u in (0.0, 1.0 - 2.0**-53):
            ns.append(n), ps.append(p), us.append(u), want.append(k)
    # u on the end of a step, where F(0) = 1/2 is exact: F(k) > u is strict, so k = 1
    ns.append(1), ps.append(0.5), us.append(0.5), want.append(1)
    # far tails: with Y ~ Binomial(n, q) at mean 0.1, P(Y > 8) < 1e-14 < P(Y > 7), so the
    # 1 - 1e-14 quantile of Y is 8 and the 1e-14 quantile of n - Y ~ Binomial(n, 1 - q) is
    # n - 8, 25 sd from the mean, which only the window's 30 terms past 12 sd reach
    n, q = 10**4, 1e-5
    pmf = [math.comb(n, j) * q**j * (1.0 - q) ** (n - j) for j in range(60)]
    assert math.fsum(pmf[9:]) < 1e-14 < math.fsum(pmf[8:])
    for p, u, k in ((q, 1.0 - 1e-14, 8), (1.0 - q, 1e-14, n - 8)):
        ns.append(n), ps.append(p), us.append(u), want.append(k)
    assert sim._binomial(np.array(ns), np.array(ps), np.array(us)).tolist() == want


def test_multinomial_counts_only_where_there_is_weight():
    # the counts sum to n, no zero-weight entry gets one, no shots draw nothing, and nothing
    # divides by zero; with 10^6 shots each count is within 6 binomial sigma of its mean
    cases = [
        ([0.0, 0.0, 3.0, 0.0, 0.0], 7),
        ([0.0, 0.2, 0.0, 0.5, 0.3, 0.0, 0.0, 0.0, 1e-300], 10**6),
        ([0.0, 0.0, 0.0], 0),
        ([1.0], 9),
        ([0.1] * 10 + [0.0], 10**6),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for weights, n in cases:
            weights = np.array(weights)
            counts = sim._multinomial(n, weights, sim._stream(5, 1))
            assert counts.sum() == n and not counts[weights == 0.0].any()
            p = weights / weights.sum() if n else weights
            assert np.all(np.abs(counts - n * p) <= 6.0 * np.sqrt(n * p * (1.0 - p)) + 1e-9)


def first_fault_law(thresholds):
    """(th, fault_cdf) as the sampler builds them from the fault thresholds."""
    th = np.minimum(thresholds, 1.0)
    return th, 1.0 - np.cumprod(1.0 - th)


def float_first_fault_codes(traj, th, fault_cdf, u_f, v):
    """The float-code rule of the first-fault law, kept as the oracle of sim._first_fault_codes:
    one float code per location of each faulty shot, _QUIET before its first fault K, at K the
    Pauli that th_K v_K draws or, at a damping location, _JUMP, and fault_codes(v) after K."""
    k = np.searchsorted(fault_cdf, u_f, side="right")
    rows = np.arange(k.size)
    u = v.copy()
    u[rows, k] *= th[k]
    codes = traj.fault_codes(u)
    codes[np.arange(th.size) < k[:, None]] = sim._QUIET
    codes[rows, k] = np.where(traj._pauli[k], codes[rows, k], sim._JUMP)
    return codes


def head_and_frames(traj, codes):
    """Rows of float codes, one per location, as (head codes, frame words): the head's columns,
    and the XOR of the frame table's columns that the tail's codes pick."""
    head = traj.head
    column = (codes[:, head:] - sim._QUIET).astype(np.intp) + 4 * np.arange(codes.shape[1] - head)
    frames = np.stack([np.bitwise_xor.reduce(words.take(column), axis=1) for words in traj.frames], axis=1)
    return codes[:, :head], frames


def assert_first_fault_codes_match_the_float_rule(traj, th, fault_cdf, u_f, v):
    """sim._first_fault_codes against the float-code rule, byte for byte; returns the rule's codes."""
    want = float_first_fault_codes(traj, th, fault_cdf, u_f, v)
    codes, frames = sim._first_fault_codes(traj, th, fault_cdf, u_f, v)
    want_codes, want_frames = head_and_frames(traj, want)
    assert codes.shape == want_codes.shape and codes.tobytes() == want_codes.tobytes()
    assert frames.dtype == np.uint64 and frames.tobytes() == want_frames.tobytes()
    return want


def init_trajectory(locations):
    """The trajectory of a one-qubit read whose noise locations are these init channels."""
    circ = Circuit(1, (qcore.measure(0),), (ROLE_DATA,))
    return sim._Trajectory(noise.NoisyCircuit(circ, ((),), tuple(locations), np.eye(2)))


@st.composite
def first_fault_draws(draw):
    """Init channels and their fault thresholds, 0, 1 and inf among them: a Pauli channel's
    p_total, or a damping channel's gamma, as on a qubit in |1>, or inf for gamma = 1 on an
    emptied no-jump branch. Then a first-fault draw u_f (some of them on an entry of fault_cdf
    or just below it) and free uniforms v."""
    unit = st.floats(0.0, 1.0, exclude_max=True)
    rate = st.sampled_from((0.0, 1.0 / 3.0)) | st.floats(0.0, 1.0 / 3.0)
    locations, thresholds = [], []
    for _ in range(draw(st.integers(1, 10))):
        if draw(st.booleans()):
            ch = noise.PauliNoise(0, draw(rate), draw(rate), draw(rate))
            thresholds.append(ch.p_total)
        else:
            ch = noise.DampingNoise(0, draw(st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0)))
            thresholds.append(np.inf if ch.gamma == 1.0 and draw(st.booleans()) else ch.gamma)
        locations.append(ch)
    thresholds = np.array(thresholds)
    _, fault_cdf = first_fault_law(thresholds)
    at = draw(st.sampled_from(fault_cdf.tolist()))
    u_f = draw(unit | st.just(at) | st.just(float(np.nextafter(at, 0.0))) | st.just(0.0))
    v = np.array(draw(st.lists(unit | st.just(0.0) | st.just(1.0 - 2.0**-53), min_size=thresholds.size,
                               max_size=thresholds.size)))
    return locations, thresholds, min(u_f, float(np.nextafter(1.0, 0.0))), v


@settings(max_examples=300, deadline=None)
@given(case=first_fault_draws())
def test_first_fault_codes_fault_first_where_the_first_fault_draw_says(case):
    locations, thresholds, u_f, v = case
    traj = init_trajectory(locations)
    th, fault_cdf = first_fault_law(thresholds)
    k = int(np.searchsorted(fault_cdf, u_f, side="right"))
    # a shot is faulty iff u_f < fault_cdf[-1], which is then K < L
    assert (u_f < fault_cdf[-1]) == (k < thresholds.size)
    if k == thresholds.size:
        return
    # the program's head codes and frames are the float rule's, whose codes are checked here
    codes = assert_first_fault_codes_match_the_float_rule(traj, th, fault_cdf, np.array([u_f]), v[None])[0]
    assert np.all(codes[:k] == sim._QUIET)
    ch, x = locations[k], th[k] * v[k]
    if isinstance(ch, noise.PauliNoise):
        # the Pauli that th_K v_K draws, which is below p_total: a fault
        assert x < ch.p_total
        assert codes[k] == (sim._X if x < ch.p_x else sim._Y if x < ch.p_x + ch.p_y else sim._Z)
    else:
        assert codes[k] == sim._JUMP and th[k] > 0.0
    assert codes[k + 1:].tobytes() == traj.fault_codes(v[None])[0, k + 1:].tobytes()


def test_first_fault_location_follows_the_survival_law():
    # over 10^5 shots of three locations, the first location whose code faults
    # is k with probability prod_{j<k} (1 - th_j) th_k
    rng = np.random.default_rng(17)
    locations = [noise.PauliNoise(0, 0.05, 0.0, 0.0), noise.DampingNoise(0, 0.3), noise.PauliNoise(0, 0.0, 0.0, 0.5)]
    traj = init_trajectory(locations)
    thresholds = np.array([0.05, 0.3, 0.5])
    th, fault_cdf = first_fault_law(thresholds)
    n = 10**5
    u_f = rng.random(n)
    faulty = u_f < fault_cdf[-1]
    codes = assert_first_fault_codes_match_the_float_rule(traj, th, fault_cdf, u_f[faulty], rng.random((faulty.sum(), 3)))
    first = np.argmax(codes != sim._QUIET, axis=1)
    assert np.all(codes[np.arange(len(codes)), first] == np.array([sim._X, sim._JUMP, sim._Z])[first])
    tally = np.bincount(first, minlength=3).tolist() + [n - faulty.sum()]
    survive = np.concatenate([[1.0], np.cumprod(1.0 - thresholds)])
    for k, count in enumerate(tally):
        p = survive[k] * thresholds[k] if k < 3 else survive[3]
        assert abs(count - n * p) <= 5.0 * math.sqrt(n * p * (1.0 - p))


ENCODED = builders.build_encoded_ansatz(-0.22967, "Z")
DEVICE = noise.default_device_model()
# drops a read of 0 with probability 0.2 and a read of 1 with 0.4
LOSSY_KERNEL = np.array([[0.6, 0.1], [0.2, 0.5]])


def with_readout(noisy, kernel):
    return dataclasses.replace(noisy, readout=kernel)


@pytest.mark.parametrize("p2", [1e-9, 0.0009, 0.1, 0.9])
def test_a_faulty_shot_at_the_top_uniform_faults_below_p_fault(monkeypatch, p2):
    # P_F = 1 - prod(1 - th) is 0 or a normal double of at least 2^-53, so P_F (1 - 2^-53),
    # the largest u_f, rounds strictly below P_F: the decrement is at least half an ulp, and
    # exact where P_F is a power of two. With every shot faulty and every uniform the top
    # one, each shot still finds its first faulty location.
    top = 1.0 - 2.0**-53
    rng = np.random.default_rng(3)
    # survival products c in [0, 1): random, within 2^-40 of 1, the last 1000 doubles below 1,
    # and powers of two and their neighbours
    below_one = np.nextafter(1.0, 0.0) - 2.0**-53 * np.arange(1000)
    powers = 2.0 ** -np.arange(1.0, 60.0)
    c = np.concatenate([rng.random(10**5), 1.0 - rng.random(10**5) * 2.0**-40, below_one, powers,
                        np.nextafter(powers, 0.0), np.nextafter(powers, 1.0), [0.0]])
    p_faults = 1.0 - c[c < 1.0]
    assert np.all(p_faults >= 2.0**-53) and np.all(p_faults * top < p_faults)
    monkeypatch.setattr(sim, "_binomial", lambda n, p, u: n)
    monkeypatch.setattr(sim, "_uniforms", lambda words: np.full(words.shape, top))
    nc = noise.attach_noise(ENCODED, DepolarizingParams(p2=p2))
    assert sample_shots(nc, TrajectoryConfig(50, seed=0)).n_shots == 50


SAMPLED_CIRCUITS = [
    (noise.noiseless(builders.build_unencoded_ansatz(0.3, "X")), 500),
    (noise.attach_noise(ENCODED, DepolarizingParams(p2=0.0009)), 3000),
    (noise.attach_noise(ENCODED, DepolarizingParams(p2=0.10)), 600),
    (noise.attach_noise(ENCODED, DEVICE), 2000),
    (noise.attach_noise(builders.wrap_with_red(builders.build_unencoded_ansatz(-0.22967, "Z")), DEVICE), 300),
    (with_readout(noise.attach_noise(ENCODED, DEVICE), red_vote_kernel_for(DEVICE)), 2000),
    (with_readout(noise.attach_noise(ENCODED, DepolarizingParams(p2=0.05)), LOSSY_KERNEL), 1500),
]
SAMPLED_IDS = [
    "noiseless", "encoded-p2=0.09%", "encoded-p2=10%", "encoded-device", "unencoded+red-device",
    "encoded-device-vote", "encoded-p2=5%-lossy",
]


def assert_matches_per_shot_loop(noisy, n_shots: int, seed: int):
    """The table is the sampler's own fault-free counts plus its faulty shots replayed one at a
    time, listed by outcome in ascending order."""
    table, _, fault_free = sample_recording(noisy, TrajectoryConfig(n_shots, seed=seed))
    n_meas = len(noisy.circuit.measured_qubits)
    want = Counter({qcore.bitstring(c, n_meas): int(fault_free[c]) for c in np.flatnonzero(fault_free[:-1])})
    faulty = replay_faulty(noisy, n_shots, seed)
    want.update(faulty)
    assert table.counts == dict(want)
    assert list(table.counts) == sorted(table.counts)
    assert table.n_shots == sum(want.values())
    assert fault_free.sum() + len(list(faulty_rows(noisy, n_shots, seed))) == n_shots


@pytest.mark.parametrize("noisy, n_shots", SAMPLED_CIRCUITS, ids=SAMPLED_IDS)
def test_block_sampler_matches_per_shot_loop(noisy, n_shots):
    # the sampler draws its faulty rows as one block of contiguous counter spans; the replay
    # draws and runs them one shot at a time
    assert_matches_per_shot_loop(noisy, n_shots, seed=2024)


PARTIAL = Circuit(
    3, (qcore.h(0), qcore.cnot(0, 1), qcore.ry(0.7, 2), qcore.cnot(1, 2), qcore.measure(0), qcore.measure(2)),
    (ROLE_DATA,) * 3,
)


@pytest.mark.parametrize(
    "noisy",
    [
        noise.attach_noise(ENCODED, DEVICE),
        with_readout(noise.attach_noise(ENCODED, DEVICE), red_vote_kernel_for(DEVICE)),
        with_readout(noise.attach_noise(ENCODED, DepolarizingParams(p2=0.05)), LOSSY_KERNEL),
        with_readout(noise.attach_noise(PARTIAL, DepolarizingParams(p2=0.05)), LOSSY_KERNEL),
    ],
    ids=["encoded-device-flips", "encoded-device-vote", "encoded-p2=5%-lossy", "partial-p2=5%-lossy"],
)
def test_fault_free_weights_are_the_reference_born_vector_read_through_the_kernel(noisy):
    # the multinomial's weights: the reference Born vector marginalised to the measured bits,
    # read bit by bit through the kernel, then the mass the kernel drops, which is exactly 0
    # for a kernel whose columns sum to 1 (read_weights writes each step out)
    _, weights, _ = sample_recording(noisy, TrajectoryConfig(500, seed=3))
    ref, _ = sim._Trajectory(noisy).no_jump_reference()
    want = read_weights(noisy, ref)
    assert weights.shape == want.shape == (2 ** len(noisy.circuit.measured_qubits) + 1,)
    assert weights.tobytes() == want.tobytes()
    if np.all(noisy.readout.sum(axis=0) == 1.0):
        assert weights[-1] == 0.0
    else:
        assert weights[-1] == pytest.approx(1.0 - want[:-1].sum(), abs=1e-14)
        assert weights[-1] > 0.01


@st.composite
def sampled_circuits(draw):
    """A random 1-3 qubit circuit with init flips, random Pauli and damping
    slots (on measurements too), terminal measurements of a random nonempty
    subset of qubits, and a random read kernel, lossy or not."""
    n = draw(st.integers(1, 3))
    rate = st.floats(0.0, 1.0 / 3.0)
    kinds = UNITARY_KINDS if n > 1 else qcore.UNITARY_1Q_KINDS
    ops = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(kinds))
        qubits = draw(st.lists(st.integers(0, n - 1), min_size=min(n, 2), max_size=2, unique=True))
        ops.append(make_gate(kind, tuple(qubits), draw(st.floats(-math.pi, math.pi))))
    measured = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    ops += [qcore.measure(q) for q in sorted(measured)]
    channels = []
    for op in ops:
        slot = []
        for q in op.qubits:
            for damping in draw(st.lists(st.booleans(), max_size=2)):
                if damping:
                    slot.append(noise.DampingNoise(q, draw(st.floats(0.0, 1.0))))
                else:
                    slot.append(noise.PauliNoise(q, draw(rate), draw(rate), draw(rate)))
        channels.append(tuple(slot))
    pre = tuple(noise.PauliNoise(q, draw(rate), 0.0, 0.0) for q in range(n) if draw(st.booleans()))
    # column b keeps a read of b with probability keep[b] and misreads it with flip[b]
    keep = [draw(st.sampled_from((1.0, 0.9, 0.55))) for _ in range(2)]
    flip = [draw(rate) for _ in range(2)]
    lossy = np.array([[keep[0] - flip[0], flip[1]], [flip[0], keep[1] - flip[1]]])
    kernel = draw(st.sampled_from((np.eye(2), lossy)))
    circ = Circuit(n, tuple(ops), (ROLE_DATA,) * n)
    return noise.NoisyCircuit(circ, tuple(channels), pre, kernel)


@settings(max_examples=40, deadline=None)
@given(
    noisy=sampled_circuits(),
    n_shots=st.integers(1, 2500),
    seed=st.integers(0, 2**63 - 1),
    # the default chunk, which a call of these sizes never fills, and chunks of one faulty
    # shot and of a few
    chunk_bytes=st.sampled_from((sim._CHUNK_BYTES, 1, 2**10)),
)
def test_sampler_matches_per_shot_loop_on_random_circuits(noisy, n_shots, seed, chunk_bytes):
    with mock.patch.object(sim, "_CHUNK_BYTES", chunk_bytes):
        assert_matches_per_shot_loop(noisy, n_shots, seed)


@settings(max_examples=60, deadline=None)
@given(noisy=sampled_circuits(), seed=st.integers(0, 2**32 - 1))
@example(noisy=noise.attach_noise(ENCODED, DEVICE), seed=0)
def test_a_decided_jump_evolves_as_the_drawn_uniform(noisy, seed):
    # a first fault at a damping location is coded _JUMP, not as the drawn th_K v_K: up to K
    # the row runs the reference's float operations, so both fall below its jump threshold
    # th_K there and the rows evolve bit for bit alike, also at the top uniform v_K = 1 - 2^-53.
    # The drawn code is held below gamma: a |1> occupation of exactly 1 can round to 1 + 2^-52
    # (an X before the damping), so th_K exceeds gamma and th_K v_K may reach it, where run
    # takes a code at or above gamma as no jump although the law puts a jump there.
    traj = sim._Trajectory(noisy)
    th, fault_cdf = first_fault_law(traj.no_jump_reference()[1])
    rng = np.random.default_rng(seed)
    n_rows = 40
    u_f = (fault_cdf[-1] if th.size else 0.0) * rng.random(n_rows)
    v = rng.random((n_rows, th.size))
    v[rng.random(v.shape) < 0.3] = 1.0 - 2.0**-53
    k = np.searchsorted(fault_cdf, u_f, side="right")
    faulty = np.flatnonzero(k < th.size)
    codes, frames = sim._first_fault_codes(traj, th, fault_cdf, u_f[faulty], v[faulty])
    k, v = k[faulty], v[faulty]
    # a damping location is in the head, which codes hold; tail faults act through the frames
    in_head = np.flatnonzero(k < traj.head)
    jumped = in_head[codes[in_head, k[in_head]] == sim._JUMP]
    assume(jumped.size > 0)
    drawn = codes.copy()
    at = k[jumped]
    drawn[jumped, at] = np.minimum(th[at] * v[jumped, at], np.nextafter(traj._gamma[at], 0.0))
    assert traj.run(codes, frames).tobytes() == traj.run(drawn, frames).tobytes()


def chi_square_threshold(dof: int, z: float = 6.0) -> float:
    """The chi-square quantile at the normal quantile z (1 - 1e-9 at z = 6), by the Wilson-Hilferty cube."""
    return dof * (1.0 - 2.0 / (9 * dof) + z * math.sqrt(2.0 / (9 * dof))) ** 3


# the device model with p2 raised to 5 %: most encoded shots carry a fault
DEVICE_P2_5 = dataclasses.replace(DEVICE, depol=dataclasses.replace(DEVICE.depol, p2=0.05))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(noisy=sampled_circuits(), seed=st.integers(0, 2**63 - 1))
# sampled_circuits() stop at 3 qubits: these read the faulty shots of the 6-qubit encoded
# register through its asymmetric flips and through its vote kernel, which drops shots
@example(noisy=noise.attach_noise(ENCODED, DEVICE_P2_5), seed=0)
@example(noisy=with_readout(noise.attach_noise(ENCODED, DEVICE_P2_5), red_vote_kernel_for(DEVICE_P2_5)), seed=0)
def test_sampled_tables_pass_a_chi_square_check_against_the_shot_limit(noisy, seed):
    # fixed examples and seeds (derandomized); the bins are the kept outcomes and the dropped
    # shots, with those expected below 5 shots pooled, and the pool joined to the smallest
    # other bin while it is itself expected below 5
    n_shots = 4000
    table = sample_shots(noisy, TrajectoryConfig(n_shots, seed=seed))
    limit, _ = sim.shot_limit_table(noisy)
    expected = {k: n_shots * p for k, p in limit.counts.items()}
    expected[None] = max(n_shots - sum(expected.values()), 0.0)
    observed = {**table.counts, None: n_shots - table.n_shots}
    bins = [(expected.get(k, 0.0), observed.get(k, 0)) for k in set(expected) | set(observed)]
    small = [b for b in bins if b[0] < 5.0]
    bins = sorted(b for b in bins if b[0] >= 5.0)
    pool = (sum(e for e, _ in small), sum(o for _, o in small))
    if pool[0] >= 5.0 or not bins:
        bins.append(pool)
    else:
        bins[0] = (bins[0][0] + pool[0], bins[0][1] + pool[1])
    chi2 = sum((o - e) ** 2 / e for e, o in bins if e > 0.0)
    assert sum(o for _, o in bins) == n_shots
    if len(bins) > 1:
        assert chi2 <= chi_square_threshold(len(bins) - 1)


def locations_of(noisy):
    """The noise locations in the trajectory's order: the init flips, then each op's slot."""
    return list(noisy.pre_channels) + [ch for slot in noisy.channels for ch in slot]


def full_register(mat, qubits, n):
    """A gate or Pauli on qubits as a 2^n x 2^n matrix."""
    return qcore.apply_matrix(np.eye(2**n, dtype=complex), mat, qubits)


def frame_oracle(noisy, k: int, pauli: np.ndarray):
    """The outcome mask and rotation flips of a Pauli inserted at noise location k, from dense
    matrices: it is conjugated as U P U^dagger by each gate after k, while each rotation, taken
    as the identity, records whether it anticommutes with the rotation's generator there. The
    mask is the basis state that the final Pauli sends |0...0> to."""
    n = noisy.circuit.n_qubits
    steps = [((), noisy.pre_channels)] + [
        ((op,) if op.is_unitary else (), slot) for op, slot in zip(noisy.circuit.ops, noisy.channels)
    ]
    frame, flips, loc = None, [], 0
    for gates, slot in steps:
        for op in gates:
            if op.kind in qcore.PARAMETRIC_KINDS:
                gen = full_register(qcore.PAULI_Y if op.kind == "RY" else qcore.PAULI_Z, op.qubits, n)
                flips.append(frame is not None and np.allclose(frame @ gen, -gen @ frame, atol=1e-12))
            elif frame is not None:
                u = full_register(op.matrix(), op.qubits, n)
                frame = u @ frame @ u.conj().T
        for ch in slot:
            if loc == k:
                frame = full_register(pauli, (ch.qubit,), n)
            loc += 1
    return int(np.argmax(np.abs(frame[:, 0]))), tuple(flips)


@pytest.mark.parametrize(
    "noisy, n_shots",
    [(noise.attach_noise(ENCODED, DepolarizingParams(p2=0.10)), 2548), (noise.attach_noise(ENCODED, DEVICE), 5000)],
    ids=["encoded-p2=10%", "encoded-device"],
)
def test_each_distinct_head_and_flip_pattern_is_evolved_once(monkeypatch, noisy, n_shots):
    # shots are grouped by the bytes of their decided head codes and their rotation-flip
    # pattern: a group must neither split (evolving one pattern twice) nor merge two (evolving
    # one of them never). The decided codes come from the replay's old-law uniforms: quiet
    # before a row's first uniform below its threshold, at K, and a jump there at a damping
    # location. The flips come from frame_oracle. Under the device model the tail is empty,
    # so every distinct decided history is evolved once: fewer than the distinct rows of codes
    # of the raw uniforms, which would evolve a draw in [th_j, gamma) before K, or th_K v_K, as
    # a history of its own (42 faulty shots at 5000: 27 histories, against 30 rows of codes).
    seed = 6
    traj = sim._Trajectory(noisy)
    n_rot = sum(op.kind in qcore.PARAMETRIC_KINDS for op in noisy.circuit.ops)
    locations = locations_of(noisy)
    u_loc = np.array([u for _, u in faulty_rows(noisy, n_shots, seed)])
    raw = traj.fault_codes(u_loc)
    th, _ = first_fault_law(traj.no_jump_reference()[1])
    first = np.argmax(u_loc < th, axis=1)
    codes = raw.copy()
    codes[np.arange(len(locations)) < first[:, None]] = sim._QUIET
    damped = np.flatnonzero([isinstance(locations[k], noise.DampingNoise) for k in first])
    codes[damped, first[damped]] = sim._JUMP
    paulis = {sim._X: qcore.PAULI_X, sim._Y: qcore.PAULI_Y, sim._Z: qcore.PAULI_Z}
    oracle = {}
    want = set()
    for row in codes:
        flips = [False] * n_rot
        for k in range(traj.head, len(locations)):
            if row[k] in paulis:
                if (k, row[k]) not in oracle:
                    oracle[k, row[k]] = frame_oracle(noisy, k, paulis[row[k]])[1]
                flips = [a != b for a, b in zip(flips, oracle[k, row[k]])]
        want.add((tuple(row[:traj.head]), tuple(flips)))
    if traj.head == len(locations):
        assert want == {(tuple(c), (False,) * n_rot) for c in np.unique(codes, axis=0)}
        assert damped.size and len(want) < len(np.unique(raw, axis=0))
    else:
        assert traj.head == 0 and len(want) == 2  # the one RY, flipped or not
        assert codes.tobytes() == raw.tobytes()  # Pauli codes before K are quiet already
    evolved = []
    run = sim._Trajectory.run

    def recording_run(self, codes, frames, thresholds=None):
        if thresholds is not None:  # the no-jump reference, not a faulty pass
            return run(self, codes, frames, thresholds)
        assert codes.shape[1] == self.head  # tail faults act through the frames only
        bits = [self.n + r for r in range(n_rot)]  # rotation r's flip is bit n + r of the words
        flips = [tuple(bool((row[b // 64] >> np.uint64(b % 64)) & np.uint64(1)) for b in bits) for row in frames]
        evolved.extend(zip(map(tuple, codes), flips))
        return run(self, codes, frames)

    monkeypatch.setattr(sim._Trajectory, "run", recording_run)
    sample_shots(noisy, TrajectoryConfig(n_shots, seed=seed))  # the default chunk: one
    assert len(evolved) == len(want) > 0
    assert sorted(evolved) == sorted(want)


FRAME_GATES = [make_gate(kind, (0, 1), 0.7) for kind in UNITARY_KINDS] + [qcore.cnot(1, 0)]


@pytest.mark.parametrize("read", ["Z", "X"])
@pytest.mark.parametrize("gate", FRAME_GATES, ids=[
    " ".join(map(str, (g.kind, *g.qubits, *([g.angle] if g.angle is not None else [])))) for g in FRAME_GATES
])
def test_frame_table_moves_each_pauli_through_each_gate(gate, read):
    # a Pauli P on either qubit before the gate U: |U P psi|^2 = |U(+-angle) psi|^2 read at
    # i ^ mask, with the angle negated where the table sets the rotation's flip bit. Read in
    # the X basis (U followed by H on both qubits), the Z part of the frame is the mask.
    after = (qcore.h(0), qcore.h(1)) if read == "X" else ()
    circ = Circuit(2, (gate,) + after + (qcore.measure(0), qcore.measure(1)), (ROLE_DATA,) * 2)
    pre = tuple(noise.PauliNoise(q, 0.1, 0.1, 0.1) for q in (0, 1))
    traj = sim._Trajectory(noise.NoisyCircuit(circ, ((),) * len(circ.ops), pre, np.eye(2)))
    assert traj.head == 0 and traj.frames.shape == (1, 4 * 2)  # one word per code at each init Pauli
    rng = np.random.default_rng(3)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    for q in (0, 1):
        assert traj.frames[0, 4 * q] == 0  # no fault, no frame
        for code, pauli in zip((1, 2, 3), (qcore.PAULI_X, qcore.PAULI_Y, qcore.PAULI_Z)):
            word = int(traj.frames[0, 4 * q + code])
            mask, flip = word & 3, word >> 2
            assert flip in ((0, 1) if gate.kind in qcore.PARAMETRIC_KINDS else (0,))
            flipped = dataclasses.replace(gate, angle=-gate.angle) if flip else gate
            lhs, rhs = qcore.apply_matrix(psi, pauli, (q,)), psi
            for op, op_flipped in zip((gate,) + after, (flipped,) + after):
                lhs = qcore.apply_matrix(lhs, op.matrix(), op.qubits)
                rhs = qcore.apply_matrix(rhs, op_flipped.matrix(), op.qubits)
            lhs, rhs = np.abs(lhs) ** 2, np.abs(rhs) ** 2
            assert np.max(np.abs(lhs - rhs[np.arange(4) ^ mask])) < 1e-12
            assert (mask, (bool(flip),) * (gate.kind in qcore.PARAMETRIC_KINDS)) == frame_oracle(traj.noisy, q, pauli)


def test_flip_bits_past_the_first_word_resolve_as_each_row_alone():
    # 2 qubits and 70 rotations: rotation r's flip is bit 2 + r, so the last ones are in word 1
    ops = []
    for r in range(70):
        ops += [qcore.ry(0.1 + 0.01 * r, r % 2) if r % 3 else qcore.rz(0.2 - 0.01 * r, r % 2), qcore.cnot(r % 2, 1 - r % 2)]
    circ = Circuit(2, tuple(ops) + all_measured(2).ops, (ROLE_DATA,) * 2)
    traj = sim._Trajectory(noise.attach_noise(circ, DepolarizingParams(p2=0.02, p1=0.02)))
    assert traj.frames.shape[0] == 2 and traj.frames[1].any()
    rng = np.random.default_rng(8)
    u_loc, u_out = rng.random((150, traj.frames.shape[1] // 4)) ** 4, rng.random(150)  # about 1 in 5 faults
    want = []
    for u, x in zip(u_loc, u_out):
        cdf = np.cumsum(np.abs(run_alone(traj, u[None])[0]) ** 2)
        want.append(int(np.searchsorted(cdf / cdf[-1], x, side="right")))
    assert sim._faulty_outcomes(traj, *head_and_frames(traj, traj.fault_codes(u_loc)), u_out)[0].tolist() == want


@st.composite
def frame_cases(draw):
    """A random 1-3 qubit circuit over every unitary kind, with a Pauli channel on each qubit of
    each gate and an init Pauli on each qubit. Its first ops, RY then RZ at random angles on each
    qubit, make the state generic, so that a wrong frame moves outcomes, and an H on some qubits
    before the measurements reads the Z part of their frames. One location, from the
    first to the last, is amplitude damping instead, or none is: the head runs up to it. Then
    rows of location uniforms, each faulting at a drawn rate, with repeated rows and damping
    draws below gamma, and an outcome uniform per row."""
    n = draw(st.integers(1, 3))
    kinds = UNITARY_KINDS + ("CNOT",) * 3 if n > 1 else qcore.UNITARY_1Q_KINDS  # CNOTs spread frames
    angle = st.floats(-math.pi, math.pi)
    ops = [gate(draw(angle), q) for q in range(n) for gate in (qcore.ry, qcore.rz)]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(kinds))
        qubits = draw(st.lists(st.integers(0, n - 1), min_size=min(n, 2), max_size=2, unique=True))
        ops.append(make_gate(kind, tuple(qubits), draw(angle)))
    ops += [qcore.h(q) for q in range(n) if draw(st.booleans())] + list(all_measured(n).ops)
    rate = st.floats(0.0, 1.0 / 3.0)
    slots = [[(q, (draw(rate), draw(rate), draw(rate))) for q in op.qubits] for op in ops[:-n]] + [[]] * n
    slots.insert(0, [(q, (draw(rate), draw(rate), draw(rate))) for q in range(n)])
    n_loc = sum(map(len, slots))
    head = draw(st.integers(0, n_loc))
    gamma = draw(st.floats(0.0, 1.0))
    k, channels = 0, []
    for slot in slots:
        channels.append(tuple(noise.DampingNoise(q, gamma) if k + j == head - 1 else noise.PauliNoise(q, *r)
                              for j, (q, r) in enumerate(slot)))
        k += len(slot)
    noisy = noise.NoisyCircuit(Circuit(n, tuple(ops), (ROLE_DATA,) * n), tuple(channels[1:]), channels[0], np.eye(2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_rows = 60
    locations = locations_of(noisy)
    limit = np.array([ch.p_total if isinstance(ch, noise.PauliNoise) else ch.gamma for ch in locations])
    u_loc = rng.random((n_rows, n_loc))
    hit = rng.random((n_rows, n_loc)) < draw(st.floats(0.0, 1.0))
    u_loc[hit] = (rng.random((n_rows, n_loc)) * limit)[hit]
    u_loc = u_loc[rng.integers(n_rows, size=n_rows)]  # repeats, which share their evolution
    return noisy, head, u_loc, rng.random(n_rows)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=frame_cases())
def test_faulty_outcomes_equal_each_row_resolved_alone(case):
    # grouped by head codes and flip pattern, with tail faults read through the frames, every
    # row resolves to the index of its own state's cdf, as replay_faulty resolves it
    noisy, head, u_loc, u_out = case
    traj = sim._Trajectory(noisy)
    assert traj.head == head
    want = []
    for u, x in zip(u_loc, u_out):
        cdf = np.cumsum(np.abs(run_alone(traj, u[None])[0]) ** 2)
        cdf /= cdf[-1]
        want.append(int(np.searchsorted(cdf, x, side="right")))
    assert sim._faulty_outcomes(traj, *head_and_frames(traj, traj.fault_codes(u_loc)), u_out)[0].tolist() == want


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=frame_cases(), pass_amps=st.sampled_from((1, 2**3, sim._PASS_AMPS)))
def test_the_quiet_row_of_a_faulty_pass_is_the_no_jump_reference(case, pass_amps):
    # without a reference, _faulty_outcomes evolves the quiet, zero-frame row with the groups,
    # as the state of a group that holds it or as one row more: that state, normalized, is the
    # no-jump reference byte for byte, every row resolves as with the reference given, and each
    # distinct row of keys is evolved once, in passes of at most pass_amps amplitudes
    noisy, head, u_loc, u_out = case
    traj = sim._Trajectory(noisy)
    codes, frames = head_and_frames(traj, traj.fault_codes(u_loc))
    want_ref, _ = traj.no_jump_reference()
    given, _ = sim._faulty_outcomes(traj, codes, frames, u_out, want_ref)
    flips = frames.copy()
    flips[:, 0] >>= np.uint64(traj.n)
    keys = {(c.tobytes(), f.tobytes()) for c, f in zip(codes, flips)}
    held = (np.full(head, sim._QUIET).tobytes(), np.zeros(frames.shape[1], np.uint64).tobytes()) in keys
    rows = []
    run = sim._Trajectory.run

    def recording_run(self, codes, frames, thresholds=None):
        rows.append(len(codes))
        return run(self, codes, frames, thresholds)

    with mock.patch.object(sim._Trajectory, "run", recording_run), mock.patch.object(sim, "_PASS_AMPS", pass_amps):
        idx, ref = sim._faulty_outcomes(traj, codes, frames, u_out)
    assert ref.tobytes() == want_ref.tobytes()
    assert idx.tolist() == given.tolist()
    assert sum(rows) == len(keys) + (not held) and max(rows) <= max(1, pass_amps >> traj.n)


# one X before the rotation on every faulty shot: no faulty group holds the zero flip pattern
INIT_X = noise.NoisyCircuit(
    Circuit(1, (qcore.ry(0.7, 0), qcore.measure(0)), (ROLE_DATA,)), ((), ()), (noise.PauliNoise(0, 0.3, 0.0, 0.0),),
    np.eye(2),
)


@pytest.mark.parametrize("pass_amps", [sim._PASS_AMPS, 2])
@pytest.mark.parametrize(
    "noisy, groups",
    [(noise.attach_noise(ENCODED, DepolarizingParams(p2=0.10)), 2), (INIT_X, 1)],
    ids=["encoded-p2=10%", "init-X"],
)
def test_a_depolarizing_circuit_takes_one_run_per_faulty_pass(noisy, groups, pass_amps):
    # no location reads the state, so nothing runs before the draw: the reference is the quiet,
    # zero-frame row of the first faulty pass, the zero-flip group's state where one holds it
    # (the encoded RY unflipped) and else one row more (INIT_X), and no run records thresholds.
    # With one row per pass (pass_amps = 2^n), each group and that row take a run each.
    runs = []
    run = sim._Trajectory.run

    def recording_run(self, codes, frames, thresholds=None):
        runs.append((len(codes), thresholds is not None))
        return run(self, codes, frames, thresholds)

    with mock.patch.object(sim._Trajectory, "run", recording_run), mock.patch.object(sim, "_PASS_AMPS", pass_amps):
        table, weights, _ = sample_recording(noisy, TrajectoryConfig(2000, seed=6))
    n_rows = groups + (noisy is INIT_X)
    per_pass = max(1, pass_amps >> noisy.circuit.n_qubits)
    assert runs == [(min(per_pass, n_rows - lo), False) for lo in range(0, n_rows, per_pass)]
    assert weights.tobytes() == read_weights(noisy, sim._Trajectory(noisy).no_jump_reference()[0]).tobytes()
    assert_matches_per_shot_loop(noisy, 2000, seed=6)


@st.composite
def first_fault_circuits(draw):
    """A circuit with its trajectory, and whether its rows fault first in the head or in the tail:
    the encoded ansatz under depolarizing noise (all tail), under the device model (all head), or
    under the device model without damping in two-qubit gates (a tail after the last 1q gate's
    damping); or a frame_cases circuit, whose one damping location puts the head anywhere."""
    p2 = draw(st.sampled_from((0.0009, 0.02, 0.10)))
    models = [DepolarizingParams(p2=p2), dataclasses.replace(DEVICE, depol=DepolarizingParams(p2=p2)),
              dataclasses.replace(DEVICE, emission_ratio_2q=0.0)]
    noisy = draw(st.sampled_from([noise.attach_noise(ENCODED, m) for m in models]) | frame_cases().map(lambda c: c[0]))
    return sim._Trajectory(noisy), draw(st.sampled_from(("head", "tail")))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=first_fault_circuits(), seed=st.integers(0, 2**32 - 1))
def test_first_fault_codes_equal_the_float_rule_in_head_and_tail(case, seed):
    # the head's float codes and the frames of the tail's integer Pauli indices are the float
    # rule's head columns and the XOR of the frame columns its tail codes pick, byte for byte,
    # with the first fault K drawn in the head or in the tail, and v at 0, at the top uniform
    # and on each location's thresholds, where the Pauli an integer index picks could part from
    # the float rule's
    traj, where = case
    th, fault_cdf = first_fault_law(traj.no_jump_reference()[1])
    cut = fault_cdf[traj.head - 1] if traj.head else 0.0
    lo, hi = (0.0, cut) if where == "head" else (cut, fault_cdf[-1] if th.size else 0.0)
    assume(lo < hi)
    rng = np.random.default_rng(seed)
    n_rows = 80
    u_f = np.minimum(lo + (hi - lo) * rng.random(n_rows), np.nextafter(hi, 0.0))
    v = rng.random((n_rows, th.size))
    edges = np.stack([traj._p_x, traj._p_xy, traj._p_total, traj._gamma, np.zeros(th.size), np.full(th.size, 1.0 - 2.0**-53)])
    pick = rng.random(v.shape) < 0.3
    v[pick] = edges[rng.integers(len(edges), size=pick.sum()), np.nonzero(pick)[1]]
    v[pick & (v >= 1.0)] = 1.0 - 2.0**-53
    k = np.searchsorted(fault_cdf, u_f, side="right")
    assert np.all((k < traj.head) if where == "head" else (k >= traj.head) & (k < th.size))
    assert_first_fault_codes_match_the_float_rule(traj, th, fault_cdf, u_f, v)


@st.composite
def cdf_tables(draw):
    """(table, row, u): rows of 2^n cdf entries, normalized as the sampler's,
    with zero-weight plateaus (tied entries, leading zeros) and a last entry
    of 1.0; draws u per shot, some equal to an entry of its row."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_rows, n_shots = draw(st.integers(1, 5)), draw(st.integers(0, 300))
    weights = rng.random((n_rows, 2**n)) * (rng.random((n_rows, 2**n)) >= draw(st.sampled_from((0.0, 0.5, 0.95))))
    weights[np.arange(n_rows), rng.integers(2**n, size=n_rows)] += 0.5  # every row has weight
    table = np.cumsum(weights, axis=1)
    table /= table[:, -1:].copy()
    row = rng.integers(n_rows, size=n_shots)
    u = rng.random(n_shots)
    exact = rng.random(n_shots) < 0.5
    u[exact] = table[row[exact], rng.integers(2**n, size=exact.sum())]
    u[rng.random(n_shots) < 0.05] = 0.0
    return table, row, u


@settings(max_examples=200, deadline=None)
@given(case=cdf_tables())
def test_search_rows_equals_searchsorted_on_each_row(case):
    table, row, u = case
    assert table[:, -1].tolist() == [1.0] * len(table)
    got = sim._search_rows(table, row, u)
    want = [np.searchsorted(table[r], x, side="right") for r, x in zip(row, u)]
    assert got.tolist() == want


def test_damping_that_empties_the_no_jump_branch_makes_every_shot_faulty():
    # gamma = 1 on |1> leaves the reference's no-jump branch empty: every shot
    # jumps there to |0>, and nothing divides by its zero norm
    circ = Circuit(1, (qcore.x(0), qcore.measure(0)), (ROLE_DATA,))
    noisy = noise.NoisyCircuit(circ, ((noise.DampingNoise(0, 1.0),), ()), (), np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        amps, thresholds = sim._Trajectory(noisy).no_jump_reference()
        table = sample_shots(noisy, TrajectoryConfig(300, seed=3))
    assert not amps.any() and thresholds.tolist() == [np.inf]
    assert table.counts == {"0": 300}


def test_the_no_jump_threshold_of_a_qubit_in_one_is_at_most_gamma():
    # qubit 0 is exactly |1> at the damping location, and the two sums of its
    # occupation once read 1 + 2^-52, putting the threshold above gamma
    ops = (qcore.h(0), qcore.h(1), qcore.h(2), qcore.h(0), qcore.x(0)) + tuple(qcore.measure(q) for q in range(3))
    channels = ((),) * 4 + ((noise.DampingNoise(0, 0.5),),) + ((),) * 3
    noisy = noise.NoisyCircuit(Circuit(3, ops, (ROLE_DATA,) * 3), channels, (), np.eye(2))
    _, thresholds = sim._Trajectory(noisy).no_jump_reference()
    assert thresholds.tolist() == [0.5]


def test_parity_masks_are_built_once_per_layout_and_positions_and_read_only():
    # the strategies and the estimator read the same masks over and over: each is the XOR of its
    # positions' bits of every outcome index, built once and unwritable
    layout = sim.MeasurementLayout(tuple(range(6)), (ROLE_DATA,) * 6)
    for r in range(7):
        for positions in itertools.combinations(range(6), r):
            mask = layout.parity(positions)
            want = [sum((i >> (5 - p)) & 1 for p in positions) % 2 for i in range(64)]
            assert mask.tolist() == want and not mask.flags.writeable
            assert layout.parity(positions) is mask
            assert sim.MeasurementLayout(tuple(range(6)), (ROLE_DATA,) * 6).parity(positions) is mask


def test_a_trajectory_builds_each_gate_matrix_once(monkeypatch):
    # each unitary op's matrix is built when the trajectory is, and no run builds one: a faulty
    # pass and the reference read the same arrays
    calls = []
    matrix = qcore.Gate.matrix
    monkeypatch.setattr(qcore.Gate, "matrix", lambda self: calls.append(self) or matrix(self))
    noisy = noise.attach_noise(ENCODED, DepolarizingParams(p2=0.05))
    traj = sim._Trajectory(noisy)
    assert calls == [op for op in ENCODED.ops if op.is_unitary]
    calls.clear()
    traj.no_jump_reference()
    u_loc = np.random.default_rng(2).random((50, traj._pauli.size)) ** 3
    sim._faulty_outcomes(traj, *head_and_frames(traj, traj.fault_codes(u_loc)), np.random.default_rng(3).random(50))
    assert calls == []


def test_shot_tables_hold_one_weight_per_measured_outcome():
    layout = sim.MeasurementLayout((0, 2), (ROLE_DATA,) * 2)
    for bad in (np.zeros(2, np.int64), np.zeros(8), np.zeros((2, 2))):
        with pytest.raises(ValueError):
            ShotTable(bad, layout)
    with pytest.raises(ValueError):
        ShotTable.of({"001": 1}, layout)
    table = ShotTable.of({"10": 3, "01": 0}, layout)
    assert table.weights.tolist() == [0, 0, 3, 0] and table.n_shots == 3
    with pytest.raises(TypeError):
        table.counts["10"] = 4


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    data=st.data(),
    weight=st.sampled_from((st.integers(1, 10**12), st.floats(1e-12, 1.0))),
)
def test_a_weight_map_round_trips_through_its_table(n, data, weight):
    mapping = data.draw(st.dictionaries(st.integers(0, 2**n - 1).map(lambda i: format(i, f"0{n}b")), weight))
    table = ShotTable.of(mapping, sim.MeasurementLayout(tuple(range(n)), (ROLE_DATA,) * n))
    assert table.counts == mapping
    assert all(type(w) is type(mapping[k]) for k, w in table.counts.items())


def trajectory_oracle(noisy, u_row):
    """One shot's normalized final state and each location's threshold, written out with qcore
    contractions: a Pauli location inserts X, Y or Z below p_x, p_x + p_y and p_total, its
    threshold, and a damping location jumps when its uniform is below the jump probability, its
    threshold. A location that leaves no state (a no-jump branch that gamma = 1 empties) leaves
    the zero vector and gets an infinite threshold. The last item is the least norm that a
    damping location leaves of the normalized state it acts on (1.0 if there is none)."""
    n = noisy.circuit.n_qubits
    amps = qcore.StateVector.zero(n).amps
    steps = [((), noisy.pre_channels)] + [
        ((op,) if op.is_unitary else (), slot) for op, slot in zip(noisy.circuit.ops, noisy.channels)
    ]
    uniforms, thresholds, least = iter(u_row), [], 1.0
    for gates, slot in steps:
        for op in gates:
            amps = qcore.apply_matrix(amps, op.matrix(), op.qubits)
        for ch in slot:
            u = next(uniforms)
            if isinstance(ch, noise.PauliNoise):
                thresholds.append(ch.p_total)
                if u >= ch.p_total:
                    continue
                mat = qcore.PAULI_X if u < ch.p_x else qcore.PAULI_Y if u < ch.p_x + ch.p_y else qcore.PAULI_Z
            else:
                no_jump, jump = ch.kraus
                jumped = qcore.apply_matrix(amps, jump, (ch.qubit,))
                thresholds.append(np.vdot(jumped, jumped).real)
                mat = jump if u < thresholds[-1] else no_jump
            amps = qcore.apply_matrix(amps, mat, (ch.qubit,))
            norm = np.linalg.norm(amps)
            if isinstance(ch, noise.DampingNoise) and amps.any():
                least = min(least, norm)
            if norm == 0.0:
                thresholds[-1] = np.inf
            else:
                amps /= norm
    return amps, thresholds, least


def test_batched_trajectory_rows_equal_one_row_passes():
    noisy = noise.attach_noise(ENCODED, DEVICE)
    locations = noisy.pre_channels + tuple(ch for slot in noisy.channels for ch in slot)
    damping = [k for k, ch in enumerate(locations) if isinstance(ch, noise.DampingNoise)]
    pauli = [k for k, ch in enumerate(locations) if isinstance(ch, noise.PauliNoise) and ch.p_x > 0.0]
    assert damping and pauli
    rng = np.random.default_rng(5)
    n_rows = 8
    u = rng.random((n_rows, len(locations)))
    for k, ch in enumerate(locations):  # about a third of the draws fault or decide a jump
        limit = ch.p_total if isinstance(ch, noise.PauliNoise) else ch.gamma
        hit = rng.random(n_rows) < 0.3
        u[hit, k] = rng.random(hit.sum()) * limit
    for k in damping:  # row 0 jumps wherever |1> holds more than 1e-3 of the state
        u[0, k] = 1e-3 * locations[k].gamma
    u[:, pauli[len(pauli) // 2]] = 0.0  # every row draws X at this location
    traj = sim._Trajectory(noisy)
    batch = run_alone(traj, u)
    assert batch.shape == (n_rows, 2**noisy.circuit.n_qubits)
    for r in range(n_rows):
        assert batch[r].tobytes() == run_alone(traj, u[r:r + 1])[0].tobytes()
        want, _, _ = trajectory_oracle(noisy, u[r])
        assert np.max(np.abs(batch[r] / np.linalg.norm(batch[r]) - want)) < 1e-12


EMPTIED = noise.NoisyCircuit(
    Circuit(2, (qcore.h(1), qcore.x(0), qcore.measure(0), qcore.measure(1)), (ROLE_DATA,) * 2),
    ((), (noise.DampingNoise(0, 1.0), noise.PauliNoise(1, 0.1, 0.0, 0.0)), (noise.DampingNoise(0, 0.5),), ()),
    (), np.eye(2),
)

# qubit 0's |1> population sums to 1 + 2^-52 in qcore's contraction, so the oracle's jump
# probability at its gamma = 1 location is above 1
OVER_ONE = noise.NoisyCircuit(
    Circuit(2, (qcore.x(0), qcore.h(1), qcore.x(1), qcore.measure(0)), (ROLE_DATA,) * 2),
    ((), (), (), (noise.DampingNoise(0, 0.0), noise.DampingNoise(0, 1.0))), (), np.eye(2),
)


@settings(max_examples=200, deadline=None)
@given(noisy=sampled_circuits())
@example(noisy=EMPTIED)  # gamma = 1 empties qubit 0's no-jump branch, and a later damping finds it empty
@example(noisy=OVER_ONE)
def test_no_jump_reference_matches_a_kraus_oracle(noisy):
    # the fault-free, jump-free state of trajectory_oracle against the reference, which is
    # _Trajectory.run on one quiet row. Uniforms of +inf insert no Pauli, and take the no-jump
    # Kraus operator at each damping location (then the state is renormalised) even where
    # round-off puts the oracle's jump probability above 1
    amps, thresholds = sim._Trajectory(noisy).no_jump_reference()
    locations = locations_of(noisy)
    want, want_th, least = trajectory_oracle(noisy, np.full(len(locations), np.inf))
    # a branch that keeps almost none of its state renormalises round-off: whether its residue
    # is exactly zero depends on each kernel's order of summation
    assume(least > 1e-3)
    assert np.max(np.abs(amps - want), initial=0.0) < 1e-12
    assert len(thresholds) == len(locations)
    for ch, got, th in zip(locations, thresholds, want_th):
        if isinstance(ch, noise.PauliNoise):
            assert got == ch.p_total
        elif th == np.inf:
            assert got == np.inf
        else:
            assert abs(got - th) < 1e-12 and got <= ch.gamma


def plain_1q(row, mat, qubit):
    """mat @ (a0, a1) on one row's half-planes, written as plain array expressions."""
    a0, a1 = row.reshape(2**qubit, 2, -1)[:, 0], row.reshape(2**qubit, 2, -1)[:, 1]
    t = mat[0, 0] * a0 + mat[0, 1] * a1
    a1[...] = mat[1, 0] * a0 + mat[1, 1] * a1
    a0[...] = t


def test_one_qubit_kernel_equals_the_plain_products():
    # the batched kernel on each row equals mat @ (a0, a1) written as plain
    # array expressions on that row alone, bit for bit: one matrix for every row,
    # or a (B, 2, 2) stack of one per row
    rng = np.random.default_rng(11)
    traj = sim._Trajectory(noise.noiseless(all_measured(1)))
    x_mat = np.array([[0.0, 1.0], [1.0, 0.0]])
    for n in range(1, 8):
        for qubit in range(n):
            mat = np.exp(1j * rng.uniform(-math.pi, math.pi, (2, 2))) * rng.uniform(0.1, 1.0, (2, 2))
            amps = rng.standard_normal((3, 2**n)) + 1j * rng.standard_normal((3, 2**n))
            want = amps.copy()
            traj._apply_1q(amps, mat, qubit)
            for row in want:
                plain_1q(row, mat, qubit)
            assert amps.tobytes() == want.tobytes()

            stack = np.exp(1j * rng.uniform(-math.pi, math.pi, (4, 2, 2))) * rng.uniform(0.1, 1.0, (4, 2, 2))
            amps = rng.standard_normal((4, 2**n)) + 1j * rng.standard_normal((4, 2**n))
            want = amps.copy()
            traj._apply_1q(amps, stack, qubit)
            for row, m in zip(want, stack):
                plain_1q(row, m, qubit)
            assert amps.tobytes() == want.tobytes()

            # a frame-flipped rotation: R[::-1, ::-1] on a row is X, then R, then X
            for kind in qcore.PARAMETRIC_KINDS:
                rot = make_gate(kind, [qubit], rng.uniform(-math.pi, math.pi)).matrix()
                amps = rng.standard_normal((2, 2**n)) + 1j * rng.standard_normal((2, 2**n))
                want = amps.copy()
                traj._apply_1q(amps, np.stack([rot, rot[::-1, ::-1]]), qubit)
                plain_1q(want[0], rot, qubit)
                for m in (x_mat, rot, x_mat):
                    plain_1q(want[1], m, qubit)
                assert amps.tobytes() == want.tobytes()

            # diag(1, s), a damping no-jump, Z or S, only scales a1: |a|^2 is the plain products'
            # bit for bit, and a0 keeps its bytes, a -0.0 too, which 1 * a0 + 0 * a1 turns to +0.0.
            # RZ, diagonal with [0, 0] != 1, takes the general route: the plain products' bytes.
            no_jump = np.diag([1.0, math.sqrt(1.0 - rng.uniform())])
            rz = make_gate("RZ", [qubit], rng.uniform(-math.pi, math.pi)).matrix()
            for mat in (no_jump, qcore.PAULI_Z, make_gate("S", [qubit], None).matrix(), rz):
                amps = rng.standard_normal((3, 2**n)) + 1j * rng.standard_normal((3, 2**n))
                amps[:, 0] = complex(-0.0, -0.0)  # index 0 is in the a0 half-plane of every qubit
                want, a0 = amps.copy(), sim._half_planes(amps, qubit)[0].copy()
                traj._apply_1q(amps, mat, qubit)
                for row in want:
                    plain_1q(row, mat, qubit)
                if mat is rz:
                    assert amps.tobytes() == want.tobytes()
                else:
                    assert (np.abs(amps) ** 2).tobytes() == (np.abs(want) ** 2).tobytes()
                    assert sim._half_planes(amps, qubit)[0].tobytes() == a0.tobytes()
                    assert sim._half_planes(want, qubit)[0].tobytes() != a0.tobytes()


def test_faulty_passes_stay_within_the_amplitude_budget(monkeypatch):
    # a rotation on every qubit, so that the faulty shots fall into many flip patterns
    n = 10
    ops = tuple(qcore.h(q) for q in range(n)) + tuple(qcore.cnot(q, q + 1) for q in range(n - 1))
    ops += tuple(qcore.ry(0.1 + 0.2 * q, q) for q in range(n))
    circ = Circuit(n, ops + all_measured(n).ops, (ROLE_DATA,) * n)
    noisy = noise.attach_noise(circ, DepolarizingParams(p2=0.2, p1=0.05))
    rows = []
    run = sim._Trajectory.run

    def recording_run(self, codes, frames, thresholds=None):
        if thresholds is None:  # a faulty pass, not the no-jump reference
            rows.append(codes.shape[0])
        return run(self, codes, frames, thresholds)

    monkeypatch.setattr(sim._Trajectory, "run", recording_run)
    table = sample_shots(noisy, TrajectoryConfig(1500, seed=9))
    assert table.n_shots == 1500
    assert max(rows) == max(1, 2**14 >> n)  # the budget binds, and is never exceeded


PARTITION_NOISY = noise.attach_noise(ENCODED, DepolarizingParams(p2=0.01))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**63 - 1),
    chunk_bytes=st.integers(1, 2**14),
    pass_amps=st.sampled_from((1, 2**7, 2**10)),
)
def test_seed_determinism_and_partition_invariance(seed, chunk_bytes, pass_amps):
    # a seed fixes the table, and faulty shots split into chunks of any size, with their
    # histories evolved in passes of any size, move no count
    n_shots = 600
    whole = sample_shots(PARTITION_NOISY, TrajectoryConfig(n_shots, seed=seed))
    again = sample_shots(PARTITION_NOISY, TrajectoryConfig(n_shots, seed=seed))
    with mock.patch.object(sim, "_CHUNK_BYTES", chunk_bytes), mock.patch.object(sim, "_PASS_AMPS", pass_amps):
        split = sample_shots(PARTITION_NOISY, TrajectoryConfig(n_shots, seed=seed))
    for table in (again, split):
        assert list(table.counts.items()) == list(whole.counts.items())
    different = sample_shots(PARTITION_NOISY, TrajectoryConfig(n_shots, seed=seed ^ 1))
    assert different.counts != whole.counts


def test_a2_branch_frequency_is_binomial_half():
    n_shots = 200000
    circ = builders.build_encoded_ansatz(-0.22967, "Z")
    table = sample_shots(noise.noiseless(circ), TrajectoryConfig(n_shots, seed=4))
    pos = table.layout.position_of_role(qcore.ROLE_A2)
    frac = sum(v for k, v in table.counts.items() if k[pos] == "0") / n_shots
    assert abs(frac - 0.5) < 5 * math.sqrt(0.25 / n_shots)


@pytest.mark.parametrize("p2", [0.0, 0.001, 0.01])
@pytest.mark.parametrize(
    "build",
    [
        lambda: builders.build_unencoded_ansatz(-0.22967, "Z"),
        lambda: builders.build_unencoded_ansatz(-0.22967, "X"),
        lambda: builders.build_state_prep_422(True),
        lambda: builders.build_encoded_ansatz(-0.22967, "Z"),
    ],
)
def test_backend_agreement_on_builder_circuits(p2, build):
    circ = build()
    nc = noise.attach_noise(circ, DepolarizingParams(p2=p2))
    n_shots = 20000
    table = sample_shots(nc, TrajectoryConfig(n_shots, seed=17))
    probs = born_distribution(evolve_density(nc))
    bound = 5 * math.sqrt(len(probs) / n_shots)
    assert tvd(probs, empirical(table)) < bound


def test_trajectories_match_density_under_device_model():
    model = noise.default_device_model()
    nc = noise.attach_noise(builders.build_encoded_ansatz(-0.22967, "Z"), model)
    n_shots = 50000
    table = sample_shots(nc, TrajectoryConfig(n_shots, seed=23))
    probs = born_distribution(evolve_density(nc), model.readout)
    bound = 5 * math.sqrt(len(probs) / n_shots)
    assert tvd(probs, empirical(table)) < bound


def test_trajectory_qubit_cap(monkeypatch):
    def zero(self, n_rows):
        pytest.fail(f"allocated {n_rows} statevectors of {self.n} qubits")

    monkeypatch.setattr(sim._Trajectory, "_zero", zero)  # every row the trajectory evolves starts here
    with pytest.raises(ValueError, match="capped"):
        sample_shots(
            noise.noiseless(all_measured(sim.TRAJECTORY_QUBIT_CAP + 1)), TrajectoryConfig(10, seed=0)
        )


def random_gate_circuit(rng, n: int) -> Circuit:
    """Every unitary kind, twice each, on random qubits; a two-qubit kind
    appears with its control both below and above its target."""
    kinds = [(k, False) for k in qcore.UNITARY_1Q_KINDS]
    kinds = 2 * (kinds + [(k, up) for k in qcore.UNITARY_2Q_KINDS for up in (False, True)])
    rng.shuffle(kinds)
    ops = []
    for kind, up in kinds:
        if kind in qcore.UNITARY_2Q_KINDS:
            lo, hi = sorted(int(v) for v in rng.choice(n, size=2, replace=False))
            qubits = (lo, hi) if up else (hi, lo)
        else:
            qubits = (int(rng.integers(n)),)
        ops.append(make_gate(kind, qubits, float(rng.uniform(-math.pi, math.pi))))
    return Circuit(n, tuple(ops) + all_measured(n).ops, (ROLE_DATA,) * n)


@pytest.mark.parametrize("kind", UNITARY_KINDS)
def test_random_circuit_generators_draw_every_unitary_kind(kind):
    def has(circ):
        return kind in {op.kind for op in circ.ops}

    # fixed examples (derandomized): found is enough, so no shrinking
    search = settings(database=None, phases=[Phase.generate], derandomize=True)
    find(noisy_circuits(), lambda case: has(case[0].circuit), settings=search)
    find(sampled_circuits(), lambda noisy: has(noisy.circuit), settings=search)
    assert has(random_gate_circuit(np.random.default_rng(0), 3))


@pytest.mark.parametrize("seed", range(4))
def test_trajectory_gate_kernels_match_density_on_random_circuits(seed):
    nc = noise.noiseless(random_gate_circuit(np.random.default_rng(seed), 3))
    n_shots = 20000
    table = sample_shots(nc, TrajectoryConfig(n_shots, seed=seed))
    probs = born_distribution(evolve_density(nc))
    bound = 5 * math.sqrt(len(probs) / n_shots)
    assert tvd(probs, empirical(table)) < bound


# ---------------------------------------------------------------------------
# exact readout-encoding model
# ---------------------------------------------------------------------------


def _flip(dist: np.ndarray, bit: int, p_up: float, p_down: float) -> np.ndarray:
    """Asymmetric flip of one bit of a little-endian joint distribution (q + 2k + 4l).

    The bit goes 0 -> 1 with probability p_up and 1 -> 0 with p_down; a
    symmetric flip is (alpha, alpha), amplitude damping is (0, gamma).
    """
    states = np.arange(dist.size)
    moved = np.where((states >> bit) & 1, p_down, p_up) * dist
    return dist - moved + moved[states ^ (1 << bit)]


def red_vote_chain(model: noise.DeviceModel) -> np.ndarray:
    """Closed-form vote kernel of the readout gadget, written out by hand.

    Init flips pre-flip the two fresh ancillas; each copy-CNOT's depolarizing
    X/Y weight flips both of its bits and its emission weight damps them;
    readout flips act on all three reads.
    """
    r2, p2 = model.emission_ratio_2q, model.depol.p2
    flip, gamma = 2.0 * (1.0 - r2) * p2 / 3.0, r2 * p2
    kernel = np.zeros((2, 2))
    for b in (0, 1):
        dist = np.zeros(8)
        dist[b] = 1.0
        for anc in (1, 2):
            dist = _flip(dist, anc, model.p_init, model.p_init)
        for anc in (1, 2):
            dist = dist[[s ^ (1 << anc) if s & 1 else s for s in range(8)]]  # CNOT q -> anc
            for pos in (0, anc):
                dist = _flip(dist, pos, flip, flip)
                dist = _flip(dist, pos, 0.0, gamma)
        for pos in (0, 1, 2):
            dist = _flip(dist, pos, model.readout.p_flip0, model.readout.p_flip1)
        kernel[:, b] = dist[0b000], dist[0b111]
    return kernel


RATE = st.floats(0.0, 1.0)
DEVICE_MODELS = st.builds(
    lambda p1, p2, f0, f1, p_init, r1, r2: noise.DeviceModel(
        DepolarizingParams(p2=p2, p1=p1), ReadoutParams(f0, f1),
        p_init=p_init, emission_ratio_1q=r1, emission_ratio_2q=r2,
    ),
    RATE, RATE, RATE, RATE, RATE, RATE, RATE,
)


@settings(max_examples=60, deadline=None)
@given(model=DEVICE_MODELS)
def test_red_kernel_matches_closed_form_chain(model):
    kern = red_vote_kernel_for(model)
    assert np.max(np.abs(kern - red_vote_chain(model))) < 1e-12
    assert np.all(kern.sum(axis=0) <= 1.0 + 1e-12)


def test_red_kernel_noise_free_is_identity():
    kern = red_vote_kernel()
    assert np.allclose(kern, np.eye(2))


def test_red_kernel_readout_only_survival():
    ro = ReadoutParams(p_flip0=1e-3, p_flip1=4e-3)
    kern = red_vote_kernel(readout=ro)
    # clean triple: unanimous-and-correct needs no flips, unanimous-and-wrong all three
    assert kern[0, 0] == pytest.approx((1 - 1e-3) ** 3, abs=1e-15)
    assert kern[1, 1] == pytest.approx((1 - 4e-3) ** 3, abs=1e-15)
    assert kern[1, 0] == pytest.approx(1e-3**3, abs=1e-18)
    assert kern[0, 1] == pytest.approx(4e-3**3, abs=1e-15)


def test_red_kernel_keeps_entries_below_the_distribution_cutoff():
    ro = ReadoutParams(p_flip0=1e-6, p_flip1=1e-6)
    assert red_vote_kernel(readout=ro)[1, 0] == pytest.approx(1e-18, rel=1e-6)
    # the bitstring map still drops such outcomes
    assert "111" not in born_distribution(qcore.StateVector(3, [1] + [0] * 7).outer(), ro)


def test_red_vote_distribution_matches_trajectory_vote():
    model = noise.default_device_model()
    base = builders.build_encoded_ansatz(-0.22967, "Z")
    n_shots = 30000
    raw = sample_shots(noise.attach_noise(builders.wrap_with_red(base), model), TrajectoryConfig(n_shots, seed=31))
    voted, stats = red_vote(raw)
    probs6 = born_distribution(evolve_density(noise.attach_noise(base, model)))
    filt, eta = red_vote_distribution(probs6, red_vote_kernel_for(model))
    assert stats.eta == pytest.approx(eta, abs=5 * math.sqrt(eta * (1 - eta) / n_shots))
    bound = 5 * math.sqrt(len(filt) / stats.n_after)
    assert tvd(filt, {k: v / stats.n_after for k, v in voted.counts.items()}) < bound


def test_sampled_vote_channel_matches_exact_vote():
    # the sampler reads each bit through the vote kernel and drops failed votes
    kernel = red_vote_kernel_for(DEVICE)
    nc = noise.attach_noise(ENCODED, DEVICE)
    n_shots = 50000
    table = sample_shots(with_readout(nc, kernel), TrajectoryConfig(n_shots, seed=37))
    probs, eta = red_vote_distribution(born_distribution(evolve_density(nc)), kernel)
    assert table.n_shots / n_shots == pytest.approx(eta, abs=5 * math.sqrt(eta * (1 - eta) / n_shots))
    bound = 5 * math.sqrt(len(probs) / table.n_shots)
    assert tvd(probs, empirical(table)) < bound


def test_lossless_kernel_never_drops():
    # (1 - p) + p rounds to exactly 1.0, above every draw (at most 1 - 2^-53)
    rng = np.random.default_rng(0)
    rates = np.concatenate([rng.random(20000), rng.random(2000) * 1e-6, [0.0, 2**-53, 0.5, 1.0]])
    for p, q in zip(rates, np.roll(rates, 1)):
        assert ReadoutParams(p, q).kernel.sum(axis=0).tolist() == [1.0, 1.0]
    nc = noise.attach_noise(ENCODED, DEVICE)
    assert sample_shots(nc, TrajectoryConfig(3000, seed=3)).n_shots == 3000
