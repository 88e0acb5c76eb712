import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qedvqe import builders, noise, qcore, sim
from qedvqe.noise import (
    DampingNoise,
    DepolarizingParams,
    DeviceModel,
    PauliNoise,
    ReadoutParams,
    attach_grid,
    attach_noise,
    default_device_model,
    device_model_from_config,
    noiseless,
)


def test_depolarizing_linkage_and_bounds():
    p = DepolarizingParams(p2=0.01)
    assert p.p1 == pytest.approx(0.001)
    assert DepolarizingParams(p2=0.01, p1=0.05).p1 == 0.05
    with pytest.raises(ValueError):
        DepolarizingParams(p2=1.5)
    for p2 in (20.0, -0.01):  # p1 = p2 / 10 is derived from p2, so the error names p2, the key set
        with pytest.raises(ValueError, match="p2 must"):
            DepolarizingParams(p2=p2)
    with pytest.raises(ValueError):
        ReadoutParams(-0.1, 0.0)


RATE = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def pauli_rates(draw):
    """(p_x, p_y, p_z), each in [0, 1] with p_total at most 1, in any order; 0, 1 and a
    p_total of exactly 1 included."""
    p_x = draw(RATE)
    p_y = draw(st.one_of(st.just(1.0 - p_x), st.floats(0.0, 1.0 - p_x)))
    p_z = draw(st.one_of(st.just(1.0 - p_x - p_y), st.floats(0.0, 1.0 - p_x - p_y)))
    rates = draw(st.permutations((p_x, p_y, p_z)))
    # a sum rounded above 1 is not a channel; checked in the order PauliNoise sums, as
    # reordering three floats can round their sum across 1
    assume(rates[0] + rates[1] + rates[2] <= 1.0)
    return rates


@settings(max_examples=200, deadline=None)
@given(pauli_rates(), RATE)
def test_every_channel_kraus_set_is_complete(rates, gamma):
    for channel in (PauliNoise(0, *rates), DampingNoise(0, gamma)):
        total = sum(k.conj().T @ k for k in channel.kraus)
        assert np.max(np.abs(total - np.eye(2))) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(st.lists(pauli_rates(), min_size=1, max_size=8), st.lists(RATE, min_size=1, max_size=8))
def test_rate_built_superoperator_stacks_match_kraus_and_each_channel_alone(pauli, gammas):
    # each item is its Kraus sum to rounding, real, and its bytes do not depend on the rest of
    # the stack, so a circuit evolved alone or in any stack of circuits keeps its bytes
    for channels in ([PauliNoise(0, *r) for r in pauli], [DampingNoise(1, g) for g in gammas]):
        cls = type(channels[0])
        stack = cls.superoperators(*map(np.array, zip(*(ch.rates for ch in channels))))
        assert stack.shape == (len(channels), 4, 4) and stack.dtype == float
        for ch, sup in zip(channels, stack):
            assert np.max(np.abs(sup - qcore.superoperator(ch.kraus))) <= 1e-15
            assert sup.tobytes() == cls.superoperators(*(np.array([rate]) for rate in ch.rates))[0].tobytes()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(
    st.one_of(st.sampled_from([0.0, 1e-323, 0.01]), st.floats(0.0, 0.5)),  # p2; p1 = p2/10 underflows at 1e-323
    st.sampled_from([0.0, 0.43, 1.0]),  # emission ratio, both gate classes
    st.sampled_from([0.0, 3.62e-5]),  # init flips
), min_size=1, max_size=12))
def test_attach_grid_attaches_once_per_run_and_rows_are_each_points_rates(points):
    # one attachment per run of consecutive points that attach the same channels (p2 = 0 and
    # no init flips attach none), and each point's row is, bit for bit, the rates of the
    # channels attach_noise gives its own model, in the order evolve_densities reads them.
    # attach_noise is the grid's one-point case, so this checks the runs and the gather by
    # column; test_attachment_follows_the_rule_written_out checks the rule itself
    models = [
        DeviceModel(DepolarizingParams(p2=p2), p_init=p_init, emission_ratio_1q=ratio, emission_ratio_2q=ratio)
        for p2, ratio, p_init in points
    ]
    circuit = builders.build_encoded_ansatz(0.3, "Z")
    alone = [attach_noise(circuit, m) for m in models]
    start = 0
    for noisy, rates in attach_grid(circuit, models):
        assert sim.density_layout(noisy) == sim.density_layout(alone[start])
        for row, other in zip(rates, alone[start:start + len(rates)]):
            assert sim.density_layout(other) == sim.density_layout(noisy)
            assert row.tobytes() == np.array([r for ch in sim._channels(other) for r in ch.rates], float).tobytes()
        start += len(rates)
        if start < len(alone):  # a run ends where the next point attaches other channels
            assert sim.density_layout(alone[start]) != sim.density_layout(noisy)
    assert start == len(models)


PROB = st.one_of(st.sampled_from([0.0, 1e-323, 0.01, 1.0]), st.floats(0.0, 1.0))


@st.composite
def noise_models(draw):
    """DepolarizingParams with p1 derived or set (p1 = 0 < p2 and p2 = 0 < p1 included), or a
    DeviceModel of them with independent emission ratios and init flips."""
    depol = DepolarizingParams(p2=draw(PROB), p1=draw(st.one_of(st.none(), PROB)))
    if draw(st.booleans()):
        return depol
    return DeviceModel(depol, p_init=draw(PROB), emission_ratio_1q=draw(PROB), emission_ratio_2q=draw(PROB))


def rule_written_out(circuit, model):
    """The channels the data-sheet rule gives circuit under model, as (type, qubit, rates) per
    slot, init flips first: p_init as an X flip on every qubit, and after each gate, on each of
    its qubits, p (1 - r) / 3.0 per Pauli and p r of damping, p and r being the gate class's
    error weight and emission ratio; a channel of weight 0 is not attached."""
    if isinstance(model, DepolarizingParams):
        model = DeviceModel(model)
    p_init = model.p_init
    gate_class = {1: (model.depol.p1, model.emission_ratio_1q), 2: (model.depol.p2, model.emission_ratio_2q)}
    slots = [[(PauliNoise, q, (p_init, 0.0, 0.0)) for q in range(circuit.n_qubits)] if p_init > 0.0 else []]
    for op in circuit.ops:
        slot = []
        for q in op.qubits if op.is_unitary else ():
            p, r = gate_class[len(op.qubits)]
            if p * (1.0 - r) > 0.0:
                slot.append((PauliNoise, q, (p * (1.0 - r) / 3.0,) * 3))
            if p * r > 0.0:
                slot.append((DampingNoise, q, (p * r,)))
        slots.append(slot)
    return slots


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["encoded", "unencoded"]), st.lists(noise_models(), min_size=1, max_size=8))
@example("encoded", [DepolarizingParams(p2=0.01, p1=0.0), DeviceModel(DepolarizingParams(p2=0.0, p1=0.02))])
@example("unencoded", [DeviceModel(DepolarizingParams(p2=0.02, p1=0.001), p_init=1e-5,
                                   emission_ratio_1q=0.54, emission_ratio_2q=0.43), DepolarizingParams(p2=0.02)])
def test_attachment_follows_the_rule_written_out(which, models):
    # an oracle apart from noise's own rule: attach_noise's channels and every attach_grid row
    # hold, bit for bit, the rates the rule written out above gives each point's model
    circuit = (builders.build_encoded_ansatz if which == "encoded" else builders.build_unencoded_ansatz)(0.3, "Z")
    want = [rule_written_out(circuit, m) for m in models]
    for model, slots in zip(models, want):
        nc = attach_noise(circuit, model)
        got = [[(type(ch), ch.qubit, ch.rates) for ch in slot] for slot in (nc.pre_channels,) + nc.channels]
        assert repr(got) == repr(slots)  # repr tells every float bit apart, and -0.0 from 0.0
    start = 0
    for noisy, rates in attach_grid(circuit, models):
        for row, slots in zip(rates, want[start:start + len(rates)]):
            assert [[(cls, q) for cls, q, _ in slot] for slot in slots] == [
                [(type(ch), ch.qubit) for ch in slot] for slot in (noisy.pre_channels,) + noisy.channels
            ]
            assert row.tobytes() == np.array([r for slot in slots for *_, rs in slot for r in rs], float).tobytes()
        start += len(rates)
    assert start == len(models)


def test_an_empty_grid_attaches_nothing():
    # as sim.evolve_densities([]) yields nothing
    assert list(attach_grid(builders.build_encoded_ansatz(0.3, "Z"), [])) == []


@st.composite
def scalar_typed_models(draw):
    """A model of noise_models()' numbers with each field drawn as a Python float, an np.float64 or
    an np.float32 (p1 passed, or derived from such a p2), and the model of the same fields each
    passed through float."""
    model = draw(noise_models())
    device = model if isinstance(model, DeviceModel) else DeviceModel(model)
    names = ("p2", "p1", "p_flip0", "p_flip1", "p_init", "emission_ratio_1q", "emission_ratio_2q")
    numbers = (device.depol.p2, device.depol.p1, draw(PROB), draw(PROB), device.p_init,
               device.emission_ratio_1q, device.emission_ratio_2q)
    typed = dict(zip(names, (draw(st.sampled_from((float, np.float64, np.float32)))(x) for x in numbers)))
    if draw(st.booleans()):
        typed["p1"] = None

    def build(f):
        depol = DepolarizingParams(p2=f(typed["p2"]), p1=None if typed["p1"] is None else f(typed["p1"]))
        if isinstance(model, DepolarizingParams):
            return depol
        return DeviceModel(depol, ReadoutParams(f(typed["p_flip0"]), f(typed["p_flip1"])), p_init=f(typed["p_init"]),
                           emission_ratio_1q=f(typed["emission_ratio_1q"]), emission_ratio_2q=f(typed["emission_ratio_2q"]))

    return build(lambda x: x), build(float)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["encoded", "unencoded"]), st.lists(scalar_typed_models(), min_size=1, max_size=4))
@example("encoded", [(DepolarizingParams(p2=np.float64(0.01)), DepolarizingParams(p2=0.01))])
def test_numpy_scalar_rates_attach_as_their_floats(which, pairs):
    # a model's fields may be numpy scalars (a grid from np.geomspace): attach_noise and
    # attach_grid give the same channels, readout and rate rows, bit for bit, as the model of
    # their floats, and every rate is a Python float
    circuit = (builders.build_encoded_ansatz if which == "encoded" else builders.build_unencoded_ansatz)(0.3, "Z")
    for typed, floats in pairs:
        got, want = attach_noise(circuit, typed), attach_noise(circuit, floats)
        slots = [[[(type(ch), ch.qubit, ch.rates) for ch in slot] for slot in (nc.pre_channels,) + nc.channels]
                 for nc in (got, want)]
        assert repr(slots[0]) == repr(slots[1])  # repr tells every float bit apart
        assert all(type(r) is float for slot in slots[0] for *_, rates in slot for r in rates)
        assert got.readout.dtype == want.readout.dtype and got.readout.tobytes() == want.readout.tobytes()
    grids = [list(attach_grid(circuit, models)) for models in zip(*pairs)]
    assert [rates.tobytes() for _, rates in grids[0]] == [rates.tobytes() for _, rates in grids[1]]
    assert [repr((nc.pre_channels, nc.channels)) for nc, _ in grids[0]] == [
        repr((nc.pre_channels, nc.channels)) for nc, _ in grids[1]]


@pytest.mark.parametrize("cls, rates, field", [
    (PauliNoise, (0.5, 0.5, 0.5), "p_total"),
    (PauliNoise, (-0.1, 0.0, 0.0), "p_x"),
    (PauliNoise, (0.0, 1.5, 0.0), "p_y"),
    (PauliNoise, (0.0, 0.0, math.nan), "p_z"),
    (DampingNoise, (1.1,), "gamma"),
    (DampingNoise, (-0.5,), "gamma"),
], ids=["p_total", "p_x", "p_y", "p_z-nan", "gamma-high", "gamma-low"])
def test_channels_refuse_invalid_rates_on_both_backends(cls, rates, field):
    # the trajectory backend once sampled PauliNoise(0, .5, .5, .5) after an RY as a channel
    circ = qcore.Circuit(1, (qcore.ry(0.7, 0), qcore.measure(0)), (qcore.ROLE_DATA,))
    for run in (sim.evolve_density, lambda nc: sim.sample_shots(nc, sim.TrajectoryConfig(100))):
        with pytest.raises(ValueError, match=field):
            run(noise.NoisyCircuit(circ, ((cls(0, *rates),), ())))
    names = [f.name for f in dataclasses.fields(cls)[1:]]
    with pytest.raises(ValueError, match=field):  # nor can a valid channel be given them
        dataclasses.replace(cls(0, *(0.0 for _ in rates)), **dict(zip(names, rates)))


def test_attach_noise_zero_params_reproduces_noiseless_evolution():
    circ = builders.build_encoded_ansatz(0.7, "Z")
    rho_noisy = sim.evolve_density(attach_noise(circ, DepolarizingParams(p2=0.0)))
    rho_clean = sim.evolve_density(noiseless(circ))
    assert np.max(np.abs(rho_noisy.mat - rho_clean.mat)) < 1e-12


def test_attach_noise_channel_placement():
    circ = builders.build_unencoded_ansatz(0.2, "Z")
    nc = attach_noise(circ, DepolarizingParams(p2=0.01, p1=0.002))
    for op, slot in zip(circ.ops, nc.channels):
        if not op.is_unitary:
            assert slot == ()
        elif len(op.qubits) == 1:
            assert len(slot) == 1 and slot[0].p_total == pytest.approx(0.002)
            assert slot[0].qubit == op.qubits[0]
        else:
            assert [c.qubit for c in slot] == list(op.qubits)
            assert all(c.p_total == pytest.approx(0.01) for c in slot)
    first = {}
    for ch in (ch for slot in nc.channels for ch in slot):
        assert first.setdefault(ch, ch) is ch  # equal channels are one object, built once per call
    # where one- and two-qubit gates attach equal channels, a qubit's gates of both classes
    # share them: one object per qubit and channel type, damping (compared by identity) included
    equal = DeviceModel(DepolarizingParams(p2=0.01, p1=0.01), emission_ratio_1q=0.4, emission_ratio_2q=0.4)
    one = {}
    for op, slot in zip(circ.ops, attach_noise(circ, equal).channels):
        assert len(slot) == (2 * len(op.qubits) if op.is_unitary else 0)
        for ch in slot:
            assert one.setdefault((type(ch), ch.qubit), ch) is ch
    assert len(one) == 2 * circ.n_qubits


def test_attach_noise_reads_depolarizing_params_as_their_device_model():
    # DepolarizingParams attach as the DeviceModel of them alone: no damping, no init flips
    # and the identity read; a model of any other type is refused
    circ = builders.build_encoded_ansatz(0.3, "Z")
    params = DepolarizingParams(p2=0.02)
    nc, want = attach_noise(circ, params), attach_noise(circ, DeviceModel(params))
    assert nc.channels == want.channels and nc.pre_channels == want.pre_channels == ()
    assert not any(isinstance(ch, DampingNoise) for slot in nc.channels for ch in slot)
    assert np.array_equal(nc.readout, np.eye(2))
    with pytest.raises(TypeError, match="DepolarizingParams or DeviceModel"):
        attach_noise(circ, ReadoutParams())


@pytest.mark.parametrize("kernel", [
    [[math.nan, 0.0], [0.0, 1.0]],
    [[1.0, 0.0], [0.0, math.nan]],
    [[math.inf, 0.0], [0.0, 1.0]],
    [[1.0, -math.inf], [0.0, 1.0]],
    [[0.5, 0.0], [-0.1, 1.0]],
    [[0.6, 0.0], [0.5, 1.0]],
    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
], ids=["nan", "nan-last", "inf", "minus-inf", "negative", "column-over-one", "shape"])
def test_a_readout_kernel_must_be_finite_non_negative_and_lose_mass_only(kernel):
    # a NaN passed the array checks once, and shot_limit_table then gave NaN weights
    nc = attach_noise(builders.build_unencoded_ansatz(0.2, "Z"), DepolarizingParams(p2=0.01))
    with pytest.raises(ValueError, match="readout must be a finite 2x2 kernel"):
        dataclasses.replace(nc, readout=np.array(kernel))
    lossy = dataclasses.replace(nc, readout=np.array([[0.6, 0.1], [0.2, 0.5]]))  # column sums below 1
    assert lossy.readout.tolist() == [[0.6, 0.1], [0.2, 0.5]]


def test_device_model_emission_split_and_init():
    model = DeviceModel(
        depol=DepolarizingParams(p2=1e-3, p1=1e-4),
        readout=ReadoutParams(1e-3, 4e-3),
        p_init=1e-5,
        emission_ratio_1q=0.5,
        emission_ratio_2q=0.4,
    )
    circ = builders.build_unencoded_ansatz(0.2, "Z")
    nc = attach_noise(circ, model)
    assert len(nc.pre_channels) == circ.n_qubits
    assert all(ch.p_x == pytest.approx(1e-5) and ch.p_y == 0 for ch in nc.pre_channels)
    slot = nc.channels[2]  # first CNOT
    kinds = [type(c) for c in slot]
    assert kinds == [PauliNoise, DampingNoise, PauliNoise, DampingNoise]
    assert slot[0].p_total == pytest.approx(0.6e-3)
    assert slot[1].gamma == pytest.approx(0.4e-3)
    assert np.array_equal(nc.readout, model.readout.kernel)
    assert np.array_equal(nc.readout, [[1 - 1e-3, 4e-3], [1e-3, 1 - 4e-3]])


def test_fault_average_reproduces_channel_density():
    """Brute-force oracle: exhaustive Pauli-insertion average == channel evolution."""
    circ = builders.build_unencoded_ansatz(0.9, "Z")
    model = DepolarizingParams(p2=0.01, p1=0.0)
    nc = attach_noise(circ, model)
    locations = [(i, ch) for i, slot in enumerate(nc.channels) for ch in slot]
    paulis = {"I": np.eye(2, dtype=complex), "X": qcore.PAULI_X, "Y": qcore.PAULI_Y, "Z": qcore.PAULI_Z}

    def weights(ch):
        return {"I": 1 - ch.p_total, "X": ch.p_x, "Y": ch.p_y, "Z": ch.p_z}

    n = circ.n_qubits
    avg = np.zeros((2**n, 2**n), dtype=complex)
    choices = [list(weights(ch).items()) for _, ch in locations]
    import itertools

    for combo in itertools.product(*choices):
        w = math.prod(c[1] for c in combo)
        if w == 0.0:
            continue
        amps = qcore.StateVector.zero(n).amps
        k = 0
        for i, op in enumerate(circ.ops):
            if op.is_unitary:
                amps = qcore.apply_matrix(amps, op.matrix(), op.qubits)
            while k < len(locations) and locations[k][0] == i:
                name = combo[k][0]
                amps = qcore.apply_matrix(amps, paulis[name], (locations[k][1].qubit,))
                k += 1
        avg += w * np.outer(amps, amps.conj())
    rho = sim.evolve_density(nc)
    assert np.max(np.abs(avg - rho.mat)) < 1e-10


def test_fidelity_degrades_monotonically_with_noise():
    from qedvqe import analysis

    ideal = builders.unencoded_target_state(-0.22967).outer()
    fids = []
    for p2 in (0.0, 0.002, 0.01, 0.03, 0.08):
        rho = sim.evolve_density(attach_noise(builders.build_unencoded_ansatz(-0.22967, "Z"), DepolarizingParams(p2=p2)))
        fids.append(analysis.fidelity(ideal, rho))
    assert all(a >= b - 1e-12 for a, b in zip(fids, fids[1:]))


def test_readout_flip_probability_structure():
    # theta = pi -> |11>; independent flips give P(11) = (1 - p_flip1)^2
    circ = builders.build_unencoded_ansatz(math.pi, "Z")
    rho = sim.evolve_density(noiseless(circ))
    probs = sim.born_distribution(rho, ReadoutParams(p_flip0=1e-3, p_flip1=4e-3))
    assert probs["11"] == pytest.approx((1 - 4e-3) ** 2, abs=1e-12)
    assert probs["11"] == pytest.approx(0.992016, abs=1e-12)


def test_device_config_echoes_datasheet_values():
    model = default_device_model()
    assert model.depol.p2 == pytest.approx(8.8e-4)
    assert model.depol.p1 == pytest.approx(2.1e-5)
    assert model.readout.p_flip1 == pytest.approx(4.0e-3)
    assert model.emission_ratio_1q == pytest.approx(0.54)
    assert model.p_init == pytest.approx(3.62e-5)


def test_device_config_unknown_key_warns_but_loads():
    cfg = dict(noise.H11E_PARAMS)
    cfg["Qubit Teleportation Whimsy"] = 0.1
    with pytest.warns(UserWarning, match="Whimsy"):
        model = device_model_from_config(cfg)
    assert model.depol.p2 == pytest.approx(8.8e-4)
    assert model == default_device_model()


def test_crosstalk_placeholders_logged_not_simulated(caplog):
    import logging

    model = default_device_model()
    circ = builders.build_unencoded_ansatz(0.1, "Z")
    with caplog.at_level(logging.INFO, logger="qedvqe.noise"):
        nc = attach_noise(circ, model)
    assert any("crosstalk" in rec.message for rec in caplog.records)
    # no channel carries the crosstalk rates
    rates = {c.p_total for slot in nc.channels for c in slot if isinstance(c, PauliNoise)}
    assert model.crosstalk_meas not in rates
