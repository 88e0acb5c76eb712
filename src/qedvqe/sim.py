"""Execution backends: exact density-matrix evolution and stochastic trajectories.

The trajectory backend unravels each attached channel into stochastic Pauli
insertions plus jump/no-jump amplitude-damping branches on statevectors, so
it reaches registers (up to TRAJECTORY_QUBIT_CAP qubits) that the density
backend cannot. A circuit's shots split into the fault-free ones, whose read outcomes are one
multinomial draw from the no-jump reference, and the faulty ones, each resolved from the fault it
draws first (_first_fault_codes). The Pauli faults after the last damping location, the tail, act
as Pauli frames: an outcome mask, and a sign flip of the rotations they anticommute with. A tail
fault is an integer index into its location's frames; only the head has float codes. One sort of
the faulty shots' keys groups them by (head codes, rotation-flip pattern), and one state is evolved
per group, as a row of one (B, 2^n) statevector array; without damping, the no-jump reference is
the quiet, zero-frame row of the first such pass. Each drawn quantity reads words
of its own SplitMix64 counter stream (splitmix), any word of which is computed
directly, so no chunk or pass size moves a count (sample_shots).
Both backends read measured bits through the circuit's per-bit read kernel,
by one rule for every Born vector (_read_measured: the read, then the mass the
kernel drops); fault-free shots draw from the reference's read weights, and a
faulty shot inverts one uniform on its own state's. The readout-encoding
gadget is such a kernel (red_vote_kernel_for), so a readout-encoded run
samples the 2- or 6-qubit circuit it encodes. Both return
the read as a ShotTable, one weight vector by outcome index (shot counts, or
probabilities from shot_limit_table); bitstrings appear only in dict adapters.
"""
from __future__ import annotations

import functools
from types import MappingProxyType

import numpy as np

from .builders import wrap_with_red
from .noise import (
    DepolarizingParams,
    DeviceModel,
    NoisyCircuit,
    PauliNoise,
    ReadoutParams,
    attach_noise,
)
from .qcore import (
    PARAMETRIC_KINDS,
    ROLE_DATA,
    Circuit,
    DensityMatrix,
    Gate,
    Record,
    apply_matrix,
    apply_superoperator,
    bitstring,
    measure,
    superoperator,
    x,
)

DENSITY_QUBIT_CAP = 12
TRAJECTORY_QUBIT_CAP = 20
# Faulty shots are drawn and evolved in chunks of at most _CHUNK_BYTES of uniforms (one chunk
# at defaults), and their states and cdfs in passes of at most _PASS_AMPS amplitudes (B rows of
# 2^n: 256 at 6 qubits, one from 14 qubits up); neither size moves a count.
_CHUNK_BYTES = 2**23
_PASS_AMPS = 2**14
# The density entries of one evolve_densities stack: 2 states at 6 qubits, 512 at 2.
# Slots are fused once for a group of whole stacks, at least _GROUP_CIRCUITS states (16
# stacks at 6 qubits); a group of more stacks than one holds its fused slots. Draining the
# 60-point encoded grid, attached once, peaks at 0.77 MB traced (0.45 in groups of 8, 1.17 in
# one of 64; the tests allow 1.5). In process with the planned pair orders (2-vCPU shared
# host, BLAS at one thread, minima of 31 runs in 5 alternating rounds), the exact-density
# configs took 26.2-27.2 ms in groups of 8, 24.5-25.3 in 16, 23.4-24.7 in 32 and 23.1-24.1 in
# one of 64: 32 keeps most of that, with two thirds of the held slots. The stack size was
# measured in groups of 8: 2^12 and 2^15 entries were slower, and 2^16 held 2.59 MB.
_STACK_AMPS = 2**13
_GROUP_CIRCUITS = 32


class MeasurementLayout(Record, value=True):
    """Measured qubits in ascending index order, with their roles."""

    __slots__ = ("qubits", "roles")

    def __init__(self, qubits: tuple[int, ...], roles: tuple[str, ...]):
        object.__setattr__(self, "qubits", qubits)
        object.__setattr__(self, "roles", roles)

    @classmethod
    def of(cls, circuit: Circuit) -> "MeasurementLayout":
        measured = circuit.measured_qubits
        return cls(measured, tuple(circuit.roles[q] for q in measured))

    def positions_of_role(self, role: str) -> tuple[int, ...]:
        return tuple(i for i, r in enumerate(self.roles) if r == role)

    def position_of_role(self, role: str) -> int:
        pos = self.positions_of_role(role)
        if len(pos) != 1:
            raise ValueError(f"layout has {len(pos)} qubits of role {role!r}")
        return pos[0]

    @functools.lru_cache(maxsize=64)
    def parity(self, positions: tuple) -> np.ndarray:
        """The XOR of the bits at these positions of each outcome index, 0 or 1 by index; cached, so read-only."""
        m = len(self.qubits)
        out = np.bitwise_count(np.arange(1 << m) & sum(1 << (m - 1 - p) for p in positions)) & 1
        out.setflags(write=False)
        return out


class ShotTable(Record):
    """Weights by outcome index over the measured qubits, the first measured qubit the most
    significant bit: integer weights are shot counts, float ones probabilities (shot_limit_table)."""

    __slots__ = ("weights", "layout")

    def __init__(self, weights: np.ndarray, layout: MeasurementLayout):
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "layout", layout)
        if weights.shape != (1 << len(layout.qubits),):
            raise ValueError("weights must hold one entry per outcome of the measured qubits")

    @classmethod
    def of(cls, mapping: dict, layout: MeasurementLayout, dtype=None) -> "ShotTable":
        """The table of a bitstring -> weight map; int weights stay shot counts."""
        return cls(_vector(mapping, len(layout.qubits), dtype), layout)

    @property
    def n_shots(self) -> int | float:
        return self.weights.sum().item()

    @property
    def counts(self):
        """A read-only bitstring -> weight map of the nonzero weights."""
        return MappingProxyType(_outcomes(self.weights))


class TrajectoryConfig(Record):
    """Shot count of one sample_shots call, and the seed of its random streams."""

    __slots__ = ("n_shots", "seed")

    def __init__(self, n_shots: int, seed: int = 0):
        object.__setattr__(self, "n_shots", n_shots)
        object.__setattr__(self, "seed", seed)
        if n_shots < 1:
            raise ValueError("n_shots must be >= 1")


# ---------------------------------------------------------------------------
# density backend
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1024)
def _superoperator(gate: Gate) -> np.ndarray:
    """A gate's superoperator, shared and so read-only; bounded, as every angle is a new gate.
    U (x) U* is real for every kind but RZ and S, and kept real, so that qcore.apply_matrix
    contracts it as a real matmul; the dtype goes by kind, so one layout's stacks share it."""
    out = superoperator((gate.matrix(),))
    if gate.kind not in ("RZ", "S"):
        out = out.real.copy()
    out.setflags(write=False)
    return out


def _stacked(gates) -> np.ndarray:
    """The superoperators of gates as one (P, 4^k, 4^k) stack from the cache; a gate that every
    circuit shares as (1, 4^k, 4^k), a view of its own, which the stack's states broadcast."""
    if all(gate == gates[0] for gate in gates[1:]):
        return _superoperator(gates[0])[None]
    return np.stack([_superoperator(gate) for gate in gates])


def _channels(noisy: NoisyCircuit) -> list:
    """The channels of a circuit in the order of their rate columns: init flips, then slot by slot."""
    return [ch for slot in (noisy.pre_channels,) + noisy.channels for ch in slot]


def density_layout(noisy: NoisyCircuit) -> tuple:
    """What the circuits of one evolve_densities call share: the register, each op's kind and
    qubits, and each slot's and the init flips' channel types and qubits; not angles or rates."""
    ops, slots = noisy.circuit.ops, (noisy.pre_channels,) + noisy.channels
    channels = [[(type(ch), ch.qubit) for ch in slot] for slot in slots]
    return noisy.circuit.n_qubits, [(op.kind, op.qubits) for op in ops], channels


def _path_order(pairs, n: int):
    """An order of the n qubits with each pair's qubits side by side, or None where the pairs
    allow none (a qubit with three neighbours, or a cycle): each path walked from an end."""
    near = [{b for a, b in pairs + [p[::-1] for p in pairs] if a == q} for q in range(n)]
    order = []
    for q in sorted(range(n), key=lambda q: len(near[q])):
        while q is not None and q not in order:
            order.append(q)
            q = next((r for r in near[q] if r not in order), None)
    return order if all(abs(order.index(a) - order.index(b)) == 1 for a, b in pairs) else None


def _pair_orders(layout) -> list:
    """(first op, order) per segment: the longest run of two-qubit gates, from its first, whose
    pairs fit one order (_path_order); the first holds from the start, |0..0><0..0| fitting any."""
    n, ops, _ = layout
    plan = [(0, [])]  # (first op, pairs) per segment
    for i, qubits in ((i, qubits) for i, (_, qubits) in enumerate(ops) if len(qubits) == 2):
        if _path_order(plan[-1][1] + [qubits], n) is None:
            plan.append((i, []))
        plan[-1][1].append(qubits)
    return [(cut, _path_order(pairs, n)) for cut, pairs in plan]


def _fused_steps(circuits, rates, plan):
    """The contractions of an evolve_densities group, in order, as (stack, positions) with one
    item per state or one for all: each init flip, then per slot a unitary gate fused with the
    slot's channels on its qubits (one superoperator), and each other channel on its own pair.
    Gates come from the circuits (_stacked), channels from their rate columns by their class
    (PauliNoise.superoperators, DampingNoise.superoperators). Positions, each an ascending run,
    are the plan's (_pair_orders): a gate on a descending pair is fused as U conjugated by the
    qubit exchange, and (None, axes) moves the stack (_moved) before a segment's first gate."""
    first, columns, orders, where = circuits[0], iter(rates.T), dict(plan[1:]), plan[0][1].index

    def stack(ch):
        return type(ch).superoperators(*(next(columns) for _ in ch.rates))

    for ch in first.pre_channels:
        yield stack(ch), (where(ch.qubit),)
    for i, (op, slot) in enumerate(zip(first.circuit.ops, first.channels)):
        if i in orders:
            yield None, [0, *(1 + 2 * where(q) + b for q in orders[i] for b in (0, 1))]
            where = orders[i].index
        stacks, rest = [stack(ch) for ch in slot], range(len(slot))
        if op.is_unitary:
            on, fused = op.qubits, _stacked([nc.circuit.ops[i] for nc in circuits])
            if len(on) == 2 and where(on[0]) > where(on[1]):  # as U on the exchanged pair
                on, fused = on[::-1], fused.reshape(-1, *(4,) * 4).transpose(0, 2, 1, 4, 3).reshape(-1, 16, 16)
            for j in (j for j in rest if slot[j].qubit in on):
                pair = on.index(slot[j].qubit)
                fused = apply_matrix(fused, stacks[j], (2 * pair, 2 * pair + 1))
            yield fused, tuple(map(where, on))
            rest = [j for j in rest if slot[j].qubit not in on]  # these commute with it and follow
        for j in rest:
            yield stacks[j], (where(slot[j].qubit),)


def _moved(rho: np.ndarray, axes) -> np.ndarray:
    """A stack of pair-adjacent densities moved into the next segment's qubit order: one copy."""
    return rho.reshape(len(rho), *(2,) * (len(axes) - 1)).transpose(axes).reshape(len(rho), -1)


def _items(seq, lo: int, hi: int):
    """Rows lo:hi of a sequence of one item per state; one item for all states is kept whole."""
    return seq if len(seq) == 1 else seq[lo:hi]


def evolve_densities(noisy_circuits, rates=None):
    """Yields, in order, each state's exact mixed state after all gates and channels, before
    measurement/readout. The circuits must share their density_layout (else a ValueError).
    rates is a (states, m) array of each state's channel rates in _channels order, as
    noise.attach_grid gives it (default: the circuits' own); circuits and rows hold one item
    per state or one for all. States are evolved in stacks of at most _STACK_AMPS density
    entries, one alive at a time, real until a complex stack comes, with one contraction per
    stack for each of _fused_steps. Those are built once for a group of whole stacks
    (_GROUP_CIRCUITS), and each stack reads its own rows of them. A stack is in pair-adjacent
    order (qcore.apply_superoperator) of a planned qubit order (_pair_orders), copied once into
    each later one; each state is gathered into (2^n, 2^n) as it is yielded."""
    noisy_circuits = list(noisy_circuits)
    if not noisy_circuits:
        return
    layout = density_layout(noisy_circuits[0])
    if any(density_layout(nc) != layout for nc in noisy_circuits[1:]):
        raise ValueError("circuits evolved as one stack must share their ops and their channels' types and qubits")
    n = layout[0]
    if n > DENSITY_QUBIT_CAP:
        raise ValueError(f"density backend capped at {DENSITY_QUBIT_CAP} qubits, got {n}")
    if rates is None:
        rates = np.array([[rate for ch in _channels(nc) for rate in ch.rates] for nc in noisy_circuits])
    count = max(len(noisy_circuits), len(rates))
    width = sum(len(ch.rates) for ch in _channels(noisy_circuits[0]))
    if rates.shape[1:] != (width,) or {len(noisy_circuits), len(rates)} - {1, count}:
        raise ValueError("rates must hold every channel's rates, in one row per state or one for all")
    per_stack = max(1, _STACK_AMPS >> 2 * n)
    per_group = per_stack * max(1, _GROUP_CIRCUITS // per_stack)
    plan = _pair_orders(layout)
    pos = np.argsort(plan[-1][1])  # each qubit's position in the last order, which states are gathered from
    standard = np.arange(4**n).reshape((2,) * 2 * n).transpose(np.r_[2 * pos, 2 * pos + 1]).ravel()
    for start in range(0, count, per_group):
        group = min(per_group, count - start)
        steps = _fused_steps(_items(noisy_circuits, start, start + group), _items(rates, start, start + group), plan)
        if group > per_stack:  # held, as every stack of the group reads each step
            steps = list(steps)
        for lo in range(0, group, per_stack):
            size = min(per_stack, group - lo)
            rho = DensityMatrix.zero(n).mat.real.reshape(1, -1).repeat(size, axis=0)
            for stack, at in steps:
                rho = _moved(rho, at) if stack is None else apply_superoperator(rho, _items(stack, lo, lo + size), at)
            for state in rho:  # gathered from pair-adjacent into (row bits, column bits) order
                mat = state[standard].reshape(2**n, 2**n)
                tr = np.trace(mat).real
                if abs(tr - 1.0) > 1e-10:
                    raise ValueError(f"evolved density trace drifted to {tr}")
                yield DensityMatrix(n, mat)


def evolve_density(noisy: NoisyCircuit) -> DensityMatrix:
    """The exact mixed state of one circuit, before measurement/readout (evolve_densities)."""
    return next(evolve_densities([noisy]))


def _read(probs: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """A distribution over basis-state indices, or a stack of them along a leading axis, each
    read through the per-bit kernel K[read, true] on every bit; a lossy kernel leaves less
    mass, never more."""
    if not np.array_equal(kernel, np.eye(2)):
        for q in range(probs.shape[-1].bit_length() - 1):
            probs = apply_matrix(probs, kernel if probs.ndim == 1 else kernel[None], (q,))
    if np.any(probs.sum(axis=-1) > 1.0 + 1e-10):
        raise ValueError("read kernel created probability mass")
    return probs


def _read_measured(probs: np.ndarray, circuit: Circuit, kernel: np.ndarray) -> np.ndarray:
    """The read weights of a distribution over the register's basis-state indices, or of a stack
    of them along a leading axis: each marginalised to the measured qubits (the first one the
    most significant bit) and read through the per-bit kernel, then the mass the kernel drops,
    exactly 0 when every kernel column sums to 1 and else what the read lost of the total."""
    n, lead, measured = circuit.n_qubits, probs.shape[:-1], circuit.measured_qubits
    unmeasured = tuple(len(lead) + q for q in range(n) if q not in measured)
    read = _read(probs.reshape(lead + (2,) * n).sum(axis=unmeasured).reshape(lead + (-1,)), kernel)
    lossless = np.all(kernel.sum(axis=0) == 1.0)
    dropped = np.zeros(lead) if lossless else np.maximum(probs.sum(axis=-1) - read.sum(axis=-1), 0.0)
    return np.concatenate([read, dropped[..., None]], axis=-1)


def _born(rho: DensityMatrix) -> np.ndarray:
    """The Born diagonal over basis-state indices, checked to sum to 1."""
    probs = np.clip(rho.diagonal(), 0.0, None)
    if abs(probs.sum() - 1.0) > 1e-10:
        raise ValueError("Born distribution does not sum to 1")
    return probs


def _outcomes(weights: np.ndarray) -> dict:
    """A weight vector by outcome index as bitstring -> weight, without weights at or below 1e-15."""
    n = weights.size.bit_length() - 1
    kept = np.flatnonzero(weights > 1e-15)
    return dict(zip((bitstring(int(i), n) for i in kept), weights[kept].tolist()))


def _vector(mapping: dict, n: int, dtype=None) -> np.ndarray:
    """A bitstring -> weight map over n bits as a weight vector by outcome index."""
    if any(len(key) != n for key in mapping):
        raise ValueError("bitstring length must match measured qubits")
    values = np.array(list(mapping.values()), dtype)
    weights = np.zeros(1 << n, values.dtype)
    weights[[int(key, 2) for key in mapping]] = values
    return weights


def born_distribution(rho: DensityMatrix, readout: ReadoutParams = ReadoutParams()) -> dict[str, float]:
    """Read-out probabilities by bitstring, without outcomes at or below 1e-15."""
    return _outcomes(_read(_born(rho), readout.kernel))


def shot_limit_table(noisy: NoisyCircuit) -> tuple[ShotTable, float]:
    """The infinite-shot limit of sample_shots and its raw total, the trace.

    The Born vector of evolve_density on the measured qubits, read through the
    circuit's read kernel, as probability weights; a lossy kernel keeps less
    than the raw total, and nothing is renormalized.
    """
    rho = evolve_density(noisy)
    read = _read_measured(_born(rho), noisy.circuit, noisy.readout)[:-1]
    return ShotTable(read, MeasurementLayout.of(noisy.circuit)), float(np.trace(rho.mat).real)


# ---------------------------------------------------------------------------
# trajectory backend
# ---------------------------------------------------------------------------


def _uniforms(words: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) from raw 64-bit words, the top 53 bits of each."""
    return (words >> np.uint64(11)) * 2.0**-53


def _stream(seed: int, family: int):
    """The stream of one drawn quantity: splitmix.stream(seed, family)."""
    from .splitmix import stream  # imported here, on the first draw: the density backend never samples

    return stream(seed, family)


def _binomial(n: np.ndarray, p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Binomial(n_i, p_i) draws by inversion of uniforms u_i in [0, 1): the least k with F(k) > u_i.

    n = 0 or p = 0 gives 0 and p = 1 gives n. Otherwise F sums the pmf over the window
    mode +- (12 sd + 30), clipped to [0, n], from the log ratios of successive terms, and is
    renormalised there: the mass outside the window (below 1e-32 for n up to 2e6) is far
    below 2^-53, the resolution of u. All draws share one table of their widest window.
    """
    k = np.where(p < 1.0, 0, n)
    live = np.flatnonzero((n > 0) & (p > 0.0) & (p < 1.0))
    n, p, u = n[live], p[live], u[live]
    half = np.ceil(12.0 * np.sqrt(n * p * (1.0 - p))).astype(np.int64) + 30
    lo = np.maximum(np.floor((n + 1) * p).astype(np.int64) - half, 0)
    hi = np.minimum(lo + 2 * half, n)
    j = lo[:, None] + np.arange(int((hi - lo).max(initial=0)))
    inside = j < hi[:, None]
    # log pmf(j + 1) - log pmf(j), -inf from hi on; log pmf(lo) is taken as 0. In logs, as
    # pmf(mode) / pmf(0) overflows for p near 1: (p / (1 - p))^n at n = 20, p = 1 - 2^-52.
    ratio = np.where(inside, (n[:, None] - j) / (j + 1), 1.0)
    step = np.where(inside, np.log(ratio) + np.log(p / (1.0 - p))[:, None], -np.inf)
    log_pmf = np.concatenate([np.zeros((len(j), 1)), step.cumsum(axis=1)], axis=1)
    cdf = np.exp(log_pmf - log_pmf.max(axis=1, keepdims=True)).cumsum(axis=1)
    k[live] = lo + (cdf <= u[:, None] * cdf[:, -1:]).sum(axis=1)
    return k


def _multinomial(n: int, weights: np.ndarray, bits) -> np.ndarray:
    """Counts of n draws over the entries of weights (non-negative, their sum positive if n > 0)
    by conditional binomials down the binary tree of pairwise sums of the nonzero entries, in
    ascending order and padded with zeros to a power of two: a node's count splits between its
    halves as Binomial(count, left sum / node sum). Each level, top down, reads one word of bits
    per node that holds shots, in ascending order. Only nodes that hold shots are divided by,
    and a node whose weight is all on one side splits with p = 0 or 1."""
    support = np.flatnonzero(weights)
    sums = [np.zeros(1 << (support.size - 1).bit_length())]
    sums[0][:support.size] = weights[support]
    while sums[-1].size > 1:
        sums.append(sums[-1][0::2] + sums[-1][1::2])
    node, count = np.zeros(1, np.intp), np.array([n], np.int64)
    for level in reversed(sums[:-1]):
        node, count = node[count > 0], count[count > 0]
        left = level[2 * node]
        k = _binomial(count, left / (left + level[2 * node + 1]), _uniforms(bits.random_raw(node.size)))
        node = np.stack([2 * node, 2 * node + 1], axis=1).ravel()
        count = np.stack([k, count - k], axis=1).ravel()
    leaves, out = np.zeros(sums[0].size, np.int64), np.zeros(weights.size, np.int64)
    leaves[node] = count
    out[support] = leaves[:support.size]
    return out


def _half_planes(amps: np.ndarray, qubit: int):
    """Views of the qubit=0 and qubit=1 halves of a (B, 2^n) batch of statevectors."""
    view = amps.reshape(amps.shape[0], 2**qubit, 2, -1)
    return view[:, :, 0, :], view[:, :, 1, :]


# Fault codes, one per shot and noise location: the Pauli inserted, or at a
# damping location the shot's uniform when it is below gamma, which jumps when
# it is below gamma times the row's |1> occupation. _JUMP is the uniform 0.0,
# which jumps wherever the row has |1> weight: a decided jump. _QUIET is no
# Pauli, or a damping draw at or above gamma, which never jumps; no uniform
# reaches it.
_JUMP, _QUIET, _X, _Y, _Z = 0.0, 1.0, 2.0, 3.0, 4.0
# the operator of each Pauli code, indexed by code - _QUIET, and a damping jump's
_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_JUMP_OP = np.array([[0.0, 1.0], [0.0, 0.0]])


class _Trajectory:
    """Statevector evolution of a batch of shots, replaying their fault codes.

    Each row of a (B, 2^n) array is one shot's statevector. Gates act on
    every row at once, and each row goes through the same float operations
    as it would alone. States are kept unnormalized while damping no-jump
    factors accumulate; since p_jump = gamma * pop1 / norm^2 never exceeds
    gamma, a jump decision only needs the occupation when its uniform falls
    below gamma, so the common no-jump case reads no row's state.

    The faults at the first head locations, up to and including the last
    damping one, are inserted as the rows run. The Pauli faults after it, the
    tail, are not: frames holds their effect on the final state, and run
    takes it per row.
    """

    def __init__(self, noisy: NoisyCircuit):
        self.noisy = noisy
        self.n = noisy.circuit.n_qubits
        # (gates, channels) in order: the init flips, then each op, with its matrix, and its slot
        self._steps = [((), noisy.pre_channels)] + [
            (((op, op.matrix()),) if op.is_unitary else (), slot) for op, slot in zip(noisy.circuit.ops, noisy.channels)
        ]
        # per noise location, the thresholds fault_codes compares against
        locations = [ch for _, slot in self._steps for ch in slot]
        self._pauli = np.array([isinstance(ch, PauliNoise) for ch in locations], dtype=bool)
        paulis = [ch if p else PauliNoise(0, 0.0, 0.0, 0.0) for ch, p in zip(locations, self._pauli)]
        self._p_x = np.array([ch.p_x for ch in paulis])
        self._p_xy = np.array([ch.p_x + ch.p_y for ch in paulis])
        self._p_total = np.array([ch.p_total for ch in paulis])
        self._gamma = np.array([0.0 if p else ch.gamma for ch, p in zip(locations, self._pauli)])
        # a jump reads the state, so faults up to the last damping location are inserted
        damping = np.flatnonzero(~self._pauli)
        self.head = int(damping[-1]) + 1 if damping.size else 0
        self._no_jump = {k: np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - self._gamma[k])]]) for k in damping.tolist()}
        self.frames = self._frame_table()

    def _frame_table(self) -> np.ndarray:
        """Per tail location k and code c (quiet, X, Y, Z), the Pauli frame of that fault at the
        end of the circuit, in column 4 k + c of uint64 words: bit b of a frame is bit b % 64 of
        word b // 64. Bits 0 to n - 1 are its X-mask over basis-state indices, and bit n + r is
        set when it anticommutes with rotation r's generator there. As P R(angle) = R(-angle) P
        then, a shot whose faults are all in the tail ends in the state of its fault-free run
        with those rotations at minus their angle, permuted by the XOR of their masks.

        One backward pass over _steps keeps, as integer bitmasks, the final frames of X and Z
        on each qubit at the current point; a frame is linear in the Pauli, so Y's is their XOR.
        Before a gate G, P's frame is that of G P G^dagger after it: a CNOT maps X_c to X_c X_t
        and Z_t to Z_c Z_t, H swaps X and Z, S maps X to XZ, and X, Y, Z keep both. A rotation
        adds its bit to the Paulis that anticommute with its generator (RZ: X, RY: X and Z).
        """
        n_rot = sum(op.kind in PARAMETRIC_KINDS for gates, _ in self._steps for op, _ in gates)
        frame_x = [1 << (self.n - 1 - q) for q in range(self.n)]
        frame_z = [0] * self.n
        frames, k, b = [], self._pauli.size, self.n + n_rot
        for gates, slot in reversed(self._steps):
            if k <= self.head:
                break
            for ch in reversed(slot):
                k -= 1
                fx, fz = frame_x[ch.qubit], frame_z[ch.qubit]
                frames.append((0, fx, fx ^ fz, fz))
            for op, _ in reversed(gates):
                q = op.qubits[-1]
                if op.kind == "CNOT":
                    frame_x[op.control] ^= frame_x[q]
                    frame_z[q] ^= frame_z[op.control]
                elif op.kind == "H":
                    frame_x[q], frame_z[q] = frame_z[q], frame_x[q]
                elif op.kind == "S":
                    frame_x[q] ^= frame_z[q]
                elif op.kind in PARAMETRIC_KINDS:
                    b -= 1
                    frame_x[q] ^= 1 << b
                    if op.kind == "RY":
                        frame_z[q] ^= 1 << b
        frames = frames[::-1][max(self.head - k, 0):]  # a slot may straddle the head
        n_words = 1 + (self.n + n_rot - 1) // 64
        words = [[(f >> (64 * w)) & (2**64 - 1) for row in frames for f in row] for w in range(n_words)]
        return np.array(words, dtype=np.uint64).reshape(n_words, 4 * len(frames))

    def fault_codes(self, u_loc: np.ndarray) -> np.ndarray:
        """The fault signature of each row of uniforms, one code per location from the first on: rows
        with equal codes evolve through the same float operations, so a shot may take its
        distribution from any shot with the same codes."""
        at = slice(u_loc.shape[1])
        kind = np.where(
            u_loc >= self._p_total[at],
            _QUIET,
            np.where(u_loc < self._p_x[at], _X, np.where(u_loc < self._p_xy[at], _Y, _Z)),
        )
        return np.where(self._pauli[at], kind, np.where(u_loc < self._gamma[at], u_loc, _QUIET))

    def _pop1_frac(self, amps, qubit):
        """Occupation of |1> on the qubit of a one-row batch, relative to its norm, at most 1:
        the two sums run in different orders, so a qubit exactly in |1> can read 1 + 2^-52."""
        _, a1 = _half_planes(amps, qubit)
        w1 = float(np.vdot(a1, a1).real)
        total = float(np.vdot(amps, amps).real)
        return min(w1 / total, 1.0) if total > 0.0 else 0.0

    def _apply_1q(self, amps, mat, qubit):
        """mat @ (a0, a1) in place on the qubit's half-planes: one (2, 2) matrix for every row,
        or a (B, 2, 2) stack of one per row. One matrix diag(1, s) (a damping no-jump, Z, S) only
        scales a1 by s, the same products but for the sign of a zero."""
        a0, a1 = _half_planes(amps, qubit)
        if mat.ndim == 2 and mat[0, 0] == 1 and not mat[0, 1] and not mat[1, 0]:
            a1 *= mat[1, 1]
            return
        m = mat[:, None, None] if mat.ndim == 3 else mat
        t = m[..., 0, 0] * a0 + m[..., 0, 1] * a1
        a1[...] = m[..., 1, 0] * a0 + m[..., 1, 1] * a1
        a0[...] = t

    def _apply_cnot(self, amps, op):
        """The row swap of CNOT, the IR's one two-qubit kind, on a view with the lower of its
        qubits as axis 2 and the higher as axis 4."""
        c, t = op.control, op.targets[0]
        view = amps.reshape(amps.shape[0], 2 ** min(c, t), 2, 2 ** (abs(c - t) - 1), 2, -1)
        if c < t:
            p0, p1 = view[:, :, 1, :, 0, :], view[:, :, 1, :, 1, :]
        else:
            p0, p1 = view[:, :, 0, :, 1, :], view[:, :, 1, :, 1, :]
        tmp = p0.copy()
        p0[...] = p1
        p1[...] = tmp

    def _zero(self, n_rows: int) -> np.ndarray:
        amps = np.zeros((n_rows, 2**self.n), dtype=complex)
        amps[:, 0] = 1.0
        return amps

    def run(self, codes: np.ndarray, frames: np.ndarray, thresholds: list | None = None) -> np.ndarray:
        """Evolve one shot per row of codes into a (B, 2^n) array of unnormalized statevectors.
        A row holds the codes of the first noise locations, at least the head's, and the
        locations past them are quiet. A row whose frame (a row of words, as in _frame_table)
        sets rotation r's bit runs it at minus its angle, as R[::-1, ::-1], which is X R X and
        R(-angle) exactly in floats; zero frames run every rotation as it is. Given a list, a run
        of one row appends each location's fault threshold to thresholds as the row reaches it
        (no_jump_reference)."""
        # a Pauli location that no row drew, or past the codes, is skipped; damping always runs
        quiet = np.all(codes == _QUIET, axis=0).tolist() + [True] * (self._pauli.size - codes.shape[1])
        amps = self._zero(len(codes))
        k, b = 0, self.n
        for gates, slot in self._steps:
            for op, mat in gates:
                if op.kind == "CNOT":
                    self._apply_cnot(amps, op)
                    continue
                if op.kind in PARAMETRIC_KINDS:
                    flipped = ((frames[:, b // 64] >> np.uint64(b % 64)) & np.uint64(1)).astype(bool)
                    mat = np.where(flipped[:, None, None], mat[::-1, ::-1], mat) if flipped.any() else mat
                    b += 1
                self._apply_1q(amps, mat, op.qubits[0])
            for ch in slot:
                if thresholds is not None:
                    thresholds.append(ch.p_total if self._pauli[k] else ch.gamma * self._pop1_frac(amps, ch.qubit))
                if not self._pauli[k]:  # damping: a draw below gamma may jump, reading its own row
                    for r in np.flatnonzero(codes[:, k] < ch.gamma):
                        if codes[r, k] < ch.gamma * self._pop1_frac(amps[r:r + 1], ch.qubit):
                            self._apply_1q(amps[r:r + 1], _JUMP_OP, ch.qubit)
                    # the no-jump on every row, a jumped one too: diag(1, s) @ jump is the jump
                    self._apply_1q(amps, self._no_jump[k], ch.qubit)
                    if thresholds is not None and not amps.any():
                        thresholds[-1] = np.inf
                elif not quiet[k]:  # the Pauli each row drew, on those that drew one, as alone
                    rows = np.flatnonzero(codes[:, k] != _QUIET)
                    drawn = amps[rows]
                    self._apply_1q(drawn, _PAULIS[(codes[rows, k] - _QUIET).astype(np.intp)], ch.qubit)
                    amps[rows] = drawn
                k += 1
        return amps

    def no_jump_reference(self):
        """run on one row with no Pauli faults, no damping jumps and zero frames.

        Returns (final normalized amps, fault thresholds): a shot is fault-free when every
        location's uniform reaches its threshold, which is p_total for Pauli noise and, for damping,
        the reference p_jump, gamma times the row's |1> occupation just before the location. Such a
        shot is resolved without evolving. A damping location that empties the no-jump branch
        (gamma = 1 on a qubit with no |0> weight) makes every shot jump there: its threshold is
        infinite, and the returned amps are all zero.
        """
        thresholds, frames = [], np.zeros((1, len(self.frames)), np.uint64)
        amps = self.run(np.full((1, self._pauli.size), _QUIET), frames, thresholds)[0]
        return _normalized(amps), np.array(thresholds)


def _normalized(amps: np.ndarray) -> np.ndarray:
    """A statevector over its norm, and the zero vector as it is: the reference's normalization."""
    return amps / (np.linalg.norm(amps) or 1.0)


def _search_rows(table: np.ndarray, row: np.ndarray, u: np.ndarray) -> np.ndarray:
    """np.searchsorted(table[row[i]], u[i], side="right") for every i, bit for bit.

    Each row of table is non-decreasing with 2^n entries, or 2^n + 1 whose last exceeds every
    u[i], as a normalised read cdf's 1.0 does. The count of entries at or below u[i] is found
    by a branch-free binary search over the first 2^n: n vectorised steps, each one gather
    and one comparison per shot, then one for the last of them.
    """
    base = np.zeros(u.size, dtype=np.intp)
    half = table.shape[1] >> 1
    while half:
        base += half * (table[row, base + half - 1] <= u)
        half >>= 1
    return base + (table[row, base] <= u)


def _first_fault_codes(traj: _Trajectory, th, fault_cdf, u_f, v):
    """(N, head) codes, by fault_codes' rule, and (N, words) frames of faulty shots (u_f <
    fault_cdf[-1]) given their first fault, at K = searchsorted(fault_cdf, u_f, "right"): quiet
    before K, at K the Pauli th_K v_K draws or _JUMP, and after K v's. A tail Pauli is an integer
    c = (u < p_total) (1 + (u >= p_x) + (u >= p_xy)), and a frame XORs columns c + 4 j of traj.frames.

    The no-jump reference is run on one quiet row, which a shot is up to K (frames flip only
    rotations after the last damping location), so its damping threshold at K is the reference's
    th_K = gamma * _pop1_frac > 0, below which th_K v_K lies, as does 0.0: both jump. A draw
    in [th_j, gamma) before K would not jump, so quiet is the same history there.
    """
    k, head = np.searchsorted(fault_cdf, u_f, side="right"), traj.head
    u = np.where(np.arange(th.size)[:, None] < k, 1.0, v.T)  # by location; 1.0 is at or above every threshold
    u[k, np.arange(k.size)] *= th[k]
    codes = traj.fault_codes(u[:head].T)
    jump = np.flatnonzero(~traj._pauli[k])  # a damping location is in the head
    codes[jump, k[jump]] = _JUMP
    b = [(u[head:] < limit[head:, None]).view(np.uint8) for limit in (traj._p_x, traj._p_xy, traj._p_total)]
    c = b[2] * (3 - b[0] - b[1])  # (u < p_total) (1 + (u >= p_x) + (u >= p_xy)), in bytes
    return codes, np.bitwise_xor.reduce(traj.frames.take(c + 4 * np.arange(len(c))[:, None], axis=1), axis=1).T


def _faulty_outcomes(traj: _Trajectory, codes, frames, u_out, ref=None):
    """Read outcome indices of shots that carry a fault, one per row of head codes and frame words
    (_first_fault_codes): an index over the measured qubits, as in ShotTable, or 2^m for a shot the
    read drops; and the no-jump reference, ref, or without it the state of a quiet, zero-frame row
    put first, normalized as no_jump_reference's (_normalized).

    A frame's bits 0 to n - 1 are the shot's outcome mask, the rest its flip pattern: the rotations
    it runs at minus their angle. A shot's key is its head codes' bytes, then its frame words from
    the highest down, big-endian, so one np.unique gives the (group, mask) classes in (head codes,
    flip pattern, mask) order; a group is a run of classes that differ only in the mask. Each
    group is evolved once, from any of its rows, in passes of at most _PASS_AMPS amplitudes. Its
    Born vector read at i ^ mask is that of the shot's own state with its faults inserted, and its
    read weights (_read_measured, as the fault-free shots') make one cdf per class, built in chunks
    of at most _PASS_AMPS Born entries; u_out is searched in it by _search_rows.
    """
    n, head, quiet = traj.n, codes.shape[1], int(ref is None)  # without ref, a quiet row goes first
    codes = np.concatenate([np.full((quiet, head), _QUIET), codes])
    frames = np.concatenate([np.zeros((quiet, frames.shape[1]), np.uint64), frames])
    u_out = np.concatenate([[0.0] * quiet, u_out])
    mask = frames[:, 0] & np.uint64((1 << n) - 1)
    # One np.void item per row, so np.unique compares whole rows by memcmp; a key of one word is the
    # word itself, whose numeric order is its big-endian byte order. Byte equality is float equality
    # here: no code is NaN or -0.0, as Pauli codes are 1 to 4 and damping codes are (w >> 11) 2^-53.
    key = np.concatenate([codes.view(np.uint64), frames[:, ::-1].astype(">u8").view(np.uint64)], axis=1)
    items = frames[:, 0] if key.shape[1] == 1 else key.view(np.dtype((np.void, key.strides[0]))).ravel()
    _, first, cls = np.unique(items, return_index=True, return_inverse=True)
    rest = np.concatenate([key[first, :-1], frames[first, :1] >> np.uint64(n)], axis=1)  # head codes, flip pattern
    new = np.concatenate([[True], (rest[1:] != rest[:-1]).any(axis=1)])
    group, evolved = np.cumsum(new) - 1, first[new]  # each class's group, and a row of each group
    masks, outcomes, per_pass = mask[first].astype(np.intp), np.arange(1 << n), max(1, _PASS_AMPS >> n)
    idx = np.empty(cls.size, dtype=np.intp)
    for lo in range(0, evolved.size, per_pass):
        amps = traj.run(codes[evolved[lo:lo + per_pass]], frames[evolved[lo:lo + per_pass]])
        if quiet and lo <= group[cls[0]] < lo + per_pass:
            ref = _normalized(amps[group[cls[0]] - lo])
        born = np.abs(amps) ** 2
        start, stop = np.searchsorted(group, (lo, lo + per_pass))  # the classes of this pass's groups
        for c in range(start, stop, per_pass):
            sel = np.arange(c, min(c + per_pass, stop))
            own = born[(group[sel] - lo)[:, None], outcomes ^ masks[sel][:, None]]  # each class's Born row
            table = np.cumsum(_read_measured(own, traj.noisy.circuit, traj.noisy.readout), axis=1)
            table /= table[:, -1:].copy()
            mine = np.flatnonzero((cls >= c) & (cls < c + sel.size))
            idx[mine] = _search_rows(table, cls[mine] - c, u_out[mine])
    return idx[quiet:], ref


def sample_shots(noisy: NoisyCircuit, cfg: TrajectoryConfig) -> ShotTable:
    """Sample shots by stochastic fault insertion on statevectors.

    The n_shots split exactly, by the law of total probability. The faulty count is
    N_F ~ Binomial(n_shots, P_F), P_F = P(any fault). A shot's read outcome follows the read
    weights of its Born vector (_read_measured): the vector on the measured bits read through
    the kernel K, and the mass K drops. The fault-free shots' outcomes are
    Multinomial(n_shots - N_F, read weights of the reference) (_multinomial). Each faulty shot
    draws, in order, u (its first fault at u_f = P_F u), u_out, which it inverts on the cdf of
    its own state's read weights, and v, one per noise location; _first_fault_codes turns u_f
    and v into its head codes and frame. The table holds the kept shots, as counts by outcome index.
    The reference is run first where damping thresholds read it, else in the first faulty pass
    (_faulty_outcomes) or alone; the multinomial is drawn last.

    Each quantity has its own stream (_stream), read as raw words, so no internal size moves a
    count: family 0 gives N_F's uniform, family 1 the multinomial's, and in family 2 faulty shot j
    owns words j row to (j + 1) row, row = 2 + locations, drawn in chunks of at most _CHUNK_BYTES.
    With k_f the key of family f and word(k, i) = splitmix.mix(k + (i + 1) gamma mod 2^64):
    N_F = _binomial(n_shots, P_F, _uniforms(word(k_0, 0))), and entry i of shot j's row is
    _uniforms(word(k_2, j row + i)). Each chunk resolves its shots through their Pauli frames
    (_faulty_outcomes), to the outcomes that evolving each alone with its faults inserted gives.
    """
    circ = noisy.circuit
    if circ.n_qubits > TRAJECTORY_QUBIT_CAP:
        raise ValueError(
            f"trajectory backend capped at {TRAJECTORY_QUBIT_CAP} qubits, got {circ.n_qubits}"
        )
    if not circ.measured_qubits:
        raise ValueError("circuit has no terminal measurements")
    traj = _Trajectory(noisy)

    ref, thresholds = traj.no_jump_reference() if traj.head else (None, traj._p_total)
    # an infinite threshold (gamma = 1 on an emptied no-jump branch) faults every shot
    th = np.minimum(thresholds, 1.0)
    fault_cdf = 1.0 - np.cumprod(1.0 - th)
    p_fault = fault_cdf[-1] if th.size else 0.0
    u = _uniforms(_stream(cfg.seed, 0).random_raw(1))
    n_faulty = int(_binomial(np.array([cfg.n_shots]), np.array([p_fault]), u)[0])

    row, bits, tally = 2 + th.size, _stream(cfg.seed, 2), np.zeros((1 << len(circ.measured_qubits)) + 1, np.int64)
    per_chunk = max(1, _CHUNK_BYTES // (8 * row))
    for lo in range(0, n_faulty, per_chunk):
        u = _uniforms(bits.random_raw(min(per_chunk, n_faulty - lo) * row).reshape(-1, row))
        # u_f = P_F u < P_F, as P_F is 0 or a normal double from 2^-53 up and u < 1
        codes, frames = _first_fault_codes(traj, th, fault_cdf, p_fault * u[:, 0], u[:, 2:])
        idx, ref = _faulty_outcomes(traj, codes, frames, u[:, 1], ref)
        tally += np.bincount(idx, minlength=tally.size)
    weights = _read_measured(np.abs(traj.no_jump_reference()[0] if ref is None else ref) ** 2, circ, noisy.readout)
    tally += _multinomial(cfg.n_shots - n_faulty, weights, _stream(cfg.seed, 1))
    return ShotTable(tally[:-1], MeasurementLayout.of(circ))


def sample_shots_batched(noisy: NoisyCircuit, cfg: TrajectoryConfig) -> ShotTable:
    """sample_shots, as the one entry through which cli samples every circuit."""
    return sample_shots(noisy, cfg)


# ---------------------------------------------------------------------------
# exact classical model of the readout-encoding gadget
# ---------------------------------------------------------------------------


def red_vote_kernel_for(model) -> np.ndarray:
    """Exact per-qubit kernel of the [3,1] readout gadget with unanimous vote.

    Everything downstream of the ansatz is diagonal in the computational
    basis, so the gadget acts as a classical channel on each measured bit.
    The kernel is the density-backend run of the gadget that wrap_with_red
    appends to a one-qubit read, under the channels attach_noise gives it
    for this model. The read qubit's prep-gate noise and init flip belong to
    the ansatz and are dropped. Returns a 2x2 matrix K with
    K[c, b] = P(triple unanimous with value c | true bit b); set as a
    NoisyCircuit's readout, it is the read stage of a readout-encoded run.
    """
    kernel = np.zeros((2, 2))
    for b in (0, 1):
        read = Circuit(1, (x(0),) * b + (measure(0),), (ROLE_DATA,))
        gadget = attach_noise(wrap_with_red(read), model)
        gadget = gadget.replace(
            channels=((),) * b + gadget.channels[b:],
            pre_channels=tuple(ch for ch in gadget.pre_channels if ch.qubit != 0),
        )
        probs = _read(_born(evolve_density(gadget)), gadget.readout)
        kernel[:, b] = probs[0b000], probs[0b111]
    return kernel


def red_vote_kernel(*, readout: ReadoutParams = ReadoutParams()) -> np.ndarray:
    """Vote kernel of a gadget whose only noise is readout flips."""
    return red_vote_kernel_for(DeviceModel(DepolarizingParams(p2=0.0), readout=readout))


def red_vote_distribution(probs: dict[str, float], kernel: np.ndarray):
    """Push a measured-bit distribution through the vote kernel.

    Returns (normalized distribution over collapsed bits, survival fraction).
    """
    if not probs:
        raise ValueError("empty distribution")
    flat = _read(_vector(probs, len(next(iter(probs))), float), kernel)
    eta = float(flat.sum())
    return {key: p / eta for key, p in _outcomes(flat).items()}, eta
