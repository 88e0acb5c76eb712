"""Execution backends: exact density-matrix evolution and stochastic trajectories.

The trajectory backend unravels each attached channel into stochastic Pauli
insertions plus jump/no-jump amplitude-damping branches on statevectors, so
it reaches registers (up to TRAJECTORY_QUBIT_CAP qubits) that the density
backend cannot. Shot i owns its own Philox4x64-10 streams, so batching never
changes results: family 0 for its first-fault, outcome and read draws, family 1
for one uniform per noise location, drawn only if the shot carries a fault
(_philox_uniforms). Such shots wait in a bounded stash, and each flush evolves
every distinct fault history once, as a row of one (B, 2^n) statevector array.
Both backends read measured bits through the circuit's per-bit read kernel;
the readout-encoding gadget is such a kernel (red_vote_kernel_for), so a
readout-encoded run samples the 2- or 6-qubit circuit it encodes.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, replace

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
    ROLE_DATA,
    Circuit,
    DensityMatrix,
    Gate,
    apply_matrix,
    apply_superoperator,
    bitstring,
    measure,
    superoperator,
    x,
)

DENSITY_QUBIT_CAP = 12
TRAJECTORY_QUBIT_CAP = 20
# Shots whose streams are drawn and resolved as one set of arrays: enough to
# amortise numpy's per-call cost, few enough that the arrays stay in cache.
# Faulty shots wait in a stash, flushed when its rows and their location
# uniforms would pass _STASH_BYTES, and are grouped once per flush (a call at
# defaults flushes once); each history is evolved in passes of at most
# _PASS_AMPS amplitudes (B rows of 2^n: 256 at 6 qubits, one from 14 qubits
# up), so sampling stays within a few MB of the per-shot loop. A shot in a
# drawn span costs about 1/_DENSE of one drawn alone.
_SHOT_BLOCK = 1024
_PASS_AMPS = 2**14
_STASH_BYTES = 2**23
_DENSE = 24
# The density entries of one evolve_densities stack: 2 states at 6 qubits, 512 at 2.
# Slots are fused once for a group of whole stacks, at least _GROUP_CIRCUITS circuits
# (4 stacks at 6 qubits). A group of more than one stack holds its fused slots: draining
# a 60-point encoded grid peaks at 1.2 MB traced, against 2.7 MB fused as one group.
_STACK_AMPS = 2**13
_GROUP_CIRCUITS = 8


@dataclass(frozen=True)
class MeasurementLayout:
    """Measured qubits in ascending index order, with their roles."""

    qubits: tuple[int, ...]
    roles: tuple[str, ...]

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


@dataclass
class ShotTable:
    """Bitstring -> shot count (or probability, in a shot_limit_table) and
    their total; index 0 of a key is the first measured qubit."""

    counts: dict[str, int | float]
    n_shots: int | float
    layout: MeasurementLayout

    def __post_init__(self):
        if sum(self.counts.values()) != self.n_shots:
            raise ValueError("counts must sum to n_shots")
        for key in self.counts:
            if len(key) != len(self.layout.qubits):
                raise ValueError("bitstring length must match measured qubits")

    def merged(self, other: "ShotTable") -> "ShotTable":
        if other.layout != self.layout:
            raise ValueError("cannot merge tables with different layouts")
        counts = dict(self.counts)
        for k, v in other.counts.items():
            counts[k] = counts.get(k, 0) + v
        return ShotTable(counts, self.n_shots + other.n_shots, self.layout)


@dataclass(frozen=True)
class TrajectoryConfig:
    n_shots: int
    seed: int = 0

    def __post_init__(self):
        if self.n_shots < 1:
            raise ValueError("n_shots must be >= 1")


# ---------------------------------------------------------------------------
# density backend
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1024)
def _superoperator(gate: Gate) -> np.ndarray:
    """A gate's superoperator, shared and so read-only; bounded, as every angle is a new gate.
    Channels are not cached: _stacked builds theirs from their rates, a stack at a time."""
    out = superoperator((gate.matrix(),))
    out.setflags(write=False)
    return out


def _stacked(ops) -> np.ndarray:
    """The superoperators of ops, all gates or all channels of one class, as one (P, 4^k, 4^k)
    stack: gates' from the cache (for one gate, a view of its own), channels' from their
    rates by their class (PauliNoise.superoperators, DampingNoise.superoperators)."""
    if not isinstance(ops[0], Gate):
        return type(ops[0]).superoperators(ops)
    return _superoperator(ops[0])[None] if len(ops) == 1 else np.stack([_superoperator(op) for op in ops])


def density_layout(noisy: NoisyCircuit) -> tuple:
    """What the circuits of one evolve_densities call share: the register, each op's kind and
    qubits, and each slot's and the init flips' channel types and qubits; not angles or rates."""
    ops, slots = noisy.circuit.ops, (noisy.pre_channels,) + noisy.channels
    channels = [[(type(ch), ch.qubit) for ch in slot] for slot in slots]
    return noisy.circuit.n_qubits, [(op.kind, op.qubits) for op in ops], channels


def _fused_steps(group):
    """The contractions of an evolve_densities group, in order, as (stack, qubits) with one
    item per circuit: each init flip, then per slot a unitary gate fused with the slot's
    channels on its qubits (one superoperator), and each other channel on its own pair."""
    for chs in zip(*(nc.pre_channels for nc in group)):
        yield _stacked(chs), (chs[0].qubit,)
    for ops, slots in zip(zip(*(nc.circuit.ops for nc in group)), zip(*(nc.channels for nc in group))):
        op, rest = ops[0], range(len(slots[0]))
        if op.is_unitary:
            fused = _stacked(ops)
            for j in (j for j in rest if slots[0][j].qubit in op.qubits):
                pair = op.qubits.index(slots[0][j].qubit)
                fused = apply_matrix(fused, _stacked([slot[j] for slot in slots]), (2 * pair, 2 * pair + 1))
            yield fused, op.qubits
            rest = [j for j in rest if slots[0][j].qubit not in op.qubits]  # these commute with it and follow
        for j in rest:
            yield _stacked([slot[j] for slot in slots]), (slots[0][j].qubit,)


def evolve_densities(noisy_circuits):
    """Yields, in order, each circuit's exact mixed state after all gates and channels, before
    measurement/readout. The circuits must share their density_layout (else a ValueError);
    they are evolved in stacks of at most _STACK_AMPS density entries, one alive at a time,
    with one contraction per stack for each of _fused_steps. Those are built once for a group
    of whole stacks (_GROUP_CIRCUITS), and each stack reads its own rows of them."""
    noisy_circuits = list(noisy_circuits)
    if not noisy_circuits:
        return
    layout = density_layout(noisy_circuits[0])
    if any(density_layout(nc) != layout for nc in noisy_circuits[1:]):
        raise ValueError("circuits evolved as one stack must share their ops and their channels' types and qubits")
    n = layout[0]
    if n > DENSITY_QUBIT_CAP:
        raise ValueError(f"density backend capped at {DENSITY_QUBIT_CAP} qubits, got {n}")
    per_stack = max(1, _STACK_AMPS >> 2 * n)
    per_group = per_stack * max(1, _GROUP_CIRCUITS // per_stack)
    for start in range(0, len(noisy_circuits), per_group):
        group = noisy_circuits[start:start + per_group]
        steps = _fused_steps(group)
        if len(group) > per_stack:  # held, as every stack of the group reads each step
            steps = list(steps)
        for lo in range(0, len(group), per_stack):
            size = min(per_stack, len(group) - lo)
            rho = DensityMatrix.zero(n).mat.reshape(1, -1).repeat(size, axis=0)
            for stack, qubits in steps:
                rho = apply_superoperator(rho, stack[lo:lo + size], qubits)
            for mat in rho.reshape(size, 2**n, 2**n):
                tr = np.trace(mat).real
                if abs(tr - 1.0) > 1e-10:
                    raise ValueError(f"evolved density trace drifted to {tr}")
                yield DensityMatrix(n, mat)


def evolve_density(noisy: NoisyCircuit) -> DensityMatrix:
    """The exact mixed state of one circuit, before measurement/readout (evolve_densities)."""
    return next(evolve_densities([noisy]))


def _read(probs: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """A distribution over basis-state indices read through the per-bit kernel
    K[read, true] on every bit; a lossy kernel leaves less mass, never more."""
    if not np.array_equal(kernel, np.eye(2)):
        for q in range(probs.size.bit_length() - 1):
            probs = apply_matrix(probs, kernel, (q,))
    if probs.sum() > 1.0 + 1e-10:
        raise ValueError("read kernel created probability mass")
    return probs


def _read_probabilities(rho: DensityMatrix, kernel: np.ndarray) -> np.ndarray:
    """The Born diagonal, checked to sum to 1, read through a per-bit kernel
    that may be lossy, as a full vector over basis-state indices."""
    probs = np.clip(rho.diagonal(), 0.0, None)
    if abs(probs.sum() - 1.0) > 1e-10:
        raise ValueError("Born distribution does not sum to 1")
    return _read(probs, kernel)


def _outcomes(probs: np.ndarray) -> dict[str, float]:
    """A probability vector as outcome -> probability, without outcomes at or below 1e-15."""
    n = probs.size.bit_length() - 1
    return {bitstring(i, n): float(p) for i, p in enumerate(probs) if p > 1e-15}


def born_distribution(rho: DensityMatrix, readout: ReadoutParams = ReadoutParams()) -> dict[str, float]:
    """Read-out probabilities by bitstring, without outcomes at or below 1e-15."""
    return _outcomes(_read_probabilities(rho, readout.kernel))


def shot_limit_table(noisy: NoisyCircuit) -> tuple[ShotTable, float]:
    """The infinite-shot limit of sample_shots and its raw total, the trace.

    The Born vector of evolve_density read through the circuit's read kernel,
    as probability weights of every (measured) qubit; a lossy kernel keeps
    less than the raw total, and nothing is renormalized.
    """
    rho = evolve_density(noisy)
    probs = _outcomes(_read_probabilities(rho, noisy.readout))
    table = ShotTable(probs, sum(probs.values()), MeasurementLayout.of(noisy.circuit))
    return table, float(np.trace(rho.mat).real)


# ---------------------------------------------------------------------------
# trajectory backend
# ---------------------------------------------------------------------------


def _philox_uniforms(seed: int, shot_offset: int, parts, n_draws: int, family: int = 0):
    """Yields, for each array of positions in parts, its (size, n_draws) uniforms:
    row i is the stream, in the given family, of shot shot_offset + part[i].

    Counter-based streams (Salmon et al., SC'11): under key seed mod 2^64 and
    counter word 2 = family, shot s owns the nb = ceil(n_draws / 4) Philox4x64-10
    blocks s * nb + 1 to (s + 1) * nb, and each double is the top 53 bits of a
    word. Row i equals, bit for bit, Generator(Philox(key=seed % 2**64, counter=
    [0, 0, family, 0]).advance((shot_offset + part[i]) * nb)).random(n_draws).
    Positions ascend, and one generator walks them: a part of more than 1 in
    _DENSE of its span is drawn as that span in one call, any other shot by shot.
    """
    n_blocks = -(-n_draws // 4)
    # numpy.random is imported on first use, here: it costs about 6 MB, and
    # the density backend never samples
    bits = np.random.Philox(key=seed % 2**64, counter=[0, 0, family, 0]).advance(shot_offset * n_blocks)
    at = 0
    for part in parts:
        first, span = int(part[0]), int(part[-1] - part[0]) + 1
        if part.size * _DENSE > span:
            words = bits.advance((first - at) * n_blocks).random_raw(span * 4 * n_blocks)
            words = words.reshape(span, 4 * n_blocks)[part - first if part.size < span else ...]
            at = first + span
        else:
            words = np.empty((part.size, 4 * n_blocks), dtype=np.uint64)
            for i, s in enumerate(part.tolist()):
                words[i], at = bits.advance((s - at) * n_blocks).random_raw(4 * n_blocks), s + 1
        yield (words[:, :n_draws] >> np.uint64(11)) * 2.0**-53


def _first_fault_rows(th: np.ndarray, fault_cdf: np.ndarray, u_f: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Location uniforms of faulty shots (u_f < fault_cdf[-1]) under the exact
    law given their first fault, at K = searchsorted(fault_cdf, u_f, "right"):
    th_j + (1 - th_j) v_j before K, th_K v_K at K and the free v_j after it."""
    k = np.searchsorted(fault_cdf, u_f, side="right")
    rows = np.arange(k.size)
    out = (1.0 - th) * v
    out += th  # th + (1 - th) v bit for bit, as addition commutes
    np.copyto(out, v, where=np.arange(th.size) >= k[:, None])
    out[rows, k] = th[k] * v[rows, k]
    return out


def _half_planes(amps: np.ndarray, qubit: int):
    """Views of the qubit=0 and qubit=1 halves of a (B, 2^n) batch of statevectors."""
    view = amps.reshape(amps.shape[0], 2**qubit, 2, -1)
    return view[:, :, 0, :], view[:, :, 1, :]


def _rows(mask: np.ndarray):
    """An index of the rows in mask. Indexing rows copies their half-planes,
    so when mask holds every row this is Ellipsis, which works in place."""
    return Ellipsis if mask.all() else mask


# Fault codes, one per shot and noise location: the Pauli inserted, or at a
# damping location the shot's uniform when it is below gamma. _QUIET is no
# Pauli, or a damping draw at or above gamma, which never jumps; no uniform
# reaches it.
_QUIET, _X, _Y, _Z = 1.0, 2.0, 3.0, 4.0


class _Trajectory:
    """Statevector evolution of a batch of shots, replaying pre-drawn uniforms.

    Each row of a (B, 2^n) array is one shot's statevector. Gates act on
    every row at once, and each row goes through the same float operations
    as it would alone. States are kept unnormalized while damping no-jump
    factors accumulate; since p_jump = gamma * pop1 / norm^2 never exceeds
    gamma, a jump decision only needs the occupation when its uniform falls
    below gamma, which keeps the common no-jump case to a single half-plane
    scaling.
    """

    def __init__(self, noisy: NoisyCircuit):
        self.noisy = noisy
        self.n = noisy.circuit.n_qubits
        self._scratch = np.empty((3, 0), dtype=complex)  # grown by _apply_1q
        # (gates, channels) in order: the init flips, then each op and its slot
        self._steps = [((), noisy.pre_channels)] + [
            ((op,) if op.is_unitary else (), slot) for op, slot in zip(noisy.circuit.ops, noisy.channels)
        ]
        # per noise location, the thresholds fault_codes compares against
        locations = [ch for _, slot in self._steps for ch in slot]
        self._pauli = np.array([isinstance(ch, PauliNoise) for ch in locations], dtype=bool)
        paulis = [ch if p else PauliNoise(0, 0.0, 0.0, 0.0) for ch, p in zip(locations, self._pauli)]
        self._p_x = np.array([ch.p_x for ch in paulis])
        self._p_xy = np.array([ch.p_x + ch.p_y for ch in paulis])
        self._p_total = np.array([ch.p_total for ch in paulis])
        self._gamma = np.array([0.0 if p else ch.gamma for ch, p in zip(locations, self._pauli)])

    def fault_codes(self, u_loc: np.ndarray) -> np.ndarray:
        """The fault signature of each row of uniforms: one code per location.

        Rows with equal codes evolve through the same float operations, so a
        shot may take its distribution from any shot with the same codes.
        """
        kind = np.where(
            u_loc >= self._p_total,
            _QUIET,
            np.where(u_loc < self._p_x, _X, np.where(u_loc < self._p_xy, _Y, _Z)),
        )
        return np.where(self._pauli, kind, np.where(u_loc < self._gamma, u_loc, _QUIET))

    def _pop1_frac(self, amps, qubit):
        """Occupation of |1> on the qubit of a one-row batch, relative to its norm."""
        _, a1 = _half_planes(amps, qubit)
        w1 = float(np.vdot(a1, a1).real)
        total = float(np.vdot(amps, amps).real)
        return w1 / total if total > 0.0 else 0.0

    def _apply_1q(self, amps, mat, qubit):
        # the products go to contiguous scratch, as fresh arrays would, so their
        # float operations are unchanged; reusing it spares a large register
        # the page faults of three new half-size arrays per gate
        a0, a1 = _half_planes(amps, qubit)
        size = amps.size // 2
        if self._scratch.shape[1] < size:
            self._scratch = np.empty((3, size), dtype=complex)
        t, s, u = (b[:size].reshape(a0.shape) for b in self._scratch)
        np.multiply(mat[0, 0], a0, out=t)
        np.multiply(mat[0, 1], a1, out=u)
        t += u
        np.multiply(mat[1, 0], a0, out=s)
        np.multiply(mat[1, 1], a1, out=u)
        s += u
        a1[...] = s
        a0[...] = t

    def _quad_view(self, amps, qa, qb):
        """6-D view exposing qubits qa < qb as explicit axes 2 and 4."""
        return amps.reshape(amps.shape[0], 2**qa, 2, 2 ** (qb - qa - 1), 2, -1)

    def _apply_gate(self, amps, op):
        """The batched one-qubit kernel, or for CNOT (the IR's one two-qubit kind) the row swap."""
        if op.kind != "CNOT":
            self._apply_1q(amps, op.matrix(), op.qubits[0])
            return
        c, t = op.control, op.targets[0]
        view = self._quad_view(amps, min(c, t), max(c, t))
        if c < t:
            p0, p1 = view[:, :, 1, :, 0, :], view[:, :, 1, :, 1, :]
        else:
            p0, p1 = view[:, :, 0, :, 1, :], view[:, :, 1, :, 1, :]
        tmp = p0.copy()
        p0[...] = p1
        p1[...] = tmp

    def _apply_channel(self, amps, ch, codes):
        """Apply one location, given its code for every row."""
        a0, a1 = _half_planes(amps, ch.qubit)
        if isinstance(ch, PauliNoise):
            for kind in (_X, _Y, _Z):
                drew = codes == kind
                if not drew.any():
                    continue
                rows = _rows(drew)
                if kind == _Z:
                    a1[rows] *= -1.0
                    continue
                t = a0[rows].copy() if rows is Ellipsis else a0[rows]  # a mask gather is a copy already
                if kind == _X:
                    a0[rows] = a1[rows]
                    a1[rows] = t
                else:
                    a0[rows] = -1j * a1[rows]
                    a1[rows] = 1j * t
            return
        # damping: only a draw below gamma can jump, and then it reads its own row's state
        jump = np.zeros(codes.size, dtype=bool)
        for r in np.flatnonzero(codes < ch.gamma):
            jump[r] = codes[r] < ch.gamma * self._pop1_frac(amps[r:r + 1], ch.qubit)
        if jump.any():
            rows = _rows(jump)
            a0[rows] = a1[rows]
            a1[rows] = 0.0
        if not jump.all():
            a1[_rows(~jump)] *= np.sqrt(1.0 - ch.gamma)

    def _zero(self, n_rows: int) -> np.ndarray:
        amps = np.zeros((n_rows, 2**self.n), dtype=complex)
        amps[:, 0] = 1.0
        return amps

    def run(self, u_loc: np.ndarray) -> np.ndarray:
        """Evolve one shot per row of u_loc, which holds one uniform per noise
        location, into a (B, 2^n) array of unnormalized statevectors."""
        codes = self.fault_codes(u_loc)
        # a Pauli location that no row drew is skipped; damping always scales
        skip = (self._pauli & np.all(codes == _QUIET, axis=0)).tolist()
        amps = self._zero(len(u_loc))
        k = 0
        for gates, slot in self._steps:
            for op in gates:
                self._apply_gate(amps, op)
            for ch in slot:
                if not skip[k]:
                    self._apply_channel(amps, ch, codes[:, k])
                k += 1
        return amps

    def no_jump_reference(self):
        """One sweep with no Pauli faults and no damping jumps.

        Returns (final normalized amps, fault thresholds): a shot is fault-free
        when every location's uniform reaches its threshold, which is p_total
        for Pauli noise and the reference p_jump for damping. Such a shot is
        resolved without evolving. A damping location that empties the no-jump
        branch (gamma = 1 on a qubit with no |0> weight) makes every shot jump
        there: its threshold is infinite, and the returned amps are all zero.
        """
        amps = self._zero(1)
        thresholds = []
        for gates, slot in self._steps:
            for op in gates:
                self._apply_gate(amps, op)
            for ch in slot:
                if isinstance(ch, PauliNoise):
                    thresholds.append(ch.p_total)
                    continue
                thresholds.append(ch.gamma * self._pop1_frac(amps, ch.qubit))
                self._apply_channel(amps, ch, np.array([_QUIET]))
                if not amps.any():
                    thresholds[-1] = np.inf
        norm = np.linalg.norm(amps[0])
        return amps[0] / (norm or 1.0), np.array(thresholds)


def _search_rows(table: np.ndarray, row: np.ndarray, u: np.ndarray) -> np.ndarray:
    """np.searchsorted(table[row[i]], u[i], side="right") for every i, bit for bit.

    Each row of table is non-decreasing with 2^n entries. The count of entries at or
    below u[i] is found by a branch-free binary search: n vectorised steps, each one
    gather and one comparison per shot, then one for the last entry.
    """
    base = np.zeros(u.size, dtype=np.intp)
    half = table.shape[1] >> 1
    while half:
        base += half * (table[row, base + half - 1] <= u)
        half >>= 1
    return base + (table[row, base] <= u)


def _faulty_outcomes(traj: _Trajectory, u_loc, u_out) -> np.ndarray:
    """Basis-state indices of shots that carry a fault, one per row of u_loc.

    Shots are grouped by the bytes of their fault codes; each group is evolved once, from its
    first shot's uniforms, in passes of at most _PASS_AMPS amplitudes, each resolved by one _search_rows.
    """
    codes = traj.fault_codes(u_loc)
    # One np.void item per row, so np.unique compares whole rows by memcmp.
    # Byte equality is float equality here: no code is NaN or -0.0, as Pauli
    # codes are 1 to 4 and damping codes are uniforms (w >> 11) * 2^-53 in [0, 1).
    rows = codes.view(np.dtype((np.void, codes.strides[0]))).ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    idx = np.empty(len(u_out), dtype=np.intp)
    per_pass = max(1, _PASS_AMPS >> traj.n)
    for lo in range(0, first.size, per_pass):
        cdfs = np.cumsum(np.abs(traj.run(u_loc[first[lo:lo + per_pass]])) ** 2, axis=1)
        cdfs /= cdfs[:, -1:].copy()
        mine = np.flatnonzero((inverse >= lo) & (inverse < lo + per_pass))
        idx[mine] = _search_rows(cdfs, inverse[mine] - lo, u_out[mine])
    return idx


def sample_shots(
    noisy: NoisyCircuit, cfg: TrajectoryConfig, shot_offset: int = 0
) -> ShotTable:
    """Sample shots by stochastic fault insertion on statevectors.

    Shot i (global index shot_offset + i) consumes only its own RNG streams.
    Family 0 holds u_f, the uniform of the terminal Z-basis outcome, and one
    uniform per measured qubit for its read, unless the read kernel K is the
    identity. A bit whose true value is b reads as 1 - b when its uniform u
    is below K[1 - b, b], and drops the shot when u >= K[0, b] + K[1, b];
    the table holds the kept shots. A shot carries a fault iff u_f is below
    P(any fault), and only then draws its location uniforms from family 1
    (_first_fault_rows). A block of shots draws its family-0 rows in one call
    and resolves its fault-free shots against a cached reference evolution.
    Faulty shots wait in a stash until it is full or the shots run out; each
    flush draws their location rows and evolves every distinct fault history
    once (_faulty_outcomes). Outcomes appear in the order of their first shot.
    """
    circ = noisy.circuit
    if circ.n_qubits > TRAJECTORY_QUBIT_CAP:
        raise ValueError(
            f"trajectory backend capped at {TRAJECTORY_QUBIT_CAP} qubits, got {circ.n_qubits}"
        )
    measured = circ.measured_qubits
    if not measured:
        raise ValueError("circuit has no terminal measurements")
    layout = MeasurementLayout.of(circ)
    traj = _Trajectory(noisy)

    ref_amps, thresholds = traj.no_jump_reference()
    ref_cdf = np.cumsum(np.abs(ref_amps) ** 2)
    ref_cdf[-1] = 1.0
    # an infinite threshold (gamma = 1 on an emptied no-jump branch) faults every shot
    th = np.minimum(thresholds, 1.0)
    fault_cdf = 1.0 - np.cumprod(1.0 - th)
    p_fault = fault_cdf[-1] if th.size else 0.0

    n_loc, n_meas = thresholds.size, len(measured)
    kernel = noisy.readout
    # an identity read needs no draws
    n_read = 0 if np.array_equal(kernel, np.eye(2)) else n_meas
    # by true bit b: misread below K[1 - b, b], dropped at or above the column sum
    flip_p, keep_p = kernel[[1, 0], [0, 1]], kernel.sum(axis=0)
    shifts = circ.n_qubits - 1 - np.array(measured)
    place = 1 << np.arange(n_meas - 1, -1, -1)
    codes = np.empty(cfg.n_shots, dtype=np.int64)
    kept = np.ones(cfg.n_shots, dtype=bool)

    def read(at, idx, u_read):  # the bits of the shots at positions at, from their basis-state indices
        bits = (idx[:, None] >> shifts) & 1
        if n_read:
            kept[at] = np.all(u_read < keep_p[bits], axis=1)
            bits ^= u_read < flip_p[bits]
        codes[at] = bits @ place

    # faulty shots wait as (family-0 rows, positions) parts, at most cap rows in
    # all, so that a flush's rows with their location uniforms fill _STASH_BYTES
    n_main = 2 + n_read
    cap, stash, fill = max(1, _STASH_BYTES // (8 * (n_loc + n_main + 1))), [], 0

    def flush():
        u, at = (np.concatenate(part) for part in zip(*stash))
        v = np.concatenate(list(_philox_uniforms(cfg.seed, shot_offset, [at for _, at in stash], n_loc, 1)))
        stash.clear()
        u_loc = _first_fault_rows(th, fault_cdf, u[:, 0], v)
        read(at, _faulty_outcomes(traj, u_loc, u[:, 1]), u[:, 2:])

    starts = range(0, cfg.n_shots, _SHOT_BLOCK)
    blocks = (np.arange(start, min(start + _SHOT_BLOCK, cfg.n_shots)) for start in starts)
    for start, u in zip(starts, _philox_uniforms(cfg.seed, shot_offset, blocks, n_main)):
        n = len(u)
        # every shot is read as if fault-free; a faulty one is read again at its flush
        read(slice(start, start + n), np.searchsorted(ref_cdf, u[:, 1], side="right"), u[:, 2:])
        faulty = np.flatnonzero(u[:, 0] < p_fault)
        while faulty.size:
            take, faulty = faulty[:cap - fill], faulty[cap - fill:]
            stash.append((u[take], start + take))
            fill += take.size
            if fill == cap:
                flush()
                fill = 0
    if fill:
        flush()

    # tally by code value; values are listed in the order of their first kept shot
    codes = codes[kept]
    tally = np.bincount(codes, minlength=1 << n_meas)
    first = np.full(tally.size, codes.size)
    np.minimum.at(first, codes, np.arange(codes.size))
    values = np.flatnonzero(tally)
    counts = {bitstring(int(v), n_meas): int(tally[v]) for v in values[np.argsort(first[values])]}
    return ShotTable(counts, codes.size, layout)


def sample_shots_batched(
    noisy: NoisyCircuit, cfg: TrajectoryConfig, batch_size: int = 10000
) -> ShotTable:
    """Split shots into <= batch_size batches over global shot indices and merge.

    Because every shot owns its own RNG stream, the merged table is
    identical to a single unbatched run with the same configuration.
    """
    table = None
    done = 0
    while done < cfg.n_shots:
        take = min(batch_size, cfg.n_shots - done)
        part = sample_shots(noisy, TrajectoryConfig(take, cfg.seed), shot_offset=done)
        table = part if table is None else table.merged(part)
        done += take
    return table


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
        gadget = replace(
            gadget,
            channels=((),) * b + gadget.channels[b:],
            pre_channels=tuple(ch for ch in gadget.pre_channels if ch.qubit != 0),
        )
        probs = _read_probabilities(evolve_density(gadget), gadget.readout)
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
    t = np.zeros(2 ** len(next(iter(probs))))
    t[[int(key, 2) for key in probs]] = list(probs.values())
    flat = _read(t, kernel)
    eta = float(flat.sum())
    return {key: p / eta for key, p in _outcomes(flat).items()}, eta
