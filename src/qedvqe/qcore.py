"""Dense complex linear algebra: state representations, gate matrices, circuit IR.

Conventions used throughout the package:

* qubit 0 is the leftmost ket symbol and the most significant bit of an
  amplitude index, so ``|q0 q1⟩ = |01⟩`` has amplitude index 1;
* ``RY(t) = exp(-i t Y / 2)``, ``RZ(t) = exp(-i t Z / 2)``;
* measurements are terminal Z-basis reads (no mid-circuit measurement).
"""
from __future__ import annotations

import functools
import math
import operator

import numpy as np

MAX_QUBITS = 24

ROLE_DATA = "data"
ROLE_A1 = "ancilla_a1"
ROLE_A2 = "ancilla_a2"
ROLE_RED = "red_readout"
ROLES = (ROLE_DATA, ROLE_A1, ROLE_A2, ROLE_RED)

_SQ2 = 1.0 / math.sqrt(2.0)

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

_FIXED_1Q = {
    "H": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "X": PAULI_X,
    "Y": PAULI_Y,
    "Z": PAULI_Z,
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
}

_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)

PARAMETRIC_KINDS = ("RY", "RZ")
UNITARY_1Q_KINDS = tuple(_FIXED_1Q) + PARAMETRIC_KINDS
UNITARY_2Q_KINDS = ("CNOT",)
NONUNITARY_KINDS = ("MEASURE_Z",)
GATE_KINDS = UNITARY_1Q_KINDS + UNITARY_2Q_KINDS + NONUNITARY_KINDS


def _ry(t: float) -> np.ndarray:
    c, s = math.cos(t / 2.0), math.sin(t / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(t: float) -> np.ndarray:
    return np.array(
        [[np.exp(-0.5j * t), 0], [0, np.exp(0.5j * t)]], dtype=complex
    )


class Record:
    """The base of the package's records. A record class lists its fields as ``__slots__`` (a slot
    whose name starts with an underscore is a private cache, not a field), and its ``__init__``
    checks them and sets each once with ``object.__setattr__``. A record is frozen: assigning or
    deleting an attribute raises AttributeError. Its repr lists every field, and ``replace``
    builds a changed copy through ``__init__``, so every check runs again. Declared with
    ``value=True``, a record class compares and hashes by its fields; otherwise by identity."""

    __slots__ = ()

    def __init_subclass__(cls, value=False, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        if value:
            cls._values = operator.attrgetter(*cls._fields)
            cls.__eq__, cls.__hash__ = Record._same_values, Record._hash_values

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def replace(self, **changes):
        """A copy with the given fields changed, built through ``__init__``: every check runs again."""
        return type(self)(**{name: getattr(self, name) for name in self._fields} | changes)

    def _same_values(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def _hash_values(self):
        return hash(self._values(self))


class Gate(Record, value=True):
    """One circuit operation: kind, one target qubit, optional control and angle."""

    __slots__ = ("kind", "targets", "control", "angle")

    def __init__(self, kind: str, targets: tuple[int, ...], control: int | None = None, angle: float | None = None):
        targets = tuple(targets)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "control", control)
        object.__setattr__(self, "angle", angle)
        if kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {kind!r}")
        if kind in PARAMETRIC_KINDS:
            if angle is None or not math.isfinite(angle):
                raise ValueError(f"{kind} requires one finite angle")
        elif angle is not None:
            raise ValueError(f"{kind} takes no angle")
        if kind == "CNOT" and control is None:
            raise ValueError("CNOT takes a control")
        if kind != "CNOT" and control is not None:
            raise ValueError(f"{kind} takes no control")
        if len(targets) != 1:
            raise ValueError(f"{kind} takes one target")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError("gate qubits must be distinct")
        if any(q < 0 for q in self.qubits):
            raise ValueError("negative qubit index")

    @property
    def qubits(self) -> tuple[int, ...]:
        if self.control is not None:
            return (self.control,) + self.targets
        return self.targets

    @property
    def is_unitary(self) -> bool:
        return self.kind not in NONUNITARY_KINDS

    def matrix(self) -> np.ndarray:
        """Unitary acting on ``self.qubits`` (most significant qubit first)."""
        if self.kind in _FIXED_1Q:
            return _FIXED_1Q[self.kind]
        if self.kind == "RY":
            return _ry(self.angle)
        if self.kind == "RZ":
            return _rz(self.angle)
        if self.kind == "CNOT":
            return _CNOT
        raise ValueError(f"{self.kind} has no unitary matrix")


def h(q):
    return Gate("H", (q,))


def x(q):
    return Gate("X", (q,))


def y(q):
    return Gate("Y", (q,))


def z(q):
    return Gate("Z", (q,))


def s(q):
    return Gate("S", (q,))


def ry(angle, q):
    return Gate("RY", (q,), angle=float(angle))


def rz(angle, q):
    return Gate("RZ", (q,), angle=float(angle))


def cnot(control, target):
    return Gate("CNOT", (target,), control=control)


def measure(q):
    return Gate("MEASURE_Z", (q,))


class Circuit(Record):
    """Ordered gate list over a fixed register with per-qubit role tags.

    All measurements are terminal: a MEASURE_Z on qubit q must come after the
    last unitary touching q. This is validated at construction.
    """

    __slots__ = ("n_qubits", "ops", "roles")

    def __init__(self, n_qubits: int, ops: tuple[Gate, ...], roles: tuple[str, ...]):
        ops, roles = tuple(ops), tuple(roles)
        object.__setattr__(self, "n_qubits", n_qubits)
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "roles", roles)
        if n_qubits < 1 or n_qubits > MAX_QUBITS:
            raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}]")
        if len(roles) != n_qubits:
            raise ValueError("roles must tag every qubit")
        for r in roles:
            if r not in ROLES:
                raise ValueError(f"unknown role {r!r}")
        measured = set()
        for op in ops:
            if any(q >= n_qubits for q in op.qubits):
                raise ValueError(f"gate {op} out of range for {n_qubits} qubits")
            if op.kind == "MEASURE_Z":
                measured.add(op.targets[0])
            elif op.is_unitary and measured.intersection(op.qubits):
                raise ValueError("unitary after measurement: terminal model only")

    @property
    def measured_qubits(self) -> tuple[int, ...]:
        return tuple(sorted(op.targets[0] for op in self.ops if op.kind == "MEASURE_Z"))

    def gate_counts(self):
        """Return (n_1q, n_2q, n_meas) over the gate list."""
        n1 = sum(1 for op in self.ops if op.is_unitary and len(op.qubits) == 1)
        n2 = sum(1 for op in self.ops if op.is_unitary and len(op.qubits) == 2)
        nm = sum(1 for op in self.ops if op.kind == "MEASURE_Z")
        return n1, n2, nm


# ---------------------------------------------------------------------------
# state representations
# ---------------------------------------------------------------------------


def _check_finite(arr):
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite amplitude")


class StateVector:
    """Pure state over n qubits; amplitude index bits follow qubit order."""

    __slots__ = ("n_qubits", "amps")

    def __init__(self, n_qubits: int, amps: np.ndarray):
        amps = np.asarray(amps, dtype=complex).reshape(-1)
        if amps.shape != (2**n_qubits,):
            raise ValueError("amplitude length must be 2**n_qubits")
        _check_finite(amps)
        self.n_qubits = n_qubits
        self.amps = amps

    @classmethod
    def zero(cls, n_qubits: int) -> "StateVector":
        amps = np.zeros(2**n_qubits, dtype=complex)
        amps[0] = 1.0
        return cls(n_qubits, amps)

    def outer(self) -> "DensityMatrix":
        return DensityMatrix(self.n_qubits, np.outer(self.amps, self.amps.conj()))


class DensityMatrix:
    """Mixed state over n qubits, stored dense."""

    __slots__ = ("n_qubits", "mat")

    def __init__(self, n_qubits: int, mat: np.ndarray):
        mat = np.asarray(mat, dtype=complex)
        dim = 2**n_qubits
        if mat.shape != (dim, dim):
            raise ValueError("density matrix shape must be (2**n, 2**n)")
        _check_finite(mat)
        self.n_qubits = n_qubits
        self.mat = mat

    @classmethod
    def zero(cls, n_qubits: int) -> "DensityMatrix":
        dim = 2**n_qubits
        mat = np.zeros((dim, dim), dtype=complex)
        mat[0, 0] = 1.0
        return cls(n_qubits, mat)

    def diagonal(self) -> np.ndarray:
        return self.mat.diagonal().real.copy()


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def apply_matrix(tensor: np.ndarray, mat: np.ndarray, axes) -> np.ndarray:
    """The one contraction kernel: mat (2^k x 2^k) on the k bit axes of a tensor of 2^N entries
    (a ket, a 2^n x 2^n matrix or a (2,)*N tensor, kept in its shape), the first axis most
    significant. Axes a to a + k - 1, in that order, are one matmul on the view (2^a, 2^k, rest),
    or view @ mat^T when rest is 1; other axes go through a transpose, one (2^k, rest) matmul and
    the inverse transpose. A (P, 2^k, 2^k) stack acts on a tensor whose first
    axis holds P such tensors, the p-th matrix on the p-th, each product as it would run alone;
    a stack or a tensor of one item is broadcast against the other's P. A real mat on a complex
    tensor is one real matmul over the float view, real and imaginary parts side by side."""
    stack = tensor.shape[:mat.ndim - 2]  # () or (P,)
    lead, n = len(stack), (tensor.size // math.prod(stack)).bit_length() - 1
    if tuple(axes) == tuple(range(axes[0], axes[0] + len(axes))):  # a run: no transposes
        front, back = tensor.reshape(*stack, 2 ** axes[0], mat.shape[-1], -1), None
    else:
        order = [*range(lead), *(lead + a for a in axes), *(lead + a for a in range(n) if a not in axes)]
        front = tensor.reshape(stack + (2,) * n).transpose(order).reshape(*stack, 1, mat.shape[-1], -1)
        back = sorted(range(lead + n), key=order.__getitem__)  # the inverse permutation
    if mat.dtype == float and front.dtype == complex:
        out = (mat[..., None, :, :] @ np.ascontiguousarray(front).view(float)).view(complex)
    elif front.shape[-1] == 1:  # nothing follows the axes: far faster than a matvec per block
        out = front[..., 0] @ mat.swapaxes(-1, -2)
    else:
        out = mat[..., None, :, :] @ front  # each item's matrix on each of its 2^a blocks
    if back is not None:
        out = out.reshape(out.shape[:lead] + (2,) * n).transpose(back)
    return out.reshape(out.shape[:lead] + tensor.shape[lead:])


def superoperator(kraus) -> np.ndarray:
    """The (4^k, 4^k) matrix of rho -> sum K rho K^dagger for Kraus operators on k
    qubits (a gate U is [U]); each index runs over the qubits as (row, column) bit pairs."""
    kraus = np.asarray(kraus)
    k = kraus.shape[-1].bit_length() - 1
    sup = np.einsum("kia,kjb->ijab", kraus, kraus.conj()).reshape((2,) * (4 * k))
    pairs = [a for q in range(k) for a in (q, k + q)]
    return sup.transpose(pairs + [2 * k + a for a in pairs]).reshape(4**k, 4**k)


def apply_superoperator(rho: np.ndarray, superop: np.ndarray, qubits) -> np.ndarray:
    """superop on ``qubits`` applied to rho in pair-adjacent order, its bit axes r0 c0 r1 c1 ...
    (each qubit's row and column bit side by side, as superoperator orders its indices), in any
    shape of 4^n entries, kept; or, as in apply_matrix, a stack of them under a stack of
    superoperators: apply_matrix on axes (2q, 2q + 1) of each qubit q."""
    return apply_matrix(rho, superop, tuple(a for q in qubits for a in (2 * q, 2 * q + 1)))


def kron(a, b):
    """Tensor product; the left factor occupies the lower qubit indices."""
    if np.shape(a)[0] * np.shape(b)[0] > 2**MAX_QUBITS:  # refuse before any copy
        raise ValueError(f"kron result exceeds {MAX_QUBITS}-qubit limit")
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def kron_all(*factors):
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = kron(out, f)
    return out


@functools.cache
def pauli_word(word: str) -> np.ndarray:
    """Dense matrix for a Pauli word like 'ZIXY' (index 0 = leftmost = qubit 0);
    built once per word, so shared and read-only."""
    table = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}
    out = kron_all(*(table[c] for c in word))
    out.setflags(write=False)
    return out


def expectation(rho: DensityMatrix, observable: np.ndarray) -> float:
    """Tr(O rho) for an observable Hermitian within 1e-10 scale, as vdot(O, rho) = Tr(O^dagger rho);
    an imaginary residue below 1e-9 scale is discarded. The scale is the largest real or imaginary
    part of an entry of O, taken as at least 1, so that both tolerances hold at any magnitude."""
    obs = np.asarray(observable, dtype=complex)
    if obs.shape != rho.mat.shape:
        raise ValueError("observable dimension mismatch")
    scale = max(1.0, np.abs(obs.view(float)).max(initial=0.0))
    if np.max(np.abs(obs - obs.conj().T)) > 1e-10 * scale:
        raise ValueError("observable not Hermitian")
    val = complex(np.vdot(obs, rho.mat))
    if abs(val.imag) >= 1e-9 * scale:
        raise ValueError(f"expectation has imaginary residue {val.imag:.3e}")
    return val.real


def bitstring(idx: int, n: int) -> str:
    return format(idx, f"0{n}b")
