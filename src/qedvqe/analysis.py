"""Fidelity, codespace projectors, projected states and fidelities, and logical-error metrics.

Projector conventions (register order a1, q0..q3, a2 for the ansatz; a1,
q0..q3 for the preparation study):

* PI_A keeps a1 = 0 and a2 = 0;
* PI_P keeps the span of the four logical codewords (strictly the four
  |x>-bar kets, not the full even-parity subspace) and a2 = 0;
* PI_AP is their product. S_A / S_P / S_AP are the 5-qubit analogues without
  the a2 factor.

Shot-level parity post-selection keeps *all* even-parity strings and is
therefore a strictly coarser filter than PI_P, which also rejects the
relative-phase partners of the codewords; both objects exist here because
the study uses each in its own context.
"""
from __future__ import annotations

import functools

import numpy as np

from .builders import codeword
from .qcore import DensityMatrix, Record, StateVector, kron_all

PROJECTOR_KINDS = ("PI_A", "PI_P", "PI_AP", "S_A", "S_P", "S_AP")

_I2 = np.eye(2, dtype=complex)
_P0 = np.array([[1, 0], [0, 0]], dtype=complex)


def _code_projector() -> np.ndarray:
    out = np.zeros((16, 16), dtype=complex)
    for l1 in (0, 1):
        for l2 in (0, 1):
            v = codeword(l1, l2)
            out += np.outer(v, v.conj())
    return out


@functools.cache
def build_projector(kind: str) -> np.ndarray:
    """Hermitian idempotent projector for the requested post-selection rule."""
    if kind not in PROJECTOR_KINDS:
        raise ValueError(f"unknown projector kind {kind!r}")
    code, eye4 = _code_projector(), np.eye(16, dtype=complex)
    factors = {
        "PI_A": (_P0, eye4, _P0), "PI_P": (_I2, code, _P0), "PI_AP": (_P0, code, _P0),
        "S_A": (_P0, eye4), "S_P": (_I2, code), "S_AP": (_P0, code),
    }[kind]
    out = kron_all(*factors)
    out.setflags(write=False)  # built once and shared by every caller
    return out


def project_state(rho: DensityMatrix, kind: str) -> DensityMatrix:
    """Normalized projected state Pi rho Pi / Tr(Pi rho Pi)."""
    pi = build_projector(kind)
    mat = pi @ rho.mat @ pi.conj().T
    return DensityMatrix(rho.n_qubits, mat / support(np.trace(mat).real))


def projected_fidelity(ket: StateVector, kind: str):
    """rho -> fidelity(ket, project_state(rho, kind)) without the projected state, Pi|psi> taken
    once for every rho: Pi is Hermitian and idempotent, so the fidelity is
    <Pi psi|rho|Pi psi> / Tr(Pi rho), with Tr(Pi rho) = vdot(Pi, rho)."""
    pi = build_projector(kind)
    phi = pi @ ket.amps
    bra = phi.conj()

    def of(rho: DensityMatrix) -> float:
        weight = support(float(np.vdot(pi, rho.mat).real))
        return float(min(max((bra @ rho.mat @ phi).real / weight, 0.0), 1.0))

    return of


def qubit_branch(rho: DensityMatrix, qubit: int, value: int) -> np.ndarray:
    """P rho P, unnormalized, for the diagonal projector P on one qubit's
    computational value: rho masked to the rows and columns that hold it."""
    if not 0 <= qubit < rho.n_qubits or value not in (0, 1):
        raise ValueError(f"cannot condition qubit {qubit} of {rho.n_qubits} on value {value}")
    keep = (np.arange(2**rho.n_qubits) >> (rho.n_qubits - 1 - qubit)) & 1 == value
    return np.where(keep[:, None] & keep, rho.mat, 0.0)


def project_qubit(rho: DensityMatrix, qubit: int, value: int) -> DensityMatrix:
    """Condition a density matrix on a computational value of one qubit: its qubit_branch, normalized."""
    mat = qubit_branch(rho, qubit, value)
    return DensityMatrix(rho.n_qubits, mat / support(np.trace(mat).real))


def support(weight: float) -> float:
    """The weight a projection keeps; one at or below 1e-14 is a total rejection, a ValueError."""
    if weight <= 1e-14:
        raise ValueError("projection has vanishing support (total rejection)")
    return weight


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    # eigenvalues at roundoff scale are zero; their square roots would
    # otherwise inject sqrt(eps)-sized bias into trace formulas
    floor = 1e-13 * max(vals.max(initial=0.0), 1e-300)
    vals = np.where(vals > floor, vals, 0.0)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def _pure_ket(state) -> np.ndarray | None:
    """A StateVector's amplitudes, a rank-one DensityMatrix's top eigenvector
    (every other eigenvalue below 1e-10), else None."""
    if isinstance(state, StateVector):
        return state.amps
    vals, vecs = np.linalg.eigh(state.mat)
    return vecs[:, -1] if vals[:-1].max(initial=0.0) < 1e-10 else None


def fidelity(rho1, rho2) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho2) rho1 sqrt(rho2)))^2; either state may be a StateVector.

    When either state is pure (a ket, or a DensityMatrix of rank one) the
    shortcut <psi|rho|psi> is used; the two routes agree to the stated tolerance
    and the general eigendecomposition route remains available for mixed/mixed pairs.
    """
    if rho1.n_qubits != rho2.n_qubits:
        raise ValueError("fidelity needs equal dimensions")
    if isinstance(rho2, StateVector):  # a ket is taken first, without eigh
        rho1, rho2 = rho2, rho1
    for a, b in ((rho1, rho2), (rho2, rho1)):
        psi = _pure_ket(a)
        if psi is not None:
            val = abs(np.vdot(psi, b.amps)) ** 2 if isinstance(b, StateVector) else (psi.conj() @ b.mat @ psi).real
            return float(min(max(val, 0.0), 1.0))
    s2 = _psd_sqrt(rho2.mat)
    inner = _psd_sqrt(s2 @ rho1.mat @ s2)
    return float(min(max(np.trace(inner).real ** 2, 0.0), 1.0))


class LogicalErrorReport(Record):
    """Error-probability split of a noisy encoded state against the ideal one.

    p_eps_all is any deviation from the ideal state, p_eps_NL the weight
    outside the codespace (detectable), p_eps_L their difference (logical,
    undetectable), and p_eps_A the codespace-weight excess of the
    a1-projected state.
    """

    __slots__ = ("p_ideal", "p_logical", "p_eps_all", "p_eps_NL", "p_eps_L", "p_eps_A")

    def __init__(
        self, p_ideal: float, p_logical: float, p_eps_all: float, p_eps_NL: float, p_eps_L: float, p_eps_A: float,
    ):
        for name, v in zip(self.__slots__, (p_ideal, p_logical, p_eps_all, p_eps_NL, p_eps_L, p_eps_A)):
            if not -1e-10 <= v <= 1.0 + 1e-10:
                raise ValueError(f"{name}={v} outside [0, 1]")
            object.__setattr__(self, name, v)


def logical_error_report(rho_noisy: DensityMatrix, rho_ideal) -> LogicalErrorReport:
    """Logical/non-logical error split over the a2=0 branch of the encoded
    register, against a pure ideal state (a StateVector or a DensityMatrix)."""
    psi = _pure_ket(rho_ideal)
    if psi is None:
        raise ValueError("rho_ideal must be pure")
    p_ideal = float((psi.conj() @ rho_noisy.mat @ psi).real)
    # Tr(P rho) = vdot(P, rho) for Hermitian P, as qcore.expectation takes it, with no matrix product
    p_logical = float(np.vdot(build_projector("PI_P"), rho_noisy.mat).real)
    p_ap = float(np.vdot(build_projector("PI_AP"), rho_noisy.mat).real)
    p_eps_all = 1.0 - p_ideal
    p_eps_nl = 1.0 - p_logical
    return LogicalErrorReport(
        p_ideal=p_ideal,
        p_logical=p_logical,
        p_eps_all=p_eps_all,
        p_eps_NL=p_eps_nl,
        p_eps_L=p_eps_all - p_eps_nl,
        p_eps_A=p_ap - p_ideal,
    )
