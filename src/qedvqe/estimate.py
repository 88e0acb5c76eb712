"""H2 Hamiltonian handling, logical decoding, and energy/variance/SEM estimation.

The estimator treats the five Pauli terms as independently measured: the Z
terms share the computational-basis table, the XX term uses the
Hadamard-rotated table, and the variance model sums g_i^2 (1 - <P_i>^2)
without cross-term covariance. SEM combines the per-term pieces in
quadrature using each basis's post-selected sample count. The sampled rows
and the scan take the per-term pieces from one rule, ``term_variances``.
"""
from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field

import numpy as np

from .postselect import EmptySelectionError
from .qcore import ROLE_DATA, pauli_word
from .sim import MeasurementLayout, ShotTable

MODE_UNENCODED = "unencoded"
MODE_ENCODED = "encoded"


# Each term's Pauli word in coefficient order (g0 I, g1 Z0, g2 Z1, g3 Z0Z1,
# g4 X0X1), on the register of each mode: (q0, q1), or (a1, q0..q3, a2). In the
# [[4,2,2]] code each logical term is a parity of data qubits: Z0 -> q0 q1,
# Z1 -> q0 q2, Z0Z1 and X0X1 -> q1 q2.
WORDS = {
    MODE_UNENCODED: ("II", "ZI", "IZ", "ZZ", "XX"),
    MODE_ENCODED: ("IIIIII", "IZZIII", "IZIZII", "IIZZII", "IIXXII"),
}


@dataclass(frozen=True, eq=False)
class H2Hamiltonian:
    """g0 I + g1 Z0 + g2 Z1 + g3 Z0Z1 + g4 X0X1, coefficients in Hartree."""

    g0: float
    g1: float
    g2: float
    g3: float
    g4: float
    _observables: dict = field(default_factory=dict, init=False, repr=False)  # by mode

    def __post_init__(self):
        if not all(map(math.isfinite, self.coeffs)):
            raise ValueError("coefficients must be finite")

    @property
    def coeffs(self) -> tuple[float, ...]:
        return (self.g0, self.g1, self.g2, self.g3, self.g4)

    def observable(self, mode: str) -> np.ndarray:
        """The Hamiltonian as a matrix on the mode's register, built once per mode and shared, so read-only."""
        if mode not in self._observables:
            self._observables[mode] = sum(g * pauli_word(w) for g, w in zip(self.coeffs, WORDS[mode]))
            self._observables[mode].setflags(write=False)
        return self._observables[mode]

    def matrix(self) -> np.ndarray:
        return self.observable(MODE_UNENCODED)

    def logical_matrix(self) -> np.ndarray:
        """Physical observable over (a1, q0..q3, a2) realizing the logical terms."""
        return self.observable(MODE_ENCODED)

    def closed_form_energy(self, theta: float) -> float:
        """Noiseless energy of the ansatz state at angle theta."""
        return (
            self.g0
            + (self.g1 + self.g2) * math.cos(theta)
            + self.g3
            + self.g4 * math.sin(theta)
        )


def default_h2() -> H2Hamiltonian:
    return H2Hamiltonian(
        g0=-0.349833, g1=-0.388748, g2=-0.388748, g3=0.0111772, g4=0.181771
    )


THETA_STAR = -0.22967
E_STAR_HA = -1.13712


@dataclass(eq=False)
class EnergyEstimate:
    """Energy mean, per-shot variance and SEM in Hartree, with the kept shots and survival by basis."""

    mean: float  # Ha
    variance: float  # Ha^2
    sem: float  # Ha
    n_used: dict[str, int]
    eta: dict[str, float] = field(default_factory=lambda: {"Z": 1.0, "X": 1.0})


def _term_means(table: ShotTable, mode: str, basis: str):
    """Weighted means of the term observables measured in one basis.

    The terms are those whose words hold only I and the basis letter: Z0, Z1
    and Z0Z1 in the Z basis, X0X1 in the X basis. Each outcome's eigenvalue
    is the parity of its bits where the word is not I, so odd-parity encoded
    strings decode too (the NONE row keeps them). Integer counts accumulate
    exactly and divide once.
    """
    layout = table.layout
    words = [w for w in WORDS[mode][1:] if set(w) <= {"I", basis}]
    supports = [tuple(p for p, c in enumerate(w) if c != "I") for w in words]
    if len(words[0]) != len(layout.roles) or any(layout.roles[p] != ROLE_DATA for s in supports for p in s):
        raise ValueError(f"the {mode} words do not read the data qubits of a layout with roles {layout.roles}")
    total = table.n_shots
    if total <= 0.0:
        raise EmptySelectionError("no surviving samples")
    signs = np.where([layout.parity(s) for s in supports], -1, 1)
    return (signs @ table.weights) / total


def term_variances(ham: H2Hamiltonian, means) -> list:
    """g_i^2 (1 - m_i^2), clamped at 0, of each non-identity term at its mean m_i."""
    return [g * g * max(0.0, 1.0 - m * m) for g, m in zip(ham.coeffs[1:], means)]


def energy_from_shots(
    z_table: ShotTable,
    x_table: ShotTable,
    ham: H2Hamiltonian,
    mode: str = MODE_UNENCODED,
    eta=None,
) -> EnergyEstimate:
    """Estimate the energy from post-selected Z- and X-basis tables.

    Tables of shot counts give the SEM of their kept shots; tables of
    probabilities give the infinite-shot limit, with SEM 0 and n_used 0.
    """
    means = (*_term_means(z_table, mode, "Z"), *_term_means(x_table, mode, "X"))
    n_z, n_x = (t.n_shots if t.weights.dtype.kind in "iu" else 0 for t in (z_table, x_table))
    gs, ns = ham.coeffs[1:], (n_z, n_z, n_z, n_x)
    pieces = term_variances(ham, means)
    sem2 = sum(p / n for p, n in zip(pieces, ns)) if all(ns) else 0.0
    return EnergyEstimate(
        mean=ham.g0 + sum(g * m for g, m in zip(gs, means)),
        variance=sum(pieces),
        sem=math.sqrt(sem2),
        n_used={"Z": n_z, "X": n_x},
        eta=dict(eta or {"Z": 1.0, "X": 1.0}),
    )


def energy_from_distributions(
    z_probs: dict[str, float],
    x_probs: dict[str, float],
    layout: MeasurementLayout,
    ham: H2Hamiltonian,
    mode: str = MODE_UNENCODED,
    eta=None,
) -> EnergyEstimate:
    """Infinite-shot estimate from exact outcome distributions (SEM = 0)."""
    z_table, x_table = (ShotTable.of(probs, layout, float) for probs in (z_probs, x_probs))
    return energy_from_shots(z_table, x_table, ham, mode, eta)


def scan_theta(runner, n_points: int = 150):
    """Grid minimization over [-pi, pi]: runner(theta) -> EnergyEstimate.

    Returns (theta_min, [(theta, estimate), ...]); exact energy ties break
    toward smaller |theta|.
    """
    if n_points < 2:
        raise ValueError("need at least two grid points")
    grid = np.linspace(-math.pi, math.pi, n_points)
    curve = [(float(t), runner(float(t))) for t in grid]
    theta_min, _ = min(curve, key=lambda te: (te[1].mean, abs(te[0])))
    return theta_min, curve


def shot_budget(variance: float, target_sem: float) -> int:
    """Shots needed so that sqrt(variance / N) <= target_sem, rounded up."""
    if not (0.0 <= variance < math.inf and 0.0 < target_sem < math.inf):
        raise ValueError("variance must be finite and >= 0, and target_sem finite and > 0")
    if variance == 0.0:
        return 1
    square = target_sem * target_sem
    ratio = variance / square if square > 0.0 else math.inf
    if not math.isfinite(ratio):
        raise ValueError("variance / target_sem**2 is too large to count shots")
    return max(1, math.ceil(ratio - 1e-9))


# ---------------------------------------------------------------------------
# electronic-integral reduction and device cost
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Integrals:
    """One- and two-body integrals of the 4-spin-orbital H2 Hamiltonian."""

    h00: float
    h11: float
    h22: float
    h33: float
    h2002: float
    h3113: float
    h2112: float
    h0330: float
    h2103: float
    h2013: float
    h2332: float = 0.0
    h2323: float = 0.0
    h0110: float = 0.0
    h0101: float = 0.0

    def __post_init__(self, tol: float = 1e-10):
        if not all(map(math.isfinite, astuple(self))):
            raise ValueError("integrals must be finite")
        if abs(self.h2013 - self.h2103) > tol:
            raise ValueError("integral symmetry violated: h2013 != h2103")
        if abs(self.h2112 - self.h0330) > tol:
            raise ValueError("integral symmetry violated: h2112 != h0330")


def integrals_to_coeffs(ints: Integrals) -> tuple[float, float, float, float, float]:
    """Closed-form reduction of the integrals to the five qubit coefficients.

    Derived by restricting the second-quantized Hamiltonian to the four
    spin-singlet occupation states and expanding the projectors in Pauli
    words; the brute-force restriction is the test oracle. g1 carries the
    (h00, h11) orbital pair and multiplies the Z of the qubit recording that
    pair's occupation (the second ket symbol); for physical inputs, where
    each spatial orbital appears with both spins (h00 = h22, h11 = h33), the
    two Z coefficients coincide.
    """
    g0 = 0.5 * (ints.h00 + ints.h11 + ints.h22 + ints.h33) + 0.25 * (
        ints.h2002 + ints.h3113 + ints.h2112 + ints.h0330
    )
    g1 = 0.5 * (ints.h00 - ints.h11) + 0.25 * (
        ints.h2002 - ints.h3113 - ints.h2112 + ints.h0330
    )
    g2 = 0.5 * (ints.h22 - ints.h33) + 0.25 * (
        ints.h2002 - ints.h3113 + ints.h2112 - ints.h0330
    )
    g3 = 0.25 * (ints.h2002 + ints.h3113 - ints.h2112 - ints.h0330)
    g4 = ints.h2103
    return (g0, g1, g2, g3, g4)


@dataclass(frozen=True, eq=False)
class ResourceCount:
    """Gate and measurement counts of one circuit, with its shot count: the input of hqc_cost."""

    n_1q: int
    n_2q: int
    n_meas: int
    shots: int

    def __post_init__(self):
        if min(self.n_1q, self.n_2q, self.n_meas, self.shots) < 0:
            raise ValueError("resource counts must be nonnegative")


def hqc_cost(rc: ResourceCount) -> float:
    """Device-credit cost: 5 + (N1q + 10 N2q + 5 Nm) / 5000 * shots."""
    return 5.0 + (rc.n_1q + 10 * rc.n_2q + 5 * rc.n_meas) / 5000.0 * rc.shots
