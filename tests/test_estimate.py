import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qedvqe import builders, noise, qcore, sim
from qedvqe.estimate import (
    EnergyEstimate,
    H2Hamiltonian,
    Integrals,
    MODE_ENCODED,
    MODE_UNENCODED,
    ResourceCount,
    THETA_STAR,
    WORDS,
    _term_means,
    default_h2,
    energy_from_distributions,
    energy_from_shots,
    hqc_cost,
    integrals_to_coeffs,
    scan_theta,
    shot_budget,
)
from qedvqe.postselect import EmptySelectionError
from qedvqe.sim import MeasurementLayout, ShotTable


def make_table(counts, roles):
    return ShotTable.of(counts, make_layout(roles))


def make_layout(roles):
    return MeasurementLayout(tuple(range(len(roles))), tuple(roles))


UNENC_ROLES = (qcore.ROLE_DATA, qcore.ROLE_DATA)
ENC_ROLES = (qcore.ROLE_A1,) + (qcore.ROLE_DATA,) * 4 + (qcore.ROLE_A2,)


# ---------------------------------------------------------------------------
# Hamiltonian plumbing
# ---------------------------------------------------------------------------


def test_default_coefficients():
    ham = default_h2()
    assert (ham.g0, ham.g1, ham.g2, ham.g3, ham.g4) == (
        -0.349833, -0.388748, -0.388748, 0.0111772, 0.181771
    )
    assert ham.coeffs == (ham.g0, ham.g1, ham.g2, ham.g3, ham.g4)


def test_hamiltonian_rejects_non_finite_coefficients():
    for bad in (math.inf, -math.inf, math.nan):
        for i in range(5):
            coeffs = [0.1] * 5
            coeffs[i] = bad
            with pytest.raises(ValueError):
                H2Hamiltonian(*coeffs)


def test_matrix_matches_term_sum():
    ham = default_h2()
    words = ("II", "ZI", "IZ", "ZZ", "XX")
    want = sum(g * qcore.pauli_word(w) for g, w in zip(ham.coeffs, words))
    assert np.allclose(ham.matrix(), want)
    # the ground state is the ansatz state cos(t/2)|00> + sin(t/2)|11> at t = THETA_STAR
    evals, vecs = np.linalg.eigh(ham.matrix())
    v = vecs[:, 0] * abs(vecs[0, 0]) / vecs[0, 0]  # the phase that makes v[0] > 0
    theta = 2 * math.atan2(v[3].real, v[0].real)
    assert theta == pytest.approx(THETA_STAR, abs=5e-6)
    assert ham.closed_form_energy(theta) == pytest.approx(evals[0], abs=1e-9)


def test_closed_form_energy_reference_points():
    ham = default_h2()
    assert ham.closed_form_energy(0.0) == pytest.approx(-1.1161518, abs=1e-7)
    assert ham.closed_form_energy(THETA_STAR) == pytest.approx(-1.13712, abs=1e-5)


def test_logical_matrix_reproduces_energy_on_encoded_state():
    ham = default_h2()
    for theta in (0.0, THETA_STAR, 1.1):
        rho = builders.encoded_branch_state(theta, 0).outer()
        assert qcore.expectation(rho, ham.logical_matrix()) == pytest.approx(
            ham.closed_form_energy(theta), abs=1e-10
        )


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


def _decoded(data_bits):
    """Logical (Z0, Z1, ZZ) eigenvalues _term_means reads off one encoded outcome."""
    layout = make_layout(ENC_ROLES)
    return tuple(_term_means(ShotTable.of({"0" + data_bits + "0": 1}, layout), MODE_ENCODED, "Z"))


def _signs(l1, l2):
    return (1 - 2 * l1, 1 - 2 * l2, 1 - 2 * (l1 ^ l2))


def test_decode_logical_examples():
    assert _decoded("0000") == _decoded("1111") == _signs(0, 0)
    assert _decoded("1001") == _signs(1, 1)
    # odd-parity strings (kept by the NONE row) decode by the same parities
    assert _decoded("0001") == _signs(0, 0)
    assert _decoded("0100") == _signs(1, 0)


def test_decode_matches_codeword_supports():
    for (l1, l2), kets in builders.CODEWORD_SUPPORT.items():
        for bits in kets:
            assert _decoded(bits) == _signs(l1, l2)
    x_counts = {"0" + "0110" + "0": 3, "0" + "0101" + "0": 1}  # q1^q2 = 0, 1
    assert tuple(_term_means(make_table(x_counts, ENC_ROLES), MODE_ENCODED, "X")) == (0.5,)


@pytest.mark.parametrize(
    "mode, roles",
    [
        (MODE_ENCODED, UNENC_ROLES),
        (MODE_UNENCODED, ENC_ROLES),
        # the right length, but the encoded words would read the ancillas
        (MODE_ENCODED, (qcore.ROLE_DATA,) + (qcore.ROLE_A1,) * 4 + (qcore.ROLE_DATA,)),
    ],
)
def test_words_that_do_not_fit_the_layout_are_rejected(mode, roles):
    for basis in "ZX":
        with pytest.raises(ValueError):
            _term_means(make_table({"0" * len(roles): 1}, roles), mode, basis)


def _z_side(word):
    """The computational-basis word that reads the same parity as an X word."""
    return word.replace("X", "Z")


@settings(max_examples=30, deadline=None)
@given(
    encoded=st.booleans(),
    theta=st.floats(-math.pi, math.pi),
    p2=st.floats(0.0, 0.2),
    coeffs=st.tuples(*[st.floats(-2.0, 2.0)] * 5),
)
def test_decoded_means_equal_density_expectations(encoded, theta, p2, coeffs):
    """The parity decode of the exact Born distribution is Tr(P rho) for every word."""
    mode = MODE_ENCODED if encoded else MODE_UNENCODED
    build = builders.build_encoded_ansatz if encoded else builders.build_unencoded_ansatz
    model = noise.DepolarizingParams(p2=p2)
    rho = {b: sim.evolve_density(noise.attach_noise(build(theta, b), model)) for b in "ZX"}
    probs = {b: sim.born_distribution(rho[b]) for b in "ZX"}
    layout = MeasurementLayout.of(build(theta, "Z"))
    _, z0, z1, zz, xx = WORDS[mode]
    want_z = [qcore.expectation(rho["Z"], qcore.pauli_word(w)) for w in (z0, z1, zz)]
    want_xx = qcore.expectation(rho["X"], qcore.pauli_word(_z_side(xx)))
    assert np.allclose(_term_means(ShotTable.of(probs["Z"], layout), mode, "Z"), want_z, rtol=0, atol=1e-9)
    assert _term_means(ShotTable.of(probs["X"], layout), mode, "X")[0] == pytest.approx(want_xx, abs=1e-9)
    ham = H2Hamiltonian(*coeffs)
    est = energy_from_distributions(probs["Z"], probs["X"], layout, ham, mode)
    want = ham.g0 + sum(g * m for g, m in zip(ham.coeffs[1:], want_z + [want_xx]))
    assert est.mean == pytest.approx(want, abs=1e-9)


# ---------------------------------------------------------------------------
# energy estimation
# ---------------------------------------------------------------------------


def test_energy_theta_zero_from_synthetic_tables():
    ham = default_h2()
    z = make_table({"00": 1000}, UNENC_ROLES)
    # theta = 0 X-basis outcomes are uniform: the XX estimate vanishes
    x = make_table({"00": 250, "01": 250, "10": 250, "11": 250}, UNENC_ROLES)
    est = energy_from_shots(z, x, ham, mode="unencoded")
    assert est.mean == pytest.approx(ham.g0 + ham.g1 + ham.g2 + ham.g3, abs=1e-12)
    assert est.mean == pytest.approx(-1.116152, abs=1e-6)


def test_energy_infinite_shot_limit_at_optimum():
    ham = default_h2()
    dists = {}
    for basis in "ZX":
        circ = builders.build_unencoded_ansatz(THETA_STAR, basis)
        dists[basis] = sim.born_distribution(sim.evolve_density(noise.noiseless(circ)))
    layout = MeasurementLayout.of(builders.build_unencoded_ansatz(THETA_STAR, "Z"))
    est = energy_from_distributions(dists["Z"], dists["X"], layout, ham, mode="unencoded")
    assert est.mean == pytest.approx(-1.13712, abs=1e-5)
    assert est.sem == 0.0


def test_energy_agrees_with_density_expectation_under_noise():
    ham = default_h2()
    model = noise.DepolarizingParams(p2=0.003)
    circ = builders.build_unencoded_ansatz(THETA_STAR, "Z")
    rho = sim.evolve_density(noise.attach_noise(circ, model))
    # Z-side estimators from the distribution equal Tr(P rho) term-by-term
    probs = sim.born_distribution(rho)
    layout = MeasurementLayout.of(circ)
    x_dummy = sim.born_distribution(
        sim.evolve_density(noise.attach_noise(builders.build_unencoded_ansatz(THETA_STAR, "X"), model))
    )
    est = energy_from_distributions(probs, x_dummy, layout, ham, mode="unencoded")
    direct = sum(
        ham_coeff * qcore.expectation(rho, qcore.pauli_word(word))
        for ham_coeff, word in ((ham.g0, "II"), (ham.g1, "ZI"), (ham.g2, "IZ"), (ham.g3, "ZZ"))
    )
    z_part = est.mean - ham.g4 * _xx_mean(x_dummy)
    assert z_part == pytest.approx(direct, abs=1e-9)


def _xx_mean(x_probs):
    return sum(p * (1 - 2 * (int(k[0]) ^ int(k[1]))) for k, p in x_probs.items())


def test_encoded_energy_uses_logical_parities():
    ham = default_h2()
    # pure |11>-bar support: 0110 and 1001 decode to logical (1,1)
    z = make_table({"0" + "0110" + "0": 600, "0" + "1001" + "0": 400}, ENC_ROLES)
    # X table balances q1 xor q2 so the logical XX estimate vanishes
    x = make_table({"0" + "0000" + "0": 250, "0" + "0101" + "0": 250,
                    "0" + "1111" + "0": 250, "0" + "1010" + "0": 250}, ENC_ROLES)
    est = energy_from_shots(z, x, ham, mode="encoded")
    # <Z1> = <Z2> = -1, <ZZ> = +1, <XX> = 0
    assert est.mean == pytest.approx(ham.g0 - ham.g1 - ham.g2 + ham.g3, abs=1e-12)


def test_variance_identity_at_optimum():
    ham = default_h2()
    c, s = math.cos(THETA_STAR), math.sin(THETA_STAR)
    pieces = [
        ham.g1**2 * (1 - c * c),
        ham.g2**2 * (1 - c * c),
        ham.g3**2 * (1 - 1.0),
        ham.g4**2 * (1 - s * s),
    ]
    assert sum(pieces) == pytest.approx(0.04700, abs=1e-4)


def test_sem_combines_per_basis_counts():
    ham = default_h2()
    z = make_table({"00": 900, "11": 100}, UNENC_ROLES)
    x = make_table({"00": 300, "01": 100}, UNENC_ROLES)
    est = energy_from_shots(z, x, ham, mode="unencoded")
    mz = [0.8, 0.8, 1.0]
    mx = 0.5
    want = math.sqrt(
        ham.g1**2 * (1 - mz[0] ** 2) / 1000
        + ham.g2**2 * (1 - mz[1] ** 2) / 1000
        + ham.g3**2 * (1 - mz[2] ** 2) / 1000
        + ham.g4**2 * (1 - mx**2) / 400
    )
    assert est.sem == pytest.approx(want, abs=1e-15)
    assert est.n_used == {"Z": 1000, "X": 400}


def test_mean_is_linear_in_term_estimates():
    ham = default_h2()
    z = make_table({"00": 700, "01": 200, "11": 100}, UNENC_ROLES)
    x = make_table({"00": 300, "10": 100}, UNENC_ROLES)
    est = energy_from_shots(z, x, ham, mode="unencoded")
    z1 = (700 + 200 - 100) / 1000  # (-1)^{b0}
    z2 = (700 - 200 - 100) / 1000
    zz = (700 - 200 + 100) / 1000
    xx = (300 - 100) / 400
    want = ham.g0 + ham.g1 * z1 + ham.g2 * z2 + ham.g3 * zz + ham.g4 * xx
    assert est.mean == pytest.approx(want, abs=1e-15)


def test_energy_errors_on_empty_tables():
    ham = default_h2()
    z = make_table({}, UNENC_ROLES)
    x = make_table({"00": 1}, UNENC_ROLES)
    with pytest.raises(EmptySelectionError):
        energy_from_shots(z, x, ham)


# ---------------------------------------------------------------------------
# theta scan
# ---------------------------------------------------------------------------


def _density_runner(ham, model=None):
    def runner(theta):
        circ = builders.build_unencoded_ansatz(theta, "Z")
        nc = noise.attach_noise(circ, model) if model else noise.noiseless(circ)
        rho = sim.evolve_density(nc)
        return EnergyEstimate(qcore.expectation(rho, ham.matrix()), 0.0, 0.0, {})
    return runner


def test_scan_finds_grid_point_nearest_optimum():
    ham = default_h2()
    theta_min, curve = scan_theta(_density_runner(ham), n_points=150)
    grid = np.linspace(-math.pi, math.pi, 150)
    assert theta_min == pytest.approx(grid[np.argmin(np.abs(grid - THETA_STAR))], abs=1e-12)
    for theta, est in curve:
        assert est.mean == pytest.approx(ham.closed_form_energy(theta), abs=1e-9)


def test_scan_zero_g4_minimizes_at_smallest_angle():
    ham = H2Hamiltonian(-0.3, -0.4, -0.4, 0.01, 0.0)
    theta_min, _ = scan_theta(_density_runner(ham), n_points=150)
    grid = np.linspace(-math.pi, math.pi, 150)
    assert abs(theta_min) == pytest.approx(np.min(np.abs(grid)), abs=1e-12)


def test_scan_requires_two_points():
    with pytest.raises(ValueError):
        scan_theta(_density_runner(default_h2()), n_points=1)


# ---------------------------------------------------------------------------
# shot budget and device cost
# ---------------------------------------------------------------------------


def test_shot_budget_reference_values():
    assert shot_budget(0.04700, 0.5e-3) == 188000
    assert shot_budget(0.04, 1e-3) == 40000
    assert shot_budget(0.0, 1e-3) == 1
    for variance, target_sem in ((0.1, 0.0), (math.inf, 1e-3), (0.1, math.nan), (0.047, 1e-300), (1e308, 1e-3)):
        with pytest.raises(ValueError):
            shot_budget(variance, target_sem)


def test_hqc_cost_examples():
    assert hqc_cost(ResourceCount(0, 0, 0, 0)) == 5.0
    assert hqc_cost(ResourceCount(9, 18, 18, 125400)) == pytest.approx(7002.32)
    assert hqc_cost(ResourceCount(7, 25, 18, 376000)) == pytest.approx(26099.4)


def test_hqc_linear_in_shots():
    base = hqc_cost(ResourceCount(3, 7, 6, 1000)) - 5.0
    assert hqc_cost(ResourceCount(3, 7, 6, 5000)) - 5.0 == pytest.approx(5 * base)


# ---------------------------------------------------------------------------
# integral reduction (closed form + fermionic brute force)
# ---------------------------------------------------------------------------


def test_integrals_all_zero():
    ints = Integrals(0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    assert integrals_to_coeffs(ints) == (0, 0, 0, 0, 0)


def test_integrals_one_body_example():
    # frozen from the fermionic restriction oracle below: the one-body pieces
    # carry the 1/2 from E_pp = (I +- Z)/2
    ints = Integrals(h00=-1, h11=0, h22=0, h33=-1, h2002=0, h3113=0,
                     h2112=0, h0330=0, h2103=0, h2013=0)
    assert integrals_to_coeffs(ints) == (-1, -0.5, 0.5, 0, 0)


def test_integrals_symmetry_enforced():
    with pytest.raises(ValueError):
        Integrals(0, 0, 0, 0, 0, 0, 0.1, 0.2, 0, 0)
    with pytest.raises(ValueError):
        Integrals(0, 0, 0, 0, 0, 0, 0, 0, 0.3, 0.2)


def _fermion_ops():
    """Annihilation matrices on the 16-dim Fock space, modes ordered a3 a2 a1 a0."""
    ops = []
    for p in range(4):
        mat = np.zeros((16, 16))
        for m in range(16):
            if (m >> p) & 1:
                sign = (-1) ** bin(m >> (p + 1)).count("1")
                mat[m & ~(1 << p), m] = sign
        ops.append(mat)
    return ops


def _second_quantized(ints: Integrals) -> np.ndarray:
    a = _fermion_ops()
    ad = [m.T for m in a]
    h = (
        ints.h00 * ad[0] @ a[0]
        + ints.h22 * ad[2] @ a[2]
        + ints.h33 * ad[3] @ a[3]
        + ints.h11 * ad[1] @ a[1]
        + ints.h2002 * ad[2] @ ad[0] @ a[0] @ a[2]
        + ints.h3113 * ad[3] @ ad[1] @ a[1] @ a[3]
        + ints.h2112 * ad[2] @ ad[1] @ a[1] @ a[2]
        + ints.h0330 * ad[0] @ ad[3] @ a[3] @ a[0]
        + (ints.h2332 - ints.h2323) * ad[2] @ ad[3] @ a[3] @ a[2]
        + (ints.h0110 - ints.h0101) * ad[0] @ ad[1] @ a[1] @ a[0]
        + ints.h2103 * (ad[2] @ ad[1] @ a[0] @ a[3] + ad[3] @ ad[0] @ a[1] @ a[2])
        + ints.h2013 * (ad[2] @ ad[0] @ a[1] @ a[3] + ad[3] @ ad[1] @ a[0] @ a[2])
    )
    return h


# singlet occupation states in |q0 q1> = |00>, |01>, |10>, |11> order
_SINGLET = [0b0101, 0b0110, 0b1001, 0b1010]


def test_integrals_match_fermionic_restriction_on_random_inputs():
    rng = np.random.default_rng(5)
    for _ in range(10):
        v = rng.normal(size=12)
        ints = Integrals(
            h00=v[0], h11=v[1], h22=v[2], h33=v[3],
            h2002=v[4], h3113=v[5], h2112=v[6], h0330=v[6],
            h2103=v[7], h2013=v[7],
            h2332=v[8], h2323=v[9], h0110=v[10], h0101=v[11],
        )
        h16 = _second_quantized(ints)
        restricted = np.array([[h16[i, j] for j in _SINGLET] for i in _SINGLET])
        g = integrals_to_coeffs(ints)
        # g1's orbital pair (modes 0/1) is recorded by the second ket symbol
        words = ("II", "IZ", "ZI", "ZZ", "XX")
        qubit = sum(c * qcore.pauli_word(w) for c, w in zip(g, words))
        assert np.max(np.abs(restricted - qubit)) < 1e-9


def test_default_h2_consistent_with_reduction_identities():
    # g1 == g2 holds for the published coefficients, as the reduction implies
    ham = default_h2()
    assert ham.g1 == ham.g2
