import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qedvqe import analysis, builders, noise, qcore, sim
from qedvqe.analysis import (
    LogicalErrorReport,
    build_projector,
    fidelity,
    logical_error_report,
    project_qubit,
    project_state,
    projected_fidelity,
)
from qedvqe.qcore import DensityMatrix, StateVector


def embed_data_state(data_vec, a1=0, a2=0):
    """Lift a 4-qubit data vector into the 6-qubit (a1, data, a2) register."""
    e1 = np.zeros(2)
    e1[a1] = 1
    e2 = np.zeros(2)
    e2[a2] = 1
    return StateVector(6, qcore.kron_all(e1, data_vec, e2))


def random_density(rng, n, rank=None):
    dim = 2**n
    m = rng.normal(size=(dim, rank or dim)) + 1j * rng.normal(size=(dim, rank or dim))
    m = m @ m.conj().T
    return DensityMatrix(n, m / np.trace(m).real)


# ---------------------------------------------------------------------------
# projectors
# ---------------------------------------------------------------------------

RANKS = {"PI_A": 16, "PI_P": 8, "PI_AP": 4, "S_A": 16, "S_P": 8, "S_AP": 4}


@pytest.mark.parametrize("kind", list(RANKS))
def test_projectors_hermitian_idempotent_with_expected_rank(kind):
    pi = build_projector(kind)
    assert np.max(np.abs(pi - pi.conj().T)) < 1e-12
    assert np.max(np.abs(pi @ pi - pi)) < 1e-12
    assert round(np.trace(pi).real) == RANKS[kind]


def test_pi_p_fixes_codewords_and_kills_odd_parity():
    pi = build_projector("PI_P")
    state = embed_data_state(builders.codeword(0, 0)).amps
    assert np.allclose(pi @ state, state, atol=1e-12)
    odd = np.zeros(16)
    odd[int("0001", 2)] = 1.0
    bad = embed_data_state(odd).amps
    assert np.max(np.abs(pi @ bad)) < 1e-12


def test_pi_p_rejects_phase_partner_of_codeword():
    # (|0000> - |1111>)/sqrt(2) has even parity but lies outside the codespace
    partner = np.zeros(16)
    partner[0] = 1 / math.sqrt(2)
    partner[15] = -1 / math.sqrt(2)
    state = embed_data_state(partner).amps
    pi = build_projector("PI_P")
    assert np.max(np.abs(pi @ state)) < 1e-12


def test_s_p_trace_on_maximally_mixed():
    rho = DensityMatrix(5, np.eye(32) / 32)
    pi = build_projector("S_P")
    assert np.trace(pi @ rho.mat).real == pytest.approx(8 / 32, abs=1e-12)


def test_projectors_are_built_once_and_read_only():
    pi = build_projector("PI_AP")
    assert build_projector("PI_AP") is pi
    with pytest.raises(ValueError, match="read-only"):
        pi[0, 0] = 0.0
    with pytest.raises(ValueError, match="unknown projector kind"):
        build_projector("PI_X")


PROJECTORS = {kind: build_projector(kind) for kind in RANKS}


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 64))
def test_projector_hierarchy_on_random_states(seed, rank):
    """Every projector is a Hermitian idempotent, and the product rules keep
    no more weight than either factor: PI_AP against PI_A and PI_P, S_AP
    against S_A and S_P."""
    rng = np.random.default_rng(seed)
    for n, (a, p, ap) in ((6, ("PI_A", "PI_P", "PI_AP")), (5, ("S_A", "S_P", "S_AP"))):
        rho = random_density(rng, n, rank)
        weight = {}
        for kind in (a, p, ap):
            pi = PROJECTORS[kind]
            assert np.max(np.abs(pi - pi.conj().T)) < 1e-12
            assert np.max(np.abs(pi @ pi - pi)) < 1e-12
            weight[kind] = np.trace(pi @ rho.mat).real
            assert -1e-12 <= weight[kind] <= 1.0 + 1e-12
        assert weight[ap] <= min(weight[a], weight[p]) + 1e-12


# ---------------------------------------------------------------------------
# projected states
# ---------------------------------------------------------------------------


def test_project_noiseless_encoded_state_is_ideal_branch():
    rho = sim.evolve_density(noise.noiseless(builders.build_encoded_ansatz(0.8, "Z")))
    proj = project_state(rho, "PI_AP")
    ideal = builders.encoded_branch_state(0.8, 0).outer()
    assert fidelity(ideal, proj) == pytest.approx(1.0, abs=1e-10)


def test_projection_removes_single_bit_flip_component():
    ideal = embed_data_state(builders.codeword(0, 0)).outer()
    corrupted_vec = embed_data_state(
        qcore.pauli_word("IXII") @ builders.codeword(0, 0)
    )
    mixed = DensityMatrix(6, 0.5 * ideal.mat + 0.5 * corrupted_vec.outer().mat)
    recovered = project_state(mixed, "PI_P")
    assert fidelity(ideal, recovered) == pytest.approx(1.0, abs=1e-12)


def test_project_vanishing_support_raises():
    odd = np.zeros(16)
    odd[1] = 1.0
    rho = embed_data_state(odd).outer()
    with pytest.raises(ValueError):
        project_state(rho, "PI_P")


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
def test_projected_fidelity_equals_that_of_the_projected_state(seed, rank):
    rng = np.random.default_rng(seed)
    for kind, pi in PROJECTORS.items():
        n = pi.shape[0].bit_length() - 1
        psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        ket, rho = StateVector(n, psi / np.linalg.norm(psi)), random_density(rng, n, rank)
        assert abs(projected_fidelity(ket, kind)(rho) - fidelity(ket, project_state(rho, kind))) <= 1e-12
        # a state with no weight in the projector's range is a total rejection on both routes
        outside = DensityMatrix(n, (np.eye(2**n) - pi) / (2**n - RANKS[kind]))
        for route in (lambda: projected_fidelity(ket, kind)(outside), lambda: project_state(outside, kind)):
            with pytest.raises(ValueError, match="vanishing support"):
                route()


def test_project_qubit_conditions_on_value():
    rho = sim.evolve_density(noise.noiseless(builders.build_encoded_ansatz(0.5, "Z")))
    branch = project_qubit(rho, 5, 0)
    ideal = builders.encoded_branch_state(0.5, 0).outer()
    assert fidelity(ideal, branch) == pytest.approx(1.0, abs=1e-10)


def test_project_qubit_equals_the_dense_projector_route():
    # the mask keeps exactly what P rho P keeps for P = |value><value| on the qubit
    rng = np.random.default_rng(13)
    one = np.array([[0, 0], [0, 1]], dtype=complex)
    for n in range(1, 7):
        rho = random_density(rng, n, int(rng.integers(1, 2**n + 1)))
        for qubit in range(n):
            for value, p in ((0, analysis._P0), (1, one)):
                proj = qcore.kron_all(*[p if q == qubit else np.eye(2) for q in range(n)])
                mat = proj @ rho.mat @ proj
                assert np.array_equal(project_qubit(rho, qubit, value).mat, mat / np.trace(mat).real)
    with pytest.raises(ValueError, match="vanishing support"):
        project_qubit(DensityMatrix.zero(3), 1, 1)


@pytest.mark.parametrize("qubit, value", [(6, 0), (-1, 0), (7, 1), (2, 2), (0, -1)])
def test_project_qubit_rejects_a_qubit_or_value_it_cannot_condition_on(qubit, value):
    rho = sim.evolve_density(noise.noiseless(builders.build_encoded_ansatz(0.5, "Z")))
    with pytest.raises(ValueError, match=f"cannot condition qubit {qubit} of 6 on value {value}"):
        project_qubit(rho, qubit, value)


# ---------------------------------------------------------------------------
# fidelity
# ---------------------------------------------------------------------------


def test_fidelity_reference_values():
    rng = np.random.default_rng(1)
    rho = random_density(rng, 2)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)
    zero = StateVector(1, [1, 0]).outer()
    one = StateVector(1, [0, 1]).outer()
    assert fidelity(zero, one) == pytest.approx(0.0, abs=1e-12)
    mixed = DensityMatrix(1, np.eye(2) / 2)
    assert fidelity(zero, mixed) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_dimension_guard():
    with pytest.raises(ValueError):
        fidelity(DensityMatrix.zero(1), DensityMatrix.zero(2))


def test_pure_shortcut_agrees_with_eigendecomposition_route():
    rng = np.random.default_rng(2)
    for _ in range(5):
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        pure = StateVector(3, psi).outer()
        rho = random_density(rng, 3)
        shortcut = fidelity(pure, rho)
        assert shortcut == pytest.approx((psi.conj() @ rho.mat @ psi).real, abs=1e-10)
        # the general route loses ~1e-9 to the sqrt's vanishing eigenvalues
        s2 = analysis._psd_sqrt(rho.mat)
        general = np.trace(analysis._psd_sqrt(s2 @ pure.mat @ s2)).real ** 2
        assert shortcut == pytest.approx(general, abs=1e-8)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), rank=st.integers(1, 64))
def test_fidelity_of_a_ket_equals_that_of_its_projector(seed, n, rank):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    ket = StateVector(n, psi / np.linalg.norm(psi))
    rho = random_density(rng, n, min(rank, 2**n))
    want = fidelity(ket.outer(), rho)
    for got in (fidelity(ket, rho), fidelity(rho, ket)):
        assert abs(got - want) <= 1e-12
    # two kets: |<a|b>|^2, which the ket-and-density route also gives
    phi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    other = StateVector(n, phi / np.linalg.norm(phi))
    want = fidelity(ket, other.outer())
    for got in (fidelity(ket, other), fidelity(other, ket)):
        assert abs(got - want) <= 1e-12
    if n == 6:  # an ideal branch state lies in the codespace, as the report needs
        ideal = builders.encoded_branch_state(rng.uniform(-math.pi, math.pi), 0)
        by_ket, by_projector = logical_error_report(rho, ideal), logical_error_report(rho, ideal.outer())
        for field in ("p_ideal", "p_eps_all", "p_eps_L", "p_eps_A"):
            assert abs(getattr(by_ket, field) - getattr(by_projector, field)) <= 1e-12


def test_fidelity_symmetric_in_arguments():
    rng = np.random.default_rng(3)
    a = random_density(rng, 2)
    b = random_density(rng, 2)
    assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-9)


# ---------------------------------------------------------------------------
# logical error report
# ---------------------------------------------------------------------------


def _ideal_branch(theta=0.37):
    return builders.encoded_branch_state(theta, 0).outer()


def test_report_zero_for_ideal_state():
    ideal = _ideal_branch()
    rep = logical_error_report(ideal, ideal)
    assert rep.p_eps_all == pytest.approx(0.0, abs=1e-12)
    assert rep.p_eps_L == pytest.approx(0.0, abs=1e-12)
    assert rep.p_eps_A == pytest.approx(0.0, abs=1e-12)


def test_report_logical_mixture():
    ideal = _ideal_branch()
    other = embed_data_state(builders.codeword(1, 0)).outer()  # orthogonal codeword
    rho = DensityMatrix(6, 0.9 * ideal.mat + 0.1 * other.mat)
    rep = logical_error_report(rho, ideal)
    assert rep.p_eps_L == pytest.approx(0.1, abs=1e-12)
    assert rep.p_eps_NL == pytest.approx(0.0, abs=1e-12)


def test_report_non_logical_mixture():
    ideal = _ideal_branch()
    odd = np.zeros(16)
    odd[int("0100", 2)] = 1.0
    rho = DensityMatrix(6, 0.9 * ideal.mat + 0.1 * embed_data_state(odd).outer().mat)
    rep = logical_error_report(rho, ideal)
    assert rep.p_eps_NL == pytest.approx(0.1, abs=1e-12)
    assert rep.p_eps_L == pytest.approx(0.0, abs=1e-12)


def test_report_identity_and_bounds_under_noise():
    theta = -0.22967
    model = noise.DepolarizingParams(p2=0.02)
    rho = sim.evolve_density(noise.attach_noise(builders.build_encoded_ansatz(theta, "Z"), model))
    rho0 = project_qubit(rho, 5, 0)
    rep = logical_error_report(rho0, builders.encoded_branch_state(theta, 0).outer())
    assert rep.p_eps_L == pytest.approx(rep.p_eps_all - rep.p_eps_NL, abs=1e-12)
    assert -1e-10 <= rep.p_eps_A <= rep.p_eps_L <= rep.p_eps_all <= 1.0


def test_report_requires_pure_ideal():
    mixed = DensityMatrix(6, np.eye(64) / 64)
    with pytest.raises(ValueError):
        logical_error_report(mixed, mixed)


def test_report_field_range_validation():
    with pytest.raises(ValueError):
        LogicalErrorReport(1.5, 0, 0, 0, 0, 0)
