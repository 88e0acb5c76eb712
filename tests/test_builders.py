import math

import numpy as np
import pytest

from qedvqe import noise, qcore, sim
from qedvqe.builders import (
    BASIS_X,
    BASIS_Z,
    build_encoded_ansatz,
    build_state_prep_422,
    build_unencoded_ansatz,
    codeword,
    encoded_branch_state,
    encoded_target_state,
    prep_target_state,
    unencoded_target_state,
    wrap_with_red,
)
from qedvqe.qcore import Circuit, StateVector, apply_matrix, kron_all, pauli_word


def unitary_ops(circ):
    return [op for op in circ.ops if op.is_unitary]


def final_state(circ):
    amps = StateVector.zero(circ.n_qubits).amps
    for op in unitary_ops(circ):
        amps = apply_matrix(amps, op.matrix(), op.qubits)
    return StateVector(circ.n_qubits, amps)


def fidelity_to(target, circ):
    return abs(np.vdot(target.amps, final_state(circ).amps)) ** 2


def born(circ, model=None):
    nc = noise.attach_noise(circ, model) if model else noise.noiseless(circ)
    return sim.born_distribution(sim.evolve_density(nc))


# ---------------------------------------------------------------------------
# unencoded ansatz
# ---------------------------------------------------------------------------


def test_unencoded_theta_zero_is_vacuum():
    assert born(build_unencoded_ansatz(0.0, BASIS_Z)) == {"00": pytest.approx(1.0)}


def test_unencoded_theta_pi_is_doubly_excited():
    probs = born(build_unencoded_ansatz(math.pi, BASIS_Z))
    assert probs["11"] == pytest.approx(1.0)


@pytest.mark.parametrize("theta", [-0.22967, 0.0, 1.7, -2.9, math.pi])
def test_unencoded_matches_target_state(theta):
    assert fidelity_to(unencoded_target_state(theta), build_unencoded_ansatz(theta, BASIS_Z)) > 1 - 1e-10


def test_unencoded_x_basis_appends_hadamards():
    circ_z = build_unencoded_ansatz(0.3, BASIS_Z)
    circ_x = build_unencoded_ansatz(0.3, BASIS_X)
    extra = unitary_ops(circ_x)[len(unitary_ops(circ_z)):]
    assert [op.kind for op in extra] == ["H", "H"]


def test_unencoded_circuit_equals_pauli_exponential():
    # circuit(2t)|00> == exp(-i t Y0X1)|00>; the exponential is evaluated in
    # closed form (P is an involution) as the independent oracle
    rng = np.random.default_rng(2)
    p = pauli_word("YX")
    for t in rng.uniform(-math.pi, math.pi, 20):
        ref = (math.cos(t) * np.eye(4) - 1j * math.sin(t) * p)[:, 0]
        out = final_state(build_unencoded_ansatz(2 * t, BASIS_Z)).amps
        assert np.max(np.abs(out - ref)) < 1e-10


# ---------------------------------------------------------------------------
# state preparation with verification
# ---------------------------------------------------------------------------


def test_prep_reaches_logical_vacuum_with_idle_ancilla():
    circ = build_state_prep_422(with_verification=True)
    assert fidelity_to(prep_target_state(), circ) > 1 - 1e-10
    probs = born(circ)
    assert sum(p for k, p in probs.items() if k[0] == "0") == pytest.approx(1.0)


def _prep_with_fault(fault_gate, position):
    base = build_state_prep_422(with_verification=True)
    ops = list(base.ops)
    ops.insert(position, fault_gate)
    return Circuit(base.n_qubits, tuple(ops), base.roles)


def test_prep_flags_bit_flip_after_first_data_cnot():
    # ops: H(q0), CNOT(q0,q1), <X here>, CNOT(q0,q2), ...
    circ = _prep_with_fault(qcore.x(1), 2)
    probs = born(circ)
    assert sum(p for k, p in probs.items() if k[0] == "1") == pytest.approx(1.0)


@pytest.mark.parametrize("position", [1, 2, 3, 4, 5, 6])
def test_prep_never_flags_phase_errors(position):
    circ = _prep_with_fault(qcore.z(1), position)
    probs = born(circ)
    assert sum(p for k, p in probs.items() if k[0] == "0") == pytest.approx(1.0)


@pytest.mark.parametrize("position", [3, 4])
def test_prep_flags_later_control_bit_flips_too(position):
    circ = _prep_with_fault(qcore.x(1), position)
    probs = born(circ)
    assert sum(p for k, p in probs.items() if k[0] == "1") == pytest.approx(1.0)


def test_prep_without_verification_has_no_ancilla_gates():
    circ = build_state_prep_422(with_verification=False)
    assert all(0 not in op.qubits for op in unitary_ops(circ))


# ---------------------------------------------------------------------------
# encoded ansatz
# ---------------------------------------------------------------------------


def test_encoded_theta_zero_branches():
    probs = born(build_encoded_ansatz(0.0, BASIS_Z))
    # a2=0 branch is |00>-bar, a2=1 branch is |11>-bar, each at 1/2
    weight_00 = sum(probs.get("0" + bits + "0", 0.0) for bits in ("0000", "1111"))
    weight_11 = sum(probs.get("0" + bits + "1", 0.0) for bits in ("0110", "1001"))
    assert weight_00 == pytest.approx(0.5)
    assert weight_11 == pytest.approx(0.5)


def test_encoded_branch_amplitudes_at_optimum():
    theta = -0.22967
    sv = encoded_branch_state(theta, 0)
    amp00 = sv.amps[int("0" + "0000" + "0", 2)] * math.sqrt(2)
    amp11 = sv.amps[int("0" + "0110" + "0", 2)] * math.sqrt(2)
    assert amp00.real == pytest.approx(math.cos(theta / 2), abs=1e-12)
    assert amp11.real == pytest.approx(math.sin(theta / 2), abs=1e-12)
    assert amp00.real == pytest.approx(0.993415, abs=5e-6)
    assert amp11.real == pytest.approx(-0.114585, abs=5e-6)


@pytest.mark.parametrize("theta", [-0.22967, 0.0, 0.9, 2.4])
def test_encoded_full_state_contract(theta):
    circ = build_encoded_ansatz(theta, BASIS_Z)
    assert fidelity_to(encoded_target_state(theta), circ) > 1 - 1e-10


def test_encoded_a2_branch_probability_is_half():
    probs = born(build_encoded_ansatz(0.77, BASIS_Z))
    p0 = sum(p for k, p in probs.items() if k[5] == "0")
    assert p0 == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("theta", [-0.22967, 0.4, 1.3])
def test_teleportation_branch_is_theta_plus_pi(theta):
    # a2=1 branch (data register) equals the a2=0 branch of theta + pi
    shifted = encoded_branch_state(theta + math.pi, 0).amps.reshape(2, 16, 2)[0, :, 0]
    branch1 = encoded_branch_state(theta, 1).amps.reshape(2, 16, 2)[0, :, 1]
    assert abs(abs(np.vdot(shifted, branch1)) - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# logical operators (physical realizations acting on codewords)
# ---------------------------------------------------------------------------

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


@pytest.mark.parametrize(
    "physical,action",
    [
        (pauli_word("XIXI"), lambda l1, l2: (codeword(l1 ^ 1, l2), 1.0)),
        (pauli_word("XXII"), lambda l1, l2: (codeword(l1, l2 ^ 1), 1.0)),
        (pauli_word("ZZII"), lambda l1, l2: (codeword(l1, l2), (-1.0) ** l1)),
        (pauli_word("ZIZI"), lambda l1, l2: (codeword(l1, l2), (-1.0) ** l2)),
    ],
)
def test_pauli_rows_permute_codewords(physical, action):
    for l1 in (0, 1):
        for l2 in (0, 1):
            expect_vec, phase = action(l1, l2)
            assert np.allclose(physical @ codeword(l1, l2), phase * expect_vec, atol=1e-12)


def test_swap_rows_realize_logical_cnots():
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)

    def apply_swap(vec, a, b):
        return apply_matrix(vec, swap, (a, b))

    for l1 in (0, 1):
        for l2 in (0, 1):
            # CNOT(logical1 -> logical2) = SWAP(q0, q1)
            assert np.allclose(apply_swap(codeword(l1, l2), 0, 1), codeword(l1, l2 ^ l1), atol=1e-12)
            # CNOT(logical2 -> logical1) = SWAP(q0, q2)
            assert np.allclose(apply_swap(codeword(l1, l2), 0, 2), codeword(l1 ^ l2, l2), atol=1e-12)


def test_transversal_hadamard_is_logical_hadamard_up_to_swap():
    h4 = kron_all(_H, _H, _H, _H)
    for l1 in (0, 1):
        for l2 in (0, 1):
            got = h4 @ codeword(l1, l2)
            want = sum(
                (-1.0) ** (l1 * y1 + l2 * y2) * codeword(y2, y1) / 2.0  # note the swap
                for y1 in (0, 1)
                for y2 in (0, 1)
            )
            assert np.allclose(got, want, atol=1e-12)


# ---------------------------------------------------------------------------
# readout encoding
# ---------------------------------------------------------------------------


def red_triples(circ):
    """(measured qubit, ancilla, ancilla): the i-th measured qubit of an
    n-qubit circuit is copied onto ancillas n + 2i and n + 2i + 1."""
    n = circ.n_qubits
    return [(m, n + 2 * i, n + 2 * i + 1) for i, m in enumerate(circ.measured_qubits)]


def test_red_wrap_sizes_and_triples():
    for base, n_wrapped in ((build_unencoded_ansatz(0.4, BASIS_Z), 6), (build_encoded_ansatz(0.4, BASIS_Z), 18)):
        wrapped = wrap_with_red(base)
        assert wrapped.n_qubits == n_wrapped
        assert wrapped.measured_qubits == tuple(range(n_wrapped))
        copies = [op.qubits for op in wrapped.ops if op.kind == "CNOT"][-2 * len(base.measured_qubits):]
        want = []
        for m, a, b in red_triples(base):
            assert wrapped.roles[a] == wrapped.roles[b] == qcore.ROLE_RED
            want += [(m, a), (m, b)]
        assert copies == want


def test_red_wrap_noiseless_triples_unanimous():
    base = build_unencoded_ansatz(1.1, BASIS_Z)
    wrapped = wrap_with_red(base)
    probs = born(wrapped)
    pos = {q: i for i, q in enumerate(wrapped.measured_qubits)}
    for key, p in probs.items():
        for m, a, b in red_triples(base):
            assert key[pos[m]] == key[pos[a]] == key[pos[b]]


def test_red_wrap_budget_guard():
    # 9 measured qubits wrap to 27, past the register limit every Circuit enforces
    n = qcore.MAX_QUBITS // 3 + 1
    with pytest.raises(ValueError, match="n_qubits"):
        wrap_with_red(Circuit(n, tuple(qcore.measure(q) for q in range(n)), (qcore.ROLE_DATA,) * n))


def test_red_wrap_requires_measurements():
    bare = Circuit(1, (qcore.h(0),), (qcore.ROLE_DATA,))
    with pytest.raises(ValueError):
        wrap_with_red(bare)


# ---------------------------------------------------------------------------
# serialization golden file
# ---------------------------------------------------------------------------


def test_encoded_circuit_serialization_golden():
    circ = build_encoded_ansatz(-0.22967, BASIS_Z)
    assert [(op.kind, op.qubits, op.angle) for op in circ.ops] == [
        ("H", (1,), None),
        ("CNOT", (1, 2), None),
        ("CNOT", (1, 3), None),
        ("CNOT", (1, 4), None),
        ("CNOT", (1, 0), None),
        ("CNOT", (2, 0), None),
        ("H", (5,), None),
        ("CNOT", (5, 2), None),
        ("CNOT", (5, 3), None),
        ("RY", (5,), 0.22967),
        ("MEASURE_Z", (0,), None),
        ("MEASURE_Z", (1,), None),
        ("MEASURE_Z", (2,), None),
        ("MEASURE_Z", (3,), None),
        ("MEASURE_Z", (4,), None),
        ("MEASURE_Z", (5,), None),
    ]
