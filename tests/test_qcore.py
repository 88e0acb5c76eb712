import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qedvqe.qcore import (
    Circuit,
    DensityMatrix,
    Gate,
    ROLE_DATA,
    StateVector,
    apply_matrix,
    apply_superoperator,
    cnot,
    expectation,
    h,
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    kron,
    kron_all,
    measure,
    pauli_word,
    ry,
    rz,
    superoperator,
)

SQ2 = 1 / math.sqrt(2)


def apply_ket(sv, op):
    return StateVector(sv.n_qubits, apply_matrix(sv.amps, op.matrix(), op.qubits))


def random_circuit(rng, n, depth):
    ops = []
    for _ in range(depth):
        kind = rng.choice(["h", "s", "ry", "rz", "cnot", "x", "y", "z"])
        q = int(rng.integers(n))
        if kind == "cnot":
            q2 = int(rng.integers(n - 1))
            q2 = q2 if q2 < q else q2 + 1
            ops.append(cnot(q, q2))
        elif kind in ("ry", "rz"):
            angle = float(rng.uniform(-math.pi, math.pi))
            ops.append(ry(angle, q) if kind == "ry" else rz(angle, q))
        else:
            ops.append(Gate(kind.upper(), (q,)))
    return Circuit(n, tuple(ops), (ROLE_DATA,) * n)


def test_h_on_zero():
    sv = apply_ket(StateVector.zero(1), h(0))
    assert np.allclose(sv.amps, [SQ2, SQ2])


def test_cnot_builds_bell_pair():
    sv = apply_ket(StateVector.zero(2), h(0))
    sv = apply_ket(sv, cnot(0, 1))
    assert np.allclose(sv.amps, [SQ2, 0, 0, SQ2])


def test_ry_then_cnot_matches_half_angle_amplitudes():
    theta = -0.22967
    sv = apply_ket(StateVector.zero(2), ry(theta, 0))
    sv = apply_ket(sv, cnot(0, 1))
    # direct trigonometry oracle: (0.9934137, 0, 0, -0.1145827)
    want = [math.cos(theta / 2), 0, 0, math.sin(theta / 2)]
    assert np.allclose(sv.amps.real, want, atol=1e-12)
    assert np.allclose(sv.amps.imag, 0)
    assert sv.amps[0].real == pytest.approx(0.993415, abs=5e-6)
    assert sv.amps[3].real == pytest.approx(-0.114585, abs=5e-6)


def test_apply_gate_on_density_matches_pure_evolution():
    # apply_superoperator takes the density in pair-adjacent order, axes r0 c0 r1 c1 r2 c2;
    # |0><0| is the same array in both orders
    rng = np.random.default_rng(7)
    circ = random_circuit(rng, 3, 12)
    sv = StateVector.zero(3)
    rho = DensityMatrix.zero(3).mat.reshape((2,) * 6)
    pairs = [a for q in range(3) for a in (q, 3 + q)]
    for op in circ.ops:
        sv = apply_ket(sv, op)
        rho = apply_superoperator(rho, superoperator((op.matrix(),)), op.qubits)
        assert rho.shape == (2,) * 6
        assert np.max(np.abs(rho - sv.outer().mat.reshape((2,) * 6).transpose(pairs))) < 1e-10


def dense_oracle(mat, axes, n_bits):
    """The 2^N x 2^N matrix of mat on the given bits: mat kron the identity on
    the bits (axes..., other bits in order), conjugated by the bit permutation
    that puts them there, which is built index by index."""
    order = list(axes) + [b for b in range(n_bits) if b not in axes]
    perm = np.zeros((2**n_bits, 2**n_bits))
    for i in range(2**n_bits):
        bits = [(i >> (n_bits - 1 - b)) & 1 for b in range(n_bits)]
        perm[int("".join(str(bits[b]) for b in order), 2), i] = 1.0
    return perm.T @ np.kron(mat, np.eye(2 ** (n_bits - len(axes)))) @ perm


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(), n_bits=st.integers(1, 6), k=st.integers(1, 2), seed=st.integers(0, 2**32 - 1),
    stack=st.integers(0, 3),
)
def test_apply_matrix_equals_the_dense_oracle(data, n_bits, k, seed, stack):
    # stack 0 is one matrix on one tensor; stack P, a (P, 2^k, 2^k) stack on P tensors
    k = min(k, n_bits)
    axes = data.draw(st.permutations(range(n_bits)).map(lambda p: tuple(p[:k])), label="axes")
    shapes = [(2**n_bits,), (2,) * n_bits] + ([(2 ** (n_bits // 2),) * 2] if n_bits % 2 == 0 else [])
    shape = data.draw(st.sampled_from(shapes), label="shape")
    rng = np.random.default_rng(seed)
    p = max(stack, 1)
    mats = rng.standard_normal((p, 2**k, 2**k)) + 1j * rng.standard_normal((p, 2**k, 2**k))
    tensors = (rng.standard_normal((p, 2**n_bits)) + 1j * rng.standard_normal((p, 2**n_bits))).reshape((p,) + shape)
    got = apply_matrix(tensors, mats, axes) if stack else apply_matrix(tensors[0], mats[0], axes)[None]
    assert got.shape == tensors.shape
    for item, mat, tensor in zip(got, mats, tensors):
        want = dense_oracle(mat, axes, n_bits) @ tensor.reshape(-1)
        assert np.max(np.abs(item.reshape(-1) - want)) < 1e-12
        # a stacked item is the product it would be alone, bit for bit
        assert item.tobytes() == apply_matrix(tensor, mat, axes).tobytes()


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    n_bits=st.integers(2, 8),
    k=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
    stack=st.integers(1, 60),
    single=st.sampled_from([None, "mat", "tensor"]),
)
def test_real_matrix_on_complex_tensor_is_its_complex_product_item_by_item(data, n_bits, k, seed, stack, single):
    # a real mat contracts over the complex tensor's float view, as a real superoperator does on
    # a density: the product of mat.astype(complex) to 1e-15, and each item's bytes are those it
    # has alone, so no stack size (nor broadcasting a one-item mat or tensor) moves a state's bits
    axes = data.draw(st.permutations(range(n_bits)).map(lambda p: tuple(p[:k])), label="axes")
    rng = np.random.default_rng(seed)
    mats = rng.uniform(-0.5, 0.5, (1 if single == "mat" else stack, 2**k, 2**k))
    shape = (1 if single == "tensor" else stack, 2**n_bits)
    tensors = rng.uniform(-0.5, 0.5, shape) + 1j * rng.uniform(-0.5, 0.5, shape)
    got = apply_matrix(tensors, mats, axes)
    assert got.shape == (stack, 2**n_bits) and got.dtype == complex
    assert np.max(np.abs(got - apply_matrix(tensors, mats.astype(complex), axes))) <= 1e-15
    for p, item in enumerate(got):
        alone = apply_matrix(tensors[min(p, len(tensors) - 1)], mats[min(p, len(mats) - 1)], axes)
        assert item.tobytes() == alone.tobytes()


@settings(max_examples=120, deadline=None)
@given(
    data=st.data(),
    n_bits=st.integers(1, 8),
    k=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    stack=st.integers(0, 5),
    single=st.sampled_from([None, "mat", "tensor"]),
    kinds=st.sampled_from(["real on complex", "complex on complex", "real on real", "complex on real"]),
    contiguous=st.booleans(),
)
def test_a_contiguous_run_of_axes_is_one_matmul_on_a_view(data, n_bits, k, seed, stack, single, kinds, contiguous):
    # axes a .. a + k - 1 at the front (a = 0), in the middle, or at the end (nothing follows:
    # view @ mat^T), contracted with no transpose: the dense oracle to 1e-12, the complex
    # product to 1e-15, and each stacked item the bytes it has alone
    k = min(k, n_bits)
    a = data.draw(st.sampled_from(sorted({0, (n_bits - k) // 2, n_bits - k})), label="first axis")
    axes = tuple(range(a, a + k))
    rng = np.random.default_rng(seed)
    p = max(stack, 1)
    mat_kind, tensor_kind = kinds.split(" on ")

    def draw(kind, shape):
        real = rng.uniform(-0.5, 0.5, shape)
        return real + 1j * rng.uniform(-0.5, 0.5, shape) if kind == "complex" else real

    mats = draw(mat_kind, (1 if single == "mat" else p, 2**k, 2**k))
    count = 1 if single == "tensor" else p
    # a non-contiguous tensor: the transpose of a (2^n, items) array
    tensors = draw(tensor_kind, (count, 2**n_bits)) if contiguous else draw(tensor_kind, (2**n_bits, count)).T
    assert tensors.flags.c_contiguous == contiguous or count == 1
    if stack:
        got = apply_matrix(tensors, mats, axes)
    else:
        got = apply_matrix(tensors[0], mats[0], axes)[None]
    assert got.shape == (max(len(mats), len(tensors)) if stack else 1, 2**n_bits)
    assert np.max(np.abs(got - apply_matrix(tensors.astype(complex), mats.astype(complex), axes))) <= 1e-15
    for i, item in enumerate(got):
        mat, tensor = mats[min(i, len(mats) - 1)], tensors[min(i, len(tensors) - 1)]
        assert np.max(np.abs(item - dense_oracle(mat, axes, n_bits) @ tensor)) < 1e-12
        assert item.tobytes() == apply_matrix(tensor, mat, axes).tobytes()


@pytest.mark.parametrize("seed", range(5))
def test_unitarity_preserved_on_random_circuits(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    sv = StateVector.zero(n)
    for op in random_circuit(rng, n, 20).ops:
        sv = apply_ket(sv, op)
        assert abs(np.linalg.norm(sv.amps) - 1.0) < 1e-10


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("RY", (0,))  # missing angle
    with pytest.raises(ValueError):
        Gate("H", (0,), angle=1.0)
    with pytest.raises(ValueError):
        Gate("RZ", (0,), angle=float("nan"))
    with pytest.raises(ValueError):
        cnot(1, 1)


def test_kron_identities_and_ordering():
    assert np.allclose(kron(np.eye(2), np.eye(2)), np.eye(4))
    ket0 = np.array([1, 0], dtype=complex)
    ket1 = np.array([0, 1], dtype=complex)
    v = kron(ket0, ket1)  # |01> with q0 leftmost
    assert np.allclose(v, [0, 1, 0, 0])
    zz = pauli_word("ZZ")
    ket11 = kron(ket1, ket1)
    assert np.allclose(zz @ ket11, ket11)  # (-1)(-1) = +1


def test_kron_associativity():
    rng = np.random.default_rng(3)
    a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
    assert np.allclose(kron(kron(a, b), c), kron(a, kron(b, c)))


def test_kron_overflow_guard():
    # zero-stride views hold no data, so a refusal that copies its inputs shows
    big = np.broadcast_to(np.ones(1), (2 ** 13, 2 ** 13))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            kron(big, big)
        with pytest.raises(ValueError):
            kron(big[0], np.broadcast_to(np.ones(1), (2 ** 12,)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_expectation_basics():
    z = pauli_word("Z")
    rho0 = StateVector(1, [1, 0]).outer()
    assert expectation(rho0, z) == pytest.approx(1.0)
    mixed = DensityMatrix(1, np.eye(2) / 2)
    assert expectation(mixed, z) == pytest.approx(0.0)


def test_expectation_errors():
    rho = DensityMatrix.zero(1)
    with pytest.raises(ValueError):
        expectation(rho, np.eye(4))
    with pytest.raises(ValueError):
        expectation(rho, np.array([[0, 1], [0, 0]], dtype=complex))


def test_expectation_is_the_trace_of_the_product():
    rng = np.random.default_rng(12)
    for n in (1, 3, 6):
        m = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        rho = DensityMatrix(n, (m @ m.conj().T) / np.trace(m @ m.conj().T).real)
        h = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        obs = h + h.conj().T
        assert abs(expectation(rho, obs) - np.trace(obs @ rho.mat).real) <= 1e-12


def test_expectation_linearity():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = DensityMatrix(2, (m @ m.conj().T) / np.trace(m @ m.conj().T).real)
    a = pauli_word("ZX")
    b = pauli_word("YY")
    alpha, beta = 0.37, -1.21
    lhs = expectation(rho, alpha * a + beta * b)
    rhs = alpha * expectation(rho, a) + beta * expectation(rho, b)
    assert abs(lhs - rhs) < 1e-10


def test_states_reject_non_finite_values():
    with pytest.raises(ValueError):
        StateVector(1, [np.nan, 0])
    with pytest.raises(ValueError):
        DensityMatrix(1, np.array([[np.inf, 0], [0, 0]]))


def test_circuit_terminal_measurement_invariant():
    with pytest.raises(ValueError):
        Circuit(1, (measure(0), h(0)), (ROLE_DATA,))
    # measurement on another qubit is fine
    Circuit(2, (measure(0), h(1), measure(1)), (ROLE_DATA, ROLE_DATA))



def test_pauli_words_are_built_once_and_read_only():
    # observables and the scan's term list share one matrix per word
    word = pauli_word("XIZYIX")
    assert word is pauli_word("XIZYIX")
    assert not word.flags.writeable
    table = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}
    assert word.tobytes() == kron_all(*(table[c] for c in "XIZYIX")).tobytes()
