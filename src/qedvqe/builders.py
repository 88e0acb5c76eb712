"""Circuit constructions for the H2 study, with analytic target states as contracts.

Register layouts (qubit index order = ket order, most significant first):

* unencoded ansatz:   q0, q1
* state preparation:  a1, q0..q3
* encoded ansatz:     a1, q0..q3, a2

Gate lists are an implementation choice; the normative contracts are the
analytic output states returned by the ``*_target_state`` helpers.
"""
from __future__ import annotations

import math

import numpy as np

from .qcore import (
    ROLE_A1,
    ROLE_A2,
    ROLE_DATA,
    ROLE_RED,
    Circuit,
    Gate,
    StateVector,
    cnot,
    h,
    measure,
    ry,
    rz,
    s,
)

BASIS_Z = "Z"
BASIS_X = "X"


def _check_basis(basis: str):
    if basis not in (BASIS_Z, BASIS_X):
        raise ValueError(f"basis must be '{BASIS_Z}' or '{BASIS_X}'")


def build_unencoded_ansatz(theta: float, basis: str = BASIS_Z) -> Circuit:
    """Two-qubit UCCD ansatz preparing cos(t/2)|00> + sin(t/2)|11>.

    Standard single-parameter Pauli-rotation decomposition: basis changes onto
    q0/q1, a CNOT-conjugated RZ, and inverse basis changes. The leading q0
    phase gate acts trivially on |0> and is omitted; the trailing S is kept so
    the output matches the target amplitudes exactly (the X-basis estimate is
    sensitive to that relative phase).
    """
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    _check_basis(basis)
    ops = [
        h(0),
        h(1),
        cnot(0, 1),
        rz(theta, 1),
        cnot(0, 1),
        h(0),
        s(0),
        h(1),
    ]
    if basis == BASIS_X:
        ops += [h(0), h(1)]
    ops += [measure(0), measure(1)]
    return Circuit(2, tuple(ops), (ROLE_DATA, ROLE_DATA))


def _prep_ops(with_verification: bool) -> list[Gate]:
    # a1 = qubit 0, data = 1..4. All data CNOTs originate at q0; the two
    # verification CNOTs copy q0 xor q1 into a1, which flags any bit-flip on
    # q0 after the first data CNOT (and thus the multi-qubit errors it
    # cascades into), while phase flips pass undetected.
    ops = [h(1), cnot(1, 2), cnot(1, 3), cnot(1, 4)]
    if with_verification:
        ops += [cnot(1, 0), cnot(2, 0)]
    return ops


def build_state_prep_422(with_verification: bool = True) -> Circuit:
    """Logical |00>-bar preparation over (a1, q0..q3), all qubits measured."""
    ops = _prep_ops(with_verification) + [measure(q) for q in range(5)]
    roles = (ROLE_A1, ROLE_DATA, ROLE_DATA, ROLE_DATA, ROLE_DATA)
    return Circuit(5, tuple(ops), roles)


def build_encoded_ansatz(theta: float, basis: str = BASIS_Z) -> Circuit:
    """[[4,2,2]]-encoded ansatz over (a1, q0..q3, a2).

    The non-transversal logical rotation is teleported through a2: a2 is
    placed in |+>, entangled with the logical-flip pair (X on q1, q2), and
    rotated by RY(-theta). The terminal a2 measurement splits the state into
    the theta branch (a2=0) and the theta+pi branch (a2=1), each with
    probability 1/2.
    """
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    _check_basis(basis)
    ops = _prep_ops(with_verification=True)
    ops += [h(5), cnot(5, 2), cnot(5, 3), ry(-theta, 5)]
    if basis == BASIS_X:
        ops += [h(q) for q in (1, 2, 3, 4)]
    ops += [measure(q) for q in range(6)]
    roles = (ROLE_A1, ROLE_DATA, ROLE_DATA, ROLE_DATA, ROLE_DATA, ROLE_A2)
    return Circuit(6, tuple(ops), roles)


def wrap_with_red(circuit: Circuit) -> Circuit:
    """Append [3,1] readout encoding: two fresh ancillas per measured qubit.

    The i-th measured qubit is copied onto the |0> ancillas n + 2i and
    n + 2i + 1 (n = circuit.n_qubits) by CNOTs immediately before
    measurement; all three are measured. The gadget is sampled as its exact
    per-bit channel (sim.red_vote_kernel_for), so the wrapped circuit serves
    that kernel and the gate counts. Circuit rejects a wrapped register
    larger than qcore.MAX_QUBITS.
    """
    measured = circuit.measured_qubits
    if not measured:
        raise ValueError("circuit has no terminal measurements to encode")
    n_new = circuit.n_qubits + 2 * len(measured)
    ops = [op for op in circuit.ops if op.kind != "MEASURE_Z"]
    triples = []
    nxt = circuit.n_qubits
    for m in measured:
        a, b = nxt, nxt + 1
        nxt += 2
        triples.append((m, a, b))
        ops += [cnot(m, a), cnot(m, b)]
    for m, a, b in triples:
        ops += [measure(m), measure(a), measure(b)]
    roles = circuit.roles + (ROLE_RED,) * (2 * len(measured))
    return Circuit(n_new, tuple(ops), roles)


# ---------------------------------------------------------------------------
# analytic target states (the builders' contracts)
# ---------------------------------------------------------------------------

CODEWORD_SUPPORT = {
    (0, 0): ("0000", "1111"),
    (1, 0): ("0101", "1010"),
    (0, 1): ("0011", "1100"),
    (1, 1): ("0110", "1001"),
}


def codeword(l1: int, l2: int) -> np.ndarray:
    """Four-qubit logical basis ket |l1 l2>-bar as a dense vector."""
    vec = np.zeros(16, dtype=complex)
    for bits in CODEWORD_SUPPORT[(l1, l2)]:
        vec[int(bits, 2)] = 1.0 / math.sqrt(2.0)
    return vec


def unencoded_target_state(theta: float) -> StateVector:
    amps = np.zeros(4, dtype=complex)
    amps[0] = math.cos(theta / 2.0)
    amps[3] = math.sin(theta / 2.0)
    return StateVector(2, amps)


def prep_target_state() -> StateVector:
    """|0>_a1 tensor |00>-bar over (a1, q0..q3)."""
    amps = np.zeros(32, dtype=complex)
    amps[: 16] = codeword(0, 0)
    return StateVector(5, amps)


def _embed_branch(data_vec: np.ndarray, a2: int) -> np.ndarray:
    # (a1, q0..q3, a2): a1 = 0 -> data block occupies the top half; the a2
    # bit interleaves as the least significant index bit.
    full = np.zeros(64, dtype=complex)
    for i in range(16):
        full[(i << 1) | a2] = data_vec[i]
    return full


def encoded_branch_state(theta: float, a2: int) -> StateVector:
    """Normalized a2 branch of the encoded ansatz output (6-qubit state)."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    if a2 == 0:
        data = c * codeword(0, 0) + s * codeword(1, 1)
    else:
        data = c * codeword(1, 1) - s * codeword(0, 0)
    return StateVector(6, _embed_branch(data, a2))


def encoded_target_state(theta: float) -> StateVector:
    """Full pre-measurement state of the encoded ansatz (both a2 branches)."""
    amps = (
        encoded_branch_state(theta, 0).amps + encoded_branch_state(theta, 1).amps
    ) / math.sqrt(2.0)
    return StateVector(6, amps)
