import math

import numpy as np
import pytest

from qedvqe import builders, noise, qcore
from qedvqe.noise import DepolarizingParams, ReadoutParams
from qedvqe.qcore import Circuit, ROLE_DATA
from qedvqe.sim import (
    ShotTable,
    TrajectoryConfig,
    born_distribution,
    evolve_density,
    red_vote_distribution,
    red_vote_kernel,
    red_vote_kernel_for,
    sample_shots,
    sample_shots_batched,
)


def tvd(a: dict, b: dict) -> float:
    keys = set(a) | set(b)
    return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)


def empirical(table: ShotTable) -> dict:
    return {k: v / table.n_shots for k, v in table.counts.items()}


# ---------------------------------------------------------------------------
# density backend
# ---------------------------------------------------------------------------


def test_noiseless_encoded_density_is_target_projector():
    circ = builders.build_encoded_ansatz(0.6, "Z")
    rho = evolve_density(noise.noiseless(circ))
    target = builders.encoded_target_state(0.6).outer()
    assert np.max(np.abs(rho.mat - target.mat)) < 1e-12


def test_full_depolarizing_single_gate_population():
    # p = 1 splits the weight equally over X, Y, Z; X and Y excite |0> -> |1>
    circ = Circuit(1, (qcore.h(0), qcore.h(0), qcore.measure(0)), (ROLE_DATA,))
    nc = noise.NoisyCircuit(
        circ,
        ((), (noise.PauliNoise.depolarizing(0, 1.0),), ()),
    )
    rho = evolve_density(nc)
    assert rho.mat[1, 1].real == pytest.approx(2 / 3, abs=1e-12)


def test_evolve_density_trace_and_cap():
    circ = builders.build_encoded_ansatz(0.3, "Z")
    rho = evolve_density(noise.attach_noise(circ, DepolarizingParams(p2=0.05)))
    assert np.trace(rho.mat).real == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        evolve_density(noise.noiseless(circ), max_qubits=5)


def test_reset_gate_density_semantics():
    circ = Circuit(1, (qcore.h(0), qcore.reset(0), qcore.measure(0)), (ROLE_DATA,))
    rho = evolve_density(noise.noiseless(circ))
    assert rho.mat[0, 0].real == pytest.approx(1.0)
    # the exact reset channel is mixed-state only
    with pytest.raises(ValueError, match="RESET"):
        sample_shots(noise.noiseless(circ), TrajectoryConfig(5, seed=0))


def test_born_distribution_basics():
    sv = qcore.StateVector(2, [0, 1, 0, 0])  # |01>
    assert born_distribution(sv.outer()) == {"01": pytest.approx(1.0)}
    rho = qcore.DensityMatrix(2, np.eye(4) / 4)
    probs = born_distribution(rho)
    assert all(p == pytest.approx(0.25) for p in probs.values())


def test_born_distribution_readout_flip():
    rho = qcore.StateVector(1, [1, 0]).outer()
    probs = born_distribution(rho, ReadoutParams(p_flip0=1e-3))
    assert probs["1"] == pytest.approx(1e-3)
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# trajectory backend
# ---------------------------------------------------------------------------


def test_noiseless_sampling_theta_zero():
    circ = builders.build_unencoded_ansatz(0.0, "Z")
    table = sample_shots(noise.noiseless(circ), TrajectoryConfig(1000, seed=1))
    assert table.counts == {"00": 1000}


def test_seed_determinism_and_partition_invariance():
    nc = noise.attach_noise(builders.build_encoded_ansatz(-0.22967, "Z"), DepolarizingParams(p2=0.01))
    a = sample_shots(nc, TrajectoryConfig(4000, seed=9))
    b = sample_shots(nc, TrajectoryConfig(4000, seed=9))
    assert a.counts == b.counts
    c = sample_shots_batched(nc, TrajectoryConfig(4000, seed=9), batch_size=313)
    assert c.counts == a.counts
    # manual split at arbitrary offsets merges identically
    first = sample_shots(nc, TrajectoryConfig(1500, seed=9))
    rest = sample_shots(nc, TrajectoryConfig(2500, seed=9), shot_offset=1500)
    assert first.merged(rest).counts == a.counts
    different = sample_shots(nc, TrajectoryConfig(4000, seed=10))
    assert different.counts != a.counts


def test_a2_branch_frequency_is_binomial_half():
    n_shots = 200000
    circ = builders.build_encoded_ansatz(-0.22967, "Z")
    table = sample_shots(noise.noiseless(circ), TrajectoryConfig(n_shots, seed=4))
    pos = table.layout.position_of_role(qcore.ROLE_A2)
    frac = sum(v for k, v in table.counts.items() if k[pos] == "0") / n_shots
    assert abs(frac - 0.5) < 5 * math.sqrt(0.25 / n_shots)


@pytest.mark.parametrize("p2", [0.0, 0.001, 0.01])
@pytest.mark.parametrize(
    "build",
    [
        lambda: builders.build_unencoded_ansatz(-0.22967, "Z"),
        lambda: builders.build_unencoded_ansatz(-0.22967, "X"),
        lambda: builders.build_state_prep_422(True),
        lambda: builders.build_encoded_ansatz(-0.22967, "Z"),
    ],
)
def test_backend_agreement_on_builder_circuits(p2, build):
    circ = build()
    nc = noise.attach_noise(circ, DepolarizingParams(p2=p2))
    n_shots = 20000
    table = sample_shots(nc, TrajectoryConfig(n_shots, seed=17))
    probs = born_distribution(evolve_density(nc))
    bound = 5 * math.sqrt(len(probs) / n_shots)
    assert tvd(probs, empirical(table)) < bound


def test_trajectories_match_density_under_device_model():
    model = noise.default_device_model()
    nc = noise.attach_noise(builders.build_encoded_ansatz(-0.22967, "Z"), model)
    n_shots = 50000
    table = sample_shots(nc, TrajectoryConfig(n_shots, seed=23))
    probs = born_distribution(evolve_density(nc), model.readout)
    bound = 5 * math.sqrt(len(probs) / n_shots)
    assert tvd(probs, empirical(table)) < bound


def test_trajectory_qubit_cap():
    circ = builders.build_encoded_ansatz(0.1, "Z")
    with pytest.raises(ValueError):
        sample_shots(noise.noiseless(circ), TrajectoryConfig(10, seed=0, max_qubits=4))


def test_shot_table_merge_guards():
    circ = builders.build_unencoded_ansatz(0.0, "Z")
    t = sample_shots(noise.noiseless(circ), TrajectoryConfig(10, seed=0))
    assert t.layout.names == ("q0", "q1") and t.counts == {"00": 10}
    other = sample_shots(noise.noiseless(builders.build_encoded_ansatz(0.0, "Z")), TrajectoryConfig(10, seed=0))
    with pytest.raises(ValueError):
        t.merged(other)


def test_red_layout_names_follow_role_names():
    wrapped, _ = builders.wrap_with_red(builders.build_unencoded_ansatz(0.0, "Z"))
    t = sample_shots(noise.noiseless(wrapped), TrajectoryConfig(5, seed=0))
    assert t.layout.names == ("q0", "q1", "r0", "s0", "r1", "s1")
    wrapped, _ = builders.wrap_with_red(builders.build_encoded_ansatz(0.0, "Z"))
    t = sample_shots(noise.noiseless(wrapped), TrajectoryConfig(5, seed=0))
    names = ",".join(t.layout.names)
    assert names.startswith("a1,q0,q1,q2,q3,a2,k0,l0")
    assert names.endswith("k5,l5")


# ---------------------------------------------------------------------------
# exact readout-encoding model
# ---------------------------------------------------------------------------


def test_red_kernel_noise_free_is_identity():
    kern = red_vote_kernel()
    assert np.allclose(kern, np.eye(2))


def test_red_kernel_readout_only_survival():
    ro = ReadoutParams(p_flip0=1e-3, p_flip1=4e-3)
    kern = red_vote_kernel(readout=ro)
    # clean triple: unanimous-and-correct needs no flips, unanimous-and-wrong all three
    assert kern[0, 0] == pytest.approx((1 - 1e-3) ** 3, abs=1e-15)
    assert kern[1, 1] == pytest.approx((1 - 4e-3) ** 3, abs=1e-15)
    assert kern[1, 0] == pytest.approx(1e-3**3, abs=1e-18)
    assert kern[0, 1] == pytest.approx(4e-3**3, abs=1e-15)


def test_red_vote_distribution_matches_trajectory_vote():
    model = noise.default_device_model()
    base = builders.build_encoded_ansatz(-0.22967, "Z")
    wrapped, layout = builders.wrap_with_red(base)
    n_shots = 30000
    raw = sample_shots(noise.attach_noise(wrapped, model), TrajectoryConfig(n_shots, seed=31))
    from qedvqe import postselect

    voted, stats = postselect.red_vote(raw, layout)
    probs6 = born_distribution(evolve_density(noise.attach_noise(base, model)))
    filt, eta = red_vote_distribution(probs6, red_vote_kernel_for(model))
    assert stats.eta == pytest.approx(eta, abs=5 * math.sqrt(eta * (1 - eta) / n_shots))
    bound = 5 * math.sqrt(len(filt) / stats.n_after)
    assert tvd(filt, {k: v / stats.n_after for k, v in voted.counts.items()}) < bound
