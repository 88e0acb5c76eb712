import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qedvqe import builders, noise, qcore, sim
from qedvqe.estimate import (
    MODE_ENCODED,
    MODE_UNENCODED,
    WORDS,
    _term_means,
    default_h2,
    energy_from_distributions,
    energy_from_shots,
)
from qedvqe.postselect import (
    STRATEGIES,
    EmptySelectionError,
    Strategy,
    SurvivalStats,
    apply_strategy,
    apply_strategy_probs,
    select_a2_branch,
    select_a2_probs,
)
from qedvqe.sim import MeasurementLayout, ShotTable, TrajectoryConfig

ENC_ROLES = (qcore.ROLE_A1,) + (qcore.ROLE_DATA,) * 4 + (qcore.ROLE_A2,)


ENC_LAYOUT = MeasurementLayout(tuple(range(6)), ENC_ROLES)


def enc_table(counts):
    return ShotTable.of(counts, ENC_LAYOUT)


def spec_rows():
    # a1=0 0000: 90, a1=1 0000: 5, a1=0 0001: 5  (already a2=0 selected)
    return enc_table({"000000": 90, "100000": 5, "000010": 5})


def test_strategy_validation():
    with pytest.raises(ValueError):
        Strategy("PSQ")


def test_survival_stats_sigma_formula():
    st = SurvivalStats.of(10000, 9500)
    assert st.eta == pytest.approx(0.95)
    assert st.sigma_eta == pytest.approx(math.sqrt(0.95 * 0.05 / 10000))


def test_apply_strategy_reference_rows():
    table = spec_rows()
    kept, st = apply_strategy(table, Strategy("PSA"))
    assert kept.n_shots == 95 and st.eta == pytest.approx(0.95)
    kept, st = apply_strategy(table, Strategy("PSP"))
    assert kept.n_shots == 95 and st.eta == pytest.approx(0.95)
    assert set(kept.counts) == {"000000", "100000"}
    kept, st = apply_strategy(table, Strategy("PSAP"))
    assert kept.n_shots == 90 and st.eta == pytest.approx(0.90)
    kept, st = apply_strategy(table, Strategy("NONE"))
    assert kept.n_shots == 100 and st.eta == 1.0


def test_psap_is_intersection_of_psa_and_psp():
    rng = np.random.default_rng(2)
    keys = [format(i, "06b") for i in rng.integers(0, 64, 40)]
    table = enc_table({k: int(c) for k, c in zip(*np.unique(keys, return_counts=True))})
    psa, _ = apply_strategy(table, Strategy("PSA"))
    psp, _ = apply_strategy(table, Strategy("PSP"))
    psap, st_ap = apply_strategy(table, Strategy("PSAP"))
    inter = {k: v for k, v in psa.counts.items() if k in psp.counts}
    assert psap.counts == inter
    assert st_ap.eta <= min(
        apply_strategy(table, Strategy("PSA"))[1].eta,
        apply_strategy(table, Strategy("PSP"))[1].eta,
    )


def test_apply_strategy_empty_table_raises():
    with pytest.raises(EmptySelectionError):
        apply_strategy(enc_table({"000000": 0}), Strategy("PSA"))


def test_select_a2_branch_requires_role():
    layout = MeasurementLayout((0, 1), (qcore.ROLE_DATA,) * 2)
    table = ShotTable.of({"00": 3}, layout)
    with pytest.raises(ValueError):
        select_a2_branch(table, 0)
    with pytest.raises(ValueError):
        select_a2_branch(spec_rows(), 2)


def test_select_a2_branch_splits_population():
    table = enc_table({"000000": 40, "000001": 60})
    b0 = select_a2_branch(table, 0)
    b1 = select_a2_branch(table, 1)
    assert b0.n_shots == 40 and b1.n_shots == 60
    only1 = enc_table({"000001": 10})
    assert select_a2_branch(only1, 0).n_shots == 0  # empty table, error downstream


def test_noiseless_branch_split_is_binomial_half():
    circ = builders.build_encoded_ansatz(-0.22967, "Z")
    n_shots = 50000
    table = sim.sample_shots(noise.noiseless(circ), TrajectoryConfig(n_shots, seed=3))
    b0 = select_a2_branch(table, 0)
    assert abs(b0.n_shots / n_shots - 0.5) < 5 * math.sqrt(0.25 / n_shots)


def test_branch_one_carries_theta_plus_pi_statistics():
    theta = 0.9
    circ = builders.build_encoded_ansatz(theta, "Z")
    table = sim.sample_shots(noise.noiseless(circ), TrajectoryConfig(40000, seed=5))
    b1 = select_a2_branch(table, 1)
    # <Z-bar> on branch 1 should match cos(theta + pi)
    zbar = sum(
        (1 - 2 * (int(k[1]) ^ int(k[2]))) * v for k, v in b1.counts.items()
    ) / b1.n_shots
    want = math.cos(theta + math.pi)
    assert zbar == pytest.approx(want, abs=5 * math.sqrt(1 / b1.n_shots))


# ---------------------------------------------------------------------------
# readout-encoding vote
# ---------------------------------------------------------------------------


def red_vote(raw: ShotTable):
    """The readout-encoding vote, applied to the shots of a wrap_with_red circuit.

    The reference for the sampler's vote kernel: keeps the rows whose readout
    triples are unanimous and collapses each triple onto its measured bit. In
    a wrapped layout the n encoded bits come first and the i-th one's
    readout pair sits at positions n + 2i and n + 2i + 1. Survival is
    normalized to the raw shot total.
    """
    if raw.n_shots == 0:
        raise EmptySelectionError("cannot vote on an empty table")
    meas = raw.layout
    red = meas.positions_of_role(qcore.ROLE_RED)
    n = len(meas.roles) - len(red)
    if red != tuple(range(n, len(meas.roles))) or len(red) != 2 * n:
        raise ValueError("table is not the readout of a wrap_with_red circuit")
    counts = {}
    for key, c in raw.counts.items():
        if all(key[i] == key[n + 2 * i] == key[n + 2 * i + 1] for i in range(n)):
            counts[key[:n]] = counts.get(key[:n], 0) + c
    kept = sum(counts.values())
    collapsed = MeasurementLayout(meas.qubits[:n], meas.roles[:n])
    return ShotTable.of(counts, collapsed, int), SurvivalStats.of(raw.n_shots, kept)


def red_table(counts, roles):
    return ShotTable.of(counts, MeasurementLayout(tuple(range(len(roles))), tuple(roles)))


RED_1 = (qcore.ROLE_DATA, qcore.ROLE_RED, qcore.ROLE_RED)


def test_red_vote_unanimity_rules():
    # single measured qubit, triple (q, a, b) -> key order q a b
    voted, st = red_vote(red_table({"000": 7, "111": 2, "010": 3}, RED_1))
    assert voted.counts == {"0": 7, "1": 2}
    assert voted.layout.roles == (qcore.ROLE_DATA,)
    assert st.n_before == 12 and st.n_after == 9
    assert st.eta == pytest.approx(9 / 12)
    # two measured qubits: bits first, then the pairs (q0: 2, 3; q1: 4, 5)
    voted, _ = red_vote(red_table({"010011": 4, "011011": 1}, RED_1[:1] * 2 + RED_1[1:] * 2))
    assert voted.counts == {"01": 4}


def test_red_vote_layout_mismatch():
    for roles in (RED_1[:2], (qcore.ROLE_RED, qcore.ROLE_DATA, qcore.ROLE_RED)):
        with pytest.raises(ValueError):
            red_vote(red_table({"0" * len(roles): 1}, roles))


def test_red_vote_empty_raises():
    with pytest.raises(EmptySelectionError):
        red_vote(red_table({"000": 0}, RED_1))


def test_vote_commutes_with_a2_selection():
    model = noise.default_device_model()
    wrapped = builders.wrap_with_red(builders.build_encoded_ansatz(0.4, "Z"))
    raw = sim.sample_shots(noise.attach_noise(wrapped, model), TrajectoryConfig(4000, seed=11))
    voted_first, _ = red_vote(raw)
    a = apply_strategy(select_a2_branch(voted_first, 0), Strategy("PSAP"))[0]
    selected_first = select_a2_branch(raw, 0)
    voted_second, _ = red_vote(selected_first)
    b = apply_strategy(voted_second, Strategy("PSAP"))[0]
    assert a.counts == b.counts


def test_eta_decreases_with_noise_and_x_basis_below_z():
    ham_shots = 30000
    etas = {}
    for p2 in (0.002, 0.01, 0.03):
        for basis in "ZX":
            circ = builders.build_encoded_ansatz(-0.22967, basis)
            nc = noise.attach_noise(circ, noise.DepolarizingParams(p2=p2))
            table = sim.sample_shots(nc, TrajectoryConfig(ham_shots, seed=13))
            sel = select_a2_branch(table, 0)
            _, st = apply_strategy(sel, Strategy("PSAP"))
            etas[(p2, basis)] = st
    for basis in "ZX":
        seq = [etas[(p, basis)] for p in (0.002, 0.01, 0.03)]
        for a, b in zip(seq, seq[1:]):
            assert a.eta > b.eta - 3 * (a.sigma_eta + b.sigma_eta)
    for p2 in (0.002, 0.01, 0.03):
        z, x = etas[(p2, "Z")], etas[(p2, "X")]
        assert x.eta <= z.eta + 3 * (z.sigma_eta + x.sigma_eta)


ENC_KEYS = [format(i, "06b") for i in range(64)]
# keys that survive a2 = 0 and PSAP: a1 = a2 = 0 and even data parity
PSAP_SURVIVORS = [k for k in ENC_KEYS if k[0] == k[5] == "0" and k[1:5].count("1") % 2 == 0]
# every map holds a surviving key, so neither path raises on an empty selection
ENC_COUNTS = st.tuples(
    st.dictionaries(st.sampled_from(ENC_KEYS), st.integers(1, 50), max_size=24),
    st.sampled_from(PSAP_SURVIVORS),
    st.integers(1, 50),
).map(lambda t: {**t[0], t[1]: t[2]})


def _selected(counts, kind):
    """The count path and the probability path through a2 = 0 and one strategy."""
    table = enc_table(counts)
    probs = {k: v / table.n_shots for k, v in table.counts.items()}
    branch = select_a2_branch(table, 0)
    branch_p, w = select_a2_probs(probs, ENC_LAYOUT, 0)
    assert w == pytest.approx(branch.n_shots / table.n_shots)
    kept_t, stats = apply_strategy(branch, Strategy(kind))
    kept_p, eta = apply_strategy_probs(branch_p, ENC_LAYOUT, Strategy(kind))
    return kept_t, stats, kept_p, eta


@settings(max_examples=60, deadline=None)
@given(z=ENC_COUNTS, x=ENC_COUNTS, kind=st.sampled_from(("NONE", "PSA", "PSP", "PSAP")))
def test_distribution_twins_match_table_filters(z, x, kind):
    sel = {}
    for basis, counts in (("Z", z), ("X", x)):
        kept_t, stats, kept_p, eta = _selected(counts, kind)
        assert eta == pytest.approx(stats.eta)
        want = {k: v / kept_t.n_shots for k, v in kept_t.counts.items()}
        assert set(kept_p) == set(want)
        assert all(kept_p[k] == pytest.approx(want[k]) for k in want)
        sel[basis] = (kept_t, kept_p)
    ham = default_h2()
    shots = energy_from_shots(sel["Z"][0], sel["X"][0], ham, mode="encoded")
    exact = energy_from_distributions(sel["Z"][1], sel["X"][1], ENC_LAYOUT, ham, mode="encoded")
    assert shots.mean == pytest.approx(exact.mean, abs=1e-12)


# ---------------------------------------------------------------------------
# index masks against the per-key string rules
# ---------------------------------------------------------------------------


def key_rule_survivors(counts, layout, kind, branch=0):
    """The string-key reference of a rule: a key survives when, for each of the
    rule's checks, the XOR of its characters at the check's positions is the
    check's parity. kind is a strategy kind or "a2" (the branch rule)."""
    if kind == "a2":
        if branch not in (0, 1):
            raise ValueError("branch must be 0 or 1")
        checks = [((layout.position_of_role(qcore.ROLE_A2),), branch)]
    else:
        checks = []
        if kind in ("PSA", "PSAP"):
            checks.append(((layout.position_of_role(qcore.ROLE_A1),), 0))
        if kind in ("PSP", "PSAP"):
            data = layout.positions_of_role(qcore.ROLE_DATA)
            if len(data) != 4:
                raise ValueError("parity post-selection needs the four encoded data qubits")
            checks.append((data, 0))
    return {
        key: w for key, w in counts.items()
        if all(sum(key[p] == "1" for p in pos) % 2 == parity for pos, parity in checks)
    }


def key_rule_term_means(counts, mode, basis):
    """The string-key reference of _term_means: each term's sum of +-w by the
    parity of the key's characters under the word, over the total weight."""
    words = [w for w in WORDS[mode][1:] if set(w) <= {"I", basis}]
    sums, total = [0] * len(words), 0
    for key, w in counts.items():
        total += w
        for t, word in enumerate(words):
            odd = sum(key[p] == "1" for p, c in enumerate(word) if c != "I") % 2
            sums[t] += -w if odd else w
    return np.array(sums) / total


UNENC_LAYOUT = MeasurementLayout((0, 1), (qcore.ROLE_DATA,) * 2)


@st.composite
def weight_maps(draw):
    """(layout, mode, map) on the encoded or the unencoded layout, of shot counts or of
    probabilities, with at least one positive weight."""
    layout, mode = draw(st.sampled_from(((ENC_LAYOUT, MODE_ENCODED), (UNENC_LAYOUT, MODE_UNENCODED))))
    m = len(layout.qubits)
    weight = draw(st.sampled_from((st.integers(1, 10**9), st.floats(1e-9, 1.0))))
    keys = st.integers(0, 2**m - 1).map(lambda i: format(i, f"0{m}b"))
    return layout, mode, draw(st.dictionaries(keys, weight, min_size=1, max_size=2**m))


@settings(max_examples=200, deadline=None)
@given(case=weight_maps())
def test_index_masks_keep_and_decode_what_the_key_rules_do(case):
    layout, mode, counts = case
    table = ShotTable.of(counts, layout)
    rules = [(("a2", b), lambda t, b=b: select_a2_branch(t, b)) for b in (0, 1)]
    rules += [((kind,), lambda t, kind=kind: apply_strategy(t, Strategy(kind))[0]) for kind in STRATEGIES]
    for rule, apply in rules:
        try:
            want = key_rule_survivors(counts, layout, *rule)
        except ValueError:
            with pytest.raises(ValueError):
                apply(table)
            continue
        got = apply(table)
        assert got.weights.dtype == table.weights.dtype and got.layout == layout
        assert got.weights.tolist() == ShotTable.of(want, layout, table.weights.dtype).weights.tolist(), rule
    exact = table.weights.dtype.kind == "i"
    for basis in "ZX":
        got, want = _term_means(table, mode, basis), key_rule_term_means(counts, mode, basis)
        if exact:
            assert got.tolist() == want.tolist()
        else:
            assert got == pytest.approx(want, rel=0, abs=1e-12)
