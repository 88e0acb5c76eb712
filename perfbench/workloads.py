"""Benchmark workloads: the cli configs each one runs, and the exact oracle
that checks the rows a run writes.

A workload's configs depend only on the benchmark seed, which becomes the
program's master seed; shot counts and grids are fixed per workload. The
oracles import ``qedvqe``, so the caller puts the package on ``sys.path``
first.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
EXACT_DENSITY_REFERENCE = REFERENCE_DIR / "exact_density.json"
CSV_HASHES = REFERENCE_DIR / "csv_sha256.json"

# Seeds 1..10 are used while tuning; this one is held out to confirm claims.
HELD_OUT_SEED = 104729

TARGET_SEM_MHA = 0.5  # the paper's 0.5 mHa target standard error
SEM_TOLERANCE = 5.0  # sampled energy rows vs the infinite-shot limit, in SEM
ETA_SIGMAS = 4.0  # eta_overall_Z vs the exact chain product, in binomial sigma
DENSITY_TOLERANCE = 1e-9  # exact-density rows vs the recorded reference
THETA_STAR = -0.22967

TABLE2_SHOTS = 20000
SWEEP_SHOTS = 2000
SWEEP_GRID = [0.02, 0.05, 0.10]
RED_SHOTS = 800
SCAN_POINTS = 100
FIDELITY_GRID = [k / 600 for k in range(1, 61)]

# g1..g4 one at a time: the limit of each term's mean
UNIT_TERMS = ((0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1))


@dataclass(frozen=True)
class Limit:
    """Infinite-shot limit of one sampled row."""

    energy_mha: float
    var_z: float  # sum of g^2 (1 - m^2) over the Z-basis terms, Ha^2
    var_x: float  # g^2 (1 - m^2) of the XX term, Ha^2
    eta_overall_z: float = 1.0

    def sem_mha(self, row) -> float:
        """The row's SEM with exact term variances and its own kept-shot counts."""
        return 1e3 * math.sqrt(self.var_z / float(row["n_Z"]) + self.var_x / float(row["n_X"]))


def limits_from(energy_of: Callable, labels) -> dict:
    """Limits per label, from energy_of(hamiltonian) -> {label: energy in Ha}."""
    from qedvqe import estimate

    ham = estimate.default_h2()
    energy = energy_of(ham)
    means = [energy_of(estimate.H2Hamiltonian(*unit)) for unit in UNIT_TERMS]
    out = {}
    for label in labels:
        pieces = [
            g * g * max(0.0, 1.0 - m[label] ** 2)
            for g, m in zip((ham.g1, ham.g2, ham.g3, ham.g4), means)
        ]
        out[label] = Limit(1e3 * energy[label], sum(pieces[:3]), pieces[3])
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    configs: Callable[[int], list]  # seed -> cli configs run back to back
    work: int  # trajectory shots, or density grid points, per run
    oracle: Callable[[], dict]  # exact values, computed once per benchmark run
    rows: Callable[[list, dict], list]  # (out dirs, oracle) -> [(where, row, Limit)]
    check: Callable  # (out dirs, oracle, configs, workload) -> problems


def read_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def csv_sha256(out_dirs) -> str:
    """One hash over every CSV body a run wrote, in a fixed order."""
    digest = hashlib.sha256()
    for i, out in enumerate(out_dirs):
        for path in sorted(Path(out).glob("*.csv")):
            digest.update(f"{i}/{path.name}\n".encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def check_sampled(out_dirs, oracle, configs, workload) -> list:
    """Every sampled energy row within SEM_TOLERANCE of its own SEM from the
    limit, and eta_overall_Z (where written) within ETA_SIGMAS binomial
    sigma of the exact chain product."""
    rows = workload.rows(out_dirs, oracle)
    problems = [] if len(rows) == len(oracle) else [f"{len(rows)} sampled rows, want {len(oracle)}"]
    shots = configs[0]["shots"]
    for where, row, limit in rows:
        energy, sem = float(row["energy_mHa"]), float(row["sem_mHa"])
        if not abs(energy - limit.energy_mha) <= SEM_TOLERANCE * sem:
            problems.append(
                f"{where} {row['label']}: {energy:.3f} mHa is {abs(energy - limit.energy_mha) / sem:.1f} "
                f"SEM from the exact limit {limit.energy_mha:.3f} mHa"
            )
        if "eta_overall_Z" in row:
            eta, got = limit.eta_overall_z, float(row["eta_overall_Z"])
            sigma = math.sqrt(eta * (1.0 - eta) / shots)
            if not abs(got - eta) <= ETA_SIGMAS * sigma + 1e-12:
                problems.append(
                    f"{where} {row['label']}: eta_overall_Z {got:.5f} is {abs(got - eta) / sigma:.1f} "
                    f"binomial sigma from the exact chain product {eta:.5f}"
                )
    return problems


# ---------------------------------------------------------------------------
# table2-lownoise and sweep-highnoise: limit is cli.shot_limit_estimates
# ---------------------------------------------------------------------------


def _shot_limits(p2: float) -> dict:
    from qedvqe import cli, estimate, noise

    model = noise.DepolarizingParams(p2=p2)

    def energy_of(ham):
        limits = cli.shot_limit_estimates(ham, model, estimate.THETA_STAR)
        return {label: est.mean for label, (est, _) in limits.items()}

    return limits_from(energy_of, ("unencoded", "encoded/NONE", "encoded/PSA", "encoded/PSP", "encoded/PSAP"))


def _table2_configs(seed):
    return [{
        "experiment": "table2", "seed": seed, "shots": TABLE2_SHOTS,
        "noise": {"kind": "depolarizing", "p2": 0.0009},
    }]


def _table2_rows(out_dirs, oracle):
    return [("table2", row, oracle[row["label"]]) for row in read_rows(Path(out_dirs[0]) / "table2.csv")]


def _sweep_configs(seed):
    return [{
        "experiment": "sweep-depol", "seed": seed, "shots": SWEEP_SHOTS,
        "p2_grid": list(SWEEP_GRID),
    }]


def _sweep_rows(out_dirs, oracle):
    return [
        (f"p2={row['p2']}", row, oracle[row["p2"], row["label"]])
        for row in read_rows(Path(out_dirs[0]) / "sweep_depol.csv")
    ]


# ---------------------------------------------------------------------------
# red-device: limit is the exact readout-encoding chain
# ---------------------------------------------------------------------------


def _red_oracle() -> dict:
    """Limits of the four red-pipeline rows: evolve_density ->
    red_vote_distribution -> select_a2_probs -> apply_strategy_probs ->
    energy_from_distributions, with readout flips in the Born distribution
    when the row has no readout encoding."""
    from qedvqe import builders, estimate, noise, postselect, sim

    theta = estimate.THETA_STAR
    model = noise.default_device_model()
    kernel = sim.red_vote_kernel_for(model)
    psap = postselect.Strategy("PSAP")
    chains, etas = {}, {}
    for mode, build in (("unencoded", builders.build_unencoded_ansatz), ("encoded", builders.build_encoded_ansatz)):
        layout = sim.MeasurementLayout.of(build(theta, "Z"))
        for red in (False, True):
            label = mode + ("+red" if red else "") + ("/PSAP" if mode == "encoded" else "")
            dists = {}
            for basis in "ZX":
                rho = sim.evolve_density(noise.attach_noise(build(theta, basis), model))
                if red:
                    probs, eta = sim.red_vote_distribution(sim.born_distribution(rho), kernel)
                else:
                    probs, eta = sim.born_distribution(rho, model.readout), 1.0
                if mode == "encoded":
                    probs, w_a2 = postselect.select_a2_probs(probs, layout, 0)
                    probs, eta_ps = postselect.apply_strategy_probs(probs, layout, psap)
                    eta *= w_a2 * eta_ps
                dists[basis] = probs
                if basis == "Z":
                    etas[label] = eta
            chains[label] = (dists, layout, mode)

    def energy_of(ham):
        return {
            label: estimate.energy_from_distributions(d["Z"], d["X"], layout, ham, mode).mean
            for label, (d, layout, mode) in chains.items()
        }

    limits = limits_from(energy_of, chains)
    return {
        label: Limit(lim.energy_mha, lim.var_z, lim.var_x, etas[label])
        for label, lim in limits.items()
    }


def _red_configs(seed):
    return [{"experiment": "red-pipeline", "seed": seed, "shots": RED_SHOTS}]


def _red_rows(out_dirs, oracle):
    return [
        ("red-pipeline", row, oracle[row["label"]])
        for row in read_rows(Path(out_dirs[0]) / "red_pipeline.csv")
    ]


# ---------------------------------------------------------------------------
# exact-density: rows must match the reference recorded at the seed commit
# ---------------------------------------------------------------------------


def _density_configs(seed):
    return [
        {"experiment": "scan", "seed": seed, "encoded": True, "points": SCAN_POINTS,
         "noise": {"kind": "device"}},
        {"experiment": "fidelity-sweep", "seed": seed, "p2_grid": list(FIDELITY_GRID)},
    ]


DENSITY_FILES = ("scan.csv", "fidelity_sweep.csv")


def density_values(out_dirs) -> dict:
    """Numeric columns of the exact-density CSVs, without the seed column."""
    return {
        name: [[float(v) for k, v in row.items() if k != "seed"] for row in read_rows(Path(out) / name)]
        for out, name in zip(out_dirs, DENSITY_FILES)
    }


def _density_oracle() -> dict:
    return json.loads(EXACT_DENSITY_REFERENCE.read_text())


def _density_check(out_dirs, oracle, configs, workload):
    problems = []
    got = density_values(out_dirs)
    for name in DENSITY_FILES:
        want = oracle[name]
        if len(got[name]) != len(want):
            problems.append(f"{name} has {len(got[name])} rows, reference has {len(want)}")
            continue
        worst = max(abs(a - b) for r, w in zip(got[name], want) for a, b in zip(r, w))
        if worst > DENSITY_TOLERANCE:
            problems.append(f"{name} deviates from the reference by {worst:.3g}")
    manifest = json.loads((Path(out_dirs[0]) / "manifest.json").read_text())
    step = 2 * math.pi / (configs[0]["points"] - 1)
    if abs(manifest["theta_min"] - THETA_STAR) > step:
        problems.append(f"scan theta_min {manifest['theta_min']!r} is more than one grid step from theta*")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "table2-lownoise", _table2_configs, 4 * TABLE2_SHOTS,
            lambda: _shot_limits(0.0009), _table2_rows, check_sampled,
        ),
        Workload(
            "sweep-highnoise", _sweep_configs, 4 * len(SWEEP_GRID) * SWEEP_SHOTS,
            lambda: {
                (repr(p2), label): limit for p2 in SWEEP_GRID for label, limit in _shot_limits(p2).items()
            },
            _sweep_rows, check_sampled,
        ),
        # Runnable, but not in BENCHMARK.json: its times spread too widely
        # between seeds on a shared host to hold a bound (see NOTES.md).
        Workload(
            "red-device", _red_configs, 8 * RED_SHOTS, _red_oracle, _red_rows, check_sampled,
        ),
        Workload(
            "exact-density", _density_configs, SCAN_POINTS + len(FIDELITY_GRID),
            _density_oracle, lambda out_dirs, oracle: [], _density_check,
        ),
    )
}
