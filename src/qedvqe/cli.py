"""Reproduction driver: one subcommand per experiment, config in, CSV + manifest out.

Every experiment writes a manifest.json (the config as given, the converted
seed, tool version, gate counts, wall time) plus one or more CSV files whose
bodies are byte-identical across re-runs of the same config and seed. Passing a
previously written manifest as --config re-runs it. Every experiment runs in one
process: the exact grids evolve as stacks of density matrices (sim.evolve_densities),
and each sampled circuit costs a few milliseconds, less than a worker pool's start-up.

EXPERIMENTS is the one table of experiments: each runner and, for every config
key it reads, the key's default and the conversion that checks it. SEED and
THETA are accepted by every run. Before any work, run warns on stderr about the
keys an experiment does not read (nested ones as 'noise.p_2'), converts every
declared key, and then calls the runner with the converted values as keyword
arguments. Exit codes: 0 success, 2 a config value that cannot be used (the
message names its key), an --out path that cannot be made a directory (the
message names --out and the path) or an output file in it that cannot be written
(the message names --out, the file and the OS error), 3 a post-selection that
kept no shot, 4 an internal error (the traceback goes to stderr).
"""
from __future__ import annotations

import collections
import csv
import functools
import json
import math
import sys
import time
import zlib
from pathlib import Path

import numpy as np

from . import __version__
from . import analysis, builders, estimate, noise, postselect, qcore, sim

CSV_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_BAD_CONFIG = 2
EXIT_EMPTY_SELECTION = 3
EXIT_INTERNAL = 4


class ConfigError(ValueError):
    pass


REQUIRED = object()  # the default of a key that has none


# One config key: its default (or REQUIRED) and the conversion that checks it.
Key = collections.namedtuple("Key", "default convert")


def _number(raw) -> int | float:
    """raw, if it is a JSON number: a quoted number or a boolean is refused."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise TypeError(f"must be a number, not {type(raw).__name__}")
    return raw


def _count(minimum):
    def convert(raw) -> int:
        value = _number(raw)
        if isinstance(value, float) and not value.is_integer():
            raise ValueError("must be a whole number")
        value = int(value)
        if value < minimum:
            raise ValueError(f"must be at least {minimum}")
        return value

    return convert


def _finite(raw) -> float:
    value = float(_number(raw))
    if not math.isfinite(value):
        raise ValueError("must be a finite number")
    return value


def _flag(raw) -> bool:
    if not isinstance(raw, bool):
        raise TypeError("must be true or false")
    return raw


def _rates(raw) -> list[float]:
    rates = [_finite(p) for p in raw]
    if not all(0.0 <= p <= 1.0 for p in rates):
        raise ValueError("every rate must be in [0, 1]")
    return rates


def _strategies(raw) -> list[str]:
    return [postselect.Strategy(kind).kind for kind in raw]


def _nested(*keys):
    """Declares the keys a converter reads inside its config object; run warns about any other."""

    def declare(convert):
        convert.nested = keys
        return convert

    return declare


@_nested("kind", "p2", "p1")
def _noise_model(spec: dict):
    kind = spec.get("kind", "depolarizing")
    if kind == "depolarizing":
        return noise.DepolarizingParams(
            p2=_finite(spec.get("p2", 0.0)),
            p1=None if spec.get("p1") is None else _finite(spec["p1"]),
        )
    if kind == "device":
        params = dict(noise.H11E_PARAMS)
        params.update({k: v for k, v in spec.items() if k != "kind"})
        return noise.device_model_from_config(params)
    raise ValueError(f"unknown noise kind {kind!r}")


def _device_model(spec: dict) -> noise.DeviceModel:
    model = _noise_model(spec)
    if not isinstance(model, noise.DeviceModel):
        raise ValueError("must be a device noise model")
    return model


@_nested("g0", "g1", "g2", "g3", "g4")
def _hamiltonian(g) -> estimate.H2Hamiltonian:
    if g is None:
        return estimate.default_h2()
    return estimate.H2Hamiltonian(*(_finite(g[k]) for k in ("g0", "g1", "g2", "g3", "g4")))


def _integrals(g) -> estimate.Integrals:
    return estimate.Integrals(**{k: _finite(v) for k, v in g.items()})


# The keys more than one experiment reads. A key's default and its conversion
# are stated once; SEED and THETA are accepted by every run.
SEED = Key(0, _count(-math.inf))  # any whole number
THETA = Key(estimate.THETA_STAR, _finite)
HAMILTONIAN = Key(None, _hamiltonian)
STRATEGIES = Key(["NONE", "PSA", "PSP", "PSAP"], _strategies)
P2_GRID = Key((0.001, 0.005, 0.01, 0.02, 0.05, 0.10), _rates)


def _sub_seed(master: int, tag: str) -> int:
    """Deterministic per-run stream id mixed from the master seed and a label."""
    return (int(master) ^ (zlib.crc32(tag.encode()) << 20)) % (2**63)


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, np.integer):
        return int(v)
    return v


def write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _evolve(circ, model) -> qcore.DensityMatrix:
    """The density matrix of a circuit under a noise model."""
    return sim.evolve_density(noise.attach_noise(circ, model))


# ---------------------------------------------------------------------------
# shared pipelines
# ---------------------------------------------------------------------------

ENERGY_HEADER = (
    "label", "energy_mHa", "sem_mHa", "variance_Ha2",
    "eta_Z", "eta_X", "sigma_eta_Z", "sigma_eta_X", "n_Z", "n_X", "seed",
)


def _study_rows(ham, model, theta, strategies, red=False, shots=None, seed=0, tags=("unencoded", "encoded")):
    """One model's study: the unencoded row, then the encoded row of each strategy.

    Each ansatz runs build -> attach_noise -> read kernel (readout flips, or
    the vote with red, built once per call) -> read -> a2 = 0 -> strategy
    (encoded only) -> estimate, with nothing renormalized between steps. Only
    the read forks: sample_shots_batched under the sub-seed of tag/basis, tags
    being the unencoded and the encoded ansatz's tag, or with shots=None its
    exact limit sim.shot_limit_table. Returns [(label, EnergyEstimate,
    SurvivalStats by basis, eta_overall_Z)], eta_overall_Z being the kept over
    the raw Z weight. Exact rows have SEM 0 and n_used 0; sigma_eta means
    something for sampled rows only.
    """
    vote = sim.red_vote_kernel_for(model) if red else None
    rows = []
    for encoded, tag in zip((False, True), tags):
        build = builders.build_encoded_ansatz if encoded else builders.build_unencoded_ansatz
        tables, raw = {}, {}
        for basis in ("Z", "X"):
            nc = noise.attach_noise(build(theta, basis), model)
            if red:
                nc = nc.replace(readout=vote)
            if shots is None:
                tables[basis], raw[basis] = sim.shot_limit_table(nc)
            else:
                cfg = sim.TrajectoryConfig(shots, _sub_seed(seed, f"{tag}/{basis}"))
                tables[basis], raw[basis] = sim.sample_shots_batched(nc, cfg), shots
        mode = estimate.MODE_ENCODED if encoded else estimate.MODE_UNENCODED
        name = mode + ("+red" if red else "")
        if encoded:
            branch = {b: postselect.select_a2_branch(tables[b], 0) for b in "ZX"}
            picks = [
                (f"{name}/{kind}", {b: postselect.apply_strategy(branch[b], postselect.Strategy(kind)) for b in "ZX"})
                for kind in strategies
            ]
        else:
            picks = [(name, {b: (tables[b], postselect.SurvivalStats.of(raw[b], tables[b].n_shots)) for b in "ZX"})]
        for label, picked in picks:  # picked: basis -> (selected table, its survival)
            (z, z_stats), (x, x_stats) = picked["Z"], picked["X"]
            est = estimate.energy_from_shots(z, x, ham, mode=mode, eta={"Z": z_stats.eta, "X": x_stats.eta})
            rows.append((label, est, {"Z": z_stats, "X": x_stats}, z.n_shots / raw["Z"]))
    return rows


def _row(label, est, stats, seed):
    """The ENERGY_HEADER columns of one sampled study row."""
    return (
        label, est.mean * 1e3, est.sem * 1e3, est.variance,
        stats["Z"].eta, stats["X"].eta, stats["Z"].sigma_eta, stats["X"].sigma_eta,
        est.n_used["Z"], est.n_used["X"], seed,
    )


def _projected_energy(ham, rho, kind):
    """The logical energy of an encoded state rho projected by strategy kind."""
    if kind == "NONE":
        rho_sel = analysis.project_qubit(rho, 5, 0)
    else:
        rho_sel = analysis.project_state(rho, {"PSA": "PI_A", "PSP": "PI_P", "PSAP": "PI_AP"}[kind])
    return qcore.expectation(rho_sel, ham.logical_matrix())


def shot_limit_estimates(ham, model, theta, strategies=("NONE", "PSA", "PSP", "PSAP")):
    """Infinite-shot limit of the shot pipeline: one exact _study_rows call.

    Unlike the projected-density energies, this keeps the measurement's
    phase collapse, so it is the converged value of the sampled estimators.
    Returns {label: (EnergyEstimate with SEM 0, eta_by_basis)}: 'unencoded'
    and 'encoded/<kind>' for each strategy.
    """
    return {label: (est, est.eta) for label, est, _, _ in _study_rows(ham, model, theta, strategies)}


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def _theta_basis(build, model):
    """[rho(0), rho(pi), 2 rho(pi/2) - rho(0) - rho(pi)], as DensityMatrix, of build(theta, "Z") under
    the model, from three evolutions; rho(theta) is their sum weighted by _theta_weights(theta):
    theta is the angle (+-theta + const) of one RY or RZ and no channel reads it, so with
    c = cos(theta/2) and s = sin(theta/2), exactly (Rotosolve: Ostaszewski et al., Quantum
    5, 391 (2021)) rho(theta) = c^2 rho(0) + s^2 rho(pi) + cs (2 rho(pi/2) - rho(0) - rho(pi)).
    An ansatz that breaks this premise is a fault of the program: a ValueError."""
    circuits = [build(t, "Z") for t in (0.0, math.pi, math.pi / 2)]
    moved = [(a, b) for a, b in zip(circuits[0].ops, circuits[2].ops) if a != b]
    if len(circuits[0].ops) != len(circuits[2].ops) or len(moved) != 1 or not all(
        a.kind == b.kind in qcore.PARAMETRIC_KINDS and a.qubits == b.qubits
        and math.isclose(abs(b.angle - a.angle), math.pi / 2, abs_tol=1e-12) for a, b in moved
    ):
        raise ValueError("theta must be the angle (+-theta + const) of exactly one RY or RZ of the ansatz")
    rho0, rho_pi, rho_half = sim.evolve_densities([noise.attach_noise(c, model) for c in circuits])
    return [rho0, rho_pi, qcore.DensityMatrix(rho0.n_qubits, 2.0 * rho_half.mat - rho0.mat - rho_pi.mat)]


def _theta_weights(theta: float):
    return math.cos(theta / 2) ** 2, math.sin(theta / 2) ** 2, 0.5 * math.sin(theta)


def exp_scan(hamiltonian, noise, points, encoded, seed):
    # every number a theta needs is linear in rho(theta), so each is taken once per basis
    # matrix (kept unnormalized to its a2 = 0 branch if encoded) and a theta combines scalars
    mode = estimate.MODE_ENCODED if encoded else estimate.MODE_UNENCODED
    build = builders.build_encoded_ansatz if encoded else builders.build_unencoded_ansatz
    states = _theta_basis(build, noise)
    if encoded:
        states = [qcore.DensityMatrix(rho.n_qubits, analysis.qubit_branch(rho, 5, 0)) for rho in states]
    observables = [hamiltonian.observable(mode)] + [qcore.pauli_word(w) for w in estimate.WORDS[mode][1:]]
    forms = np.array([[qcore.expectation(rho, obs) for rho in states] for obs in observables])
    traces = np.array([np.trace(rho.mat).real for rho in states])

    def runner(theta: float) -> estimate.EnergyEstimate:
        w = _theta_weights(theta)
        mean, *terms = forms @ w / (analysis.support(traces @ w) if encoded else 1.0)
        var = sum(estimate.term_variances(hamiltonian, terms))
        return estimate.EnergyEstimate(float(mean), float(var), 0.0, {"Z": 0, "X": 0})

    theta_min, curve = estimate.scan_theta(runner, points)
    rows = [
        (theta, est.mean, est.sem, est.variance, est.eta["Z"], est.eta["X"], seed)
        for theta, est in curve
    ]
    header = ("theta_rad", "mean_Ha", "sem_Ha", "variance_Ha2", "eta_Z", "eta_X", "seed")
    summary = f"theta_min = {theta_min!r}  E(theta_min) = {min(e.mean for _, e in curve)!r} Ha"
    return {"scan.csv": (header, rows)}, {"theta_min": theta_min}, summary


def exp_table2(hamiltonian, noise, shots, strategies, seed, theta):
    study = _study_rows(hamiltonian, noise, theta, strategies, shots=shots, seed=seed)
    rows = [_row(label, est, stats, seed) for label, est, stats, _ in study]
    density = [
        ("density/unencoded", 1e3 * qcore.expectation(
            _evolve(builders.build_unencoded_ansatz(theta, "Z"), noise), hamiltonian.matrix()
        ), seed)
    ]
    rho = _evolve(builders.build_encoded_ansatz(theta, "Z"), noise)  # one evolution serves every strategy
    density += [(f"density/{kind}", 1e3 * _projected_energy(hamiltonian, rho, kind), seed) for kind in strategies]
    summary = "\n".join(f"{r[0]:20s} {r[1]:9.2f} mHa  eta_Z={100 * r[4]:.3f}%" for r in rows)
    return {
        "table2.csv": (ENERGY_HEADER, rows),
        "table2_density.csv": (("label", "energy_mHa", "seed"), density),
    }, {}, summary


def exp_sweep_depol(hamiltonian, shots, p2_grid, strategies, seed, theta):
    rows = []
    for p2 in p2_grid:
        model, tags = noise.DepolarizingParams(p2=p2), (f"p2={p2!r}/unenc", f"p2={p2!r}/enc")
        study = _study_rows(hamiltonian, model, theta, strategies, shots=shots, seed=seed, tags=tags)
        rows += [(p2,) + _row(label, est, stats, seed) for label, est, stats, _ in study]
    header = ("p2",) + ENERGY_HEADER
    return {"sweep_depol.csv": (header, rows)}, {}, f"{len(p2_grid)} noise points x {1 + len(strategies)} rows"


ANALYSIS_HEADER = (
    "p2", "F_unenc", "F_enc", "F_A", "F_P", "F_AP",
    "p_eps_all", "p_eps_NL", "p_eps_L", "p_eps_A", "seed",
)


def _evolve_grid(circ, p2_grid):
    """The density matrix of circ under depolarizing noise at each p2, in order: circ is attached
    once per run of points that attach the same channels (p2 = 0 attaches none), and each run
    is one sim.evolve_densities call on the run's rate columns (noise.attach_grid)."""
    for noisy, rates in noise.attach_grid(circ, [noise.DepolarizingParams(p2=p2) for p2 in p2_grid]):
        yield from sim.evolve_densities([noisy], rates)


def _analysis_rows(p2_grid, theta, seed):
    """The ANALYSIS_HEADER row of each p2: both circuits and the three ideal kets
    are built once, and each state is analysed as its grid's evolution yields it."""
    ideal_u, ideal_e = builders.unencoded_target_state(theta), builders.encoded_target_state(theta)
    branch = builders.encoded_branch_state(theta, 0)  # the ideal states are kets
    circ_u, circ_e = builders.build_unencoded_ansatz(theta, "Z"), builders.build_encoded_ansatz(theta, "Z")
    projected = [analysis.projected_fidelity(branch, kind) for kind in ("PI_A", "PI_P", "PI_AP")]
    for p2, rho_u, rho_e in zip(p2_grid, _evolve_grid(circ_u, p2_grid), _evolve_grid(circ_e, p2_grid)):
        report = analysis.logical_error_report(analysis.project_qubit(rho_e, 5, 0), branch)
        yield (
            p2, analysis.fidelity(ideal_u, rho_u), analysis.fidelity(ideal_e, rho_e),
            *(fidelity_of(rho_e) for fidelity_of in projected),
            report.p_eps_all, report.p_eps_NL, report.p_eps_L, report.p_eps_A, seed,
        )


def _analysis_runner(csv_name):
    """The one runner of fidelity-sweep and logical-error, which differ only in
    the CSV they write: fidelities and the logical-error split over p2_grid."""

    def exp_analysis(p2_grid, seed, theta):
        rows = list(_analysis_rows(p2_grid, theta, seed))
        return {csv_name: (ANALYSIS_HEADER, rows)}, {}, f"{len(rows)} noise points"

    return exp_analysis


def exp_stateprep(p2_grid, seed):
    rows, ideal = [], builders.prep_target_state()
    projected = [analysis.projected_fidelity(ideal, kind) for kind in ("S_A", "S_P", "S_AP")]
    for p2, rho in zip(p2_grid, _evolve_grid(builders.build_state_prep_422(True), p2_grid)):
        rows.append((p2, analysis.fidelity(ideal, rho), *(fidelity_of(rho) for fidelity_of in projected), seed))
    header = ("p2", "F_prep", "F_S_A", "F_S_P", "F_S_AP", "seed")
    return {"stateprep.csv": (header, rows)}, {}, f"{len(rows)} noise points"


def exp_red_pipeline(hamiltonian, noise, shots, seed, theta):
    """Device-model comparison of the four study rows, with and without RED."""
    rows = []
    for red in (False, True):
        tags = (f"unenc/red={red}", "encoded" + ("+red" if red else ""))
        study = _study_rows(hamiltonian, noise, theta, ["PSAP"], red=red, shots=shots, seed=seed, tags=tags)
        for label, est, stats, eta_overall in study:
            rows.append(_row(label, est, stats, seed) + (1e3 * abs(est.mean - estimate.E_STAR_HA), eta_overall))
    header = ENERGY_HEADER + ("delta_mHa", "eta_overall_Z")
    summary = "\n".join(f"{r[0]:22s} {r[1]:9.2f} mHa  delta={r[-2]:.2f}  eta={100 * r[-1]:.1f}%" for r in rows)
    return {"red_pipeline.csv": (header, rows)}, {}, summary


def exp_budget(variance, target_sem):
    try:
        shots = estimate.shot_budget(variance, target_sem)
    except ValueError as exc:
        raise ConfigError(f"config key 'variance' or config key 'target_sem': {exc}") from None
    header = ("variance_Ha2", "target_sem_Ha", "shots")
    return {"budget.csv": (header, [(variance, target_sem, shots)])}, {"shots": shots}, str(shots)


@functools.lru_cache(maxsize=16)
def _study_gate_counts(theta: float) -> tuple:
    """(label, (n_1q, n_2q, n_meas)) of each study circuit, whose counts hqc prices and every
    manifest records, built once per theta, as tuples no caller can change."""
    circuits = {
        "unencoded/Z": builders.build_unencoded_ansatz(theta, "Z"),
        "unencoded/X": builders.build_unencoded_ansatz(theta, "X"),
        "encoded/Z": builders.build_encoded_ansatz(theta, "Z"),
        "encoded/X": builders.build_encoded_ansatz(theta, "X"),
        "unencoded+red/Z": builders.wrap_with_red(builders.build_unencoded_ansatz(theta, "Z")),
        "encoded+red/Z": builders.wrap_with_red(builders.build_encoded_ansatz(theta, "Z")),
    }
    return tuple((label, circ.gate_counts()) for label, circ in circuits.items())


def exp_hqc(shots, theta):
    """Device-credit costs for the study circuits; counts are this package's constructions,
    not the published post-transpilation table, and are never asserted against it."""
    rows = [
        (label, *counts, shots, estimate.hqc_cost(estimate.ResourceCount(*counts, shots)))
        for label, counts in _study_gate_counts(theta)
    ]
    header = ("circuit", "n_1q", "n_2q", "n_meas", "shots", "hqc_credits")
    return {"hqc.csv": (header, rows)}, {}, f"{len(rows)} circuits at {shots} shots"


def exp_coeffs(integrals):
    g = estimate.integrals_to_coeffs(integrals)
    header = ("g0", "g1", "g2", "g3", "g4")
    return {"coeffs.csv": (header, [g])}, {"coeffs": list(g)}, " ".join(repr(v) for v in g)


# Each experiment's runner and the config keys it reads, each with its default
# and conversion; run passes them to the runner as keyword arguments. A run also
# accepts "experiment" and the SEED and THETA keys (it reads theta for the gate
# counts and records seed in the manifest).
EXPERIMENTS = {
    "scan": (exp_scan, dict(
        hamiltonian=HAMILTONIAN, noise=Key({}, _noise_model), points=Key(150, _count(2)),
        encoded=Key(False, _flag), seed=SEED,
    )),
    "sweep-depol": (exp_sweep_depol, dict(
        hamiltonian=HAMILTONIAN, shots=Key(20000, _count(1)),
        p2_grid=Key((0.0005, 0.001, 0.002, 0.005, 0.01), _rates), strategies=STRATEGIES, seed=SEED, theta=THETA,
    )),
    # the comparison table is defined at the chemical-accuracy threshold noise
    "table2": (exp_table2, dict(
        hamiltonian=HAMILTONIAN, noise=Key({"p2": 0.0009}, _noise_model), shots=Key(200000, _count(1)),
        strategies=STRATEGIES, seed=SEED, theta=THETA,
    )),
    "fidelity-sweep": (_analysis_runner("fidelity_sweep.csv"), dict(p2_grid=P2_GRID, seed=SEED, theta=THETA)),
    "logical-error": (_analysis_runner("logical_error.csv"), dict(p2_grid=P2_GRID, seed=SEED, theta=THETA)),
    "stateprep": (exp_stateprep, dict(p2_grid=P2_GRID, seed=SEED)),
    "red-pipeline": (exp_red_pipeline, dict(
        hamiltonian=HAMILTONIAN, noise=Key({"kind": "device"}, _device_model), shots=Key(20000, _count(1)),
        seed=SEED, theta=THETA,
    )),
    "budget": (exp_budget, dict(variance=Key(0.04700, _finite), target_sem=Key(0.0005, _finite))),
    "hqc": (exp_hqc, dict(shots=Key(188000, _count(0)), theta=THETA)),
    "coeffs": (exp_coeffs, dict(integrals=Key(REQUIRED, _integrals))),
}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def _gate_counts(theta: float) -> dict:
    """The manifest's gate counts of the study circuits, as new dicts on every call."""
    return {label: dict(zip(("n_1q", "n_2q", "n_meas"), counts)) for label, counts in _study_gate_counts(theta)}


def _unread_keys(config: dict, keys: dict):
    """The config keys an experiment does not read, nested ones as 'parent.key'.

    A device noise spec is left to noise.device_model_from_config, which warns
    about unknown data-sheet rows.
    """
    for key, value in config.items():
        if key not in keys and key != "experiment":
            yield key
        elif isinstance(value, dict) and hasattr(keys[key].convert, "nested") and value.get("kind") != "device":
            yield from (f"{key}.{sub}" for sub in value if sub not in keys[key].convert.nested)


def _convert(config: dict, key: str, spec: Key):
    """config[key], or the key's default, converted; a value it cannot use is a ConfigError naming the key."""
    if key not in config and spec.default is REQUIRED:
        raise ConfigError(f"missing required config key {key!r}")
    raw = config.get(key, spec.default)
    try:
        return spec.convert(raw)
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r}: cannot use {raw!r} ({exc})") from None


def _unwritable(out: Path, exc: OSError) -> int:
    print(f"error: --out {str(out)!r}: cannot write {Path(exc.filename).name!r} ({exc.strerror})", file=sys.stderr)
    return EXIT_BAD_CONFIG


def run(config: dict, out_dir) -> int:
    """Run one experiment; writes manifest + CSVs, returns a process exit code."""
    out = Path(out_dir)
    experiment = config.get("experiment")
    if not isinstance(experiment, str) or experiment not in EXPERIMENTS:
        print(f"error: unknown or missing experiment {experiment!r}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    runner, reads = EXPERIMENTS[experiment]
    keys = {"seed": SEED, "theta": THETA, **reads}
    for key in _unread_keys(config, keys):
        print(f"warning: config key {key!r} is not read by {experiment!r}; ignored", file=sys.stderr)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: --out {str(out)!r} cannot be made an output directory ({exc.strerror})", file=sys.stderr)
        return EXIT_BAD_CONFIG
    started = time.time()
    try:
        values = {key: _convert(config, key, spec) for key, spec in keys.items()}
        tables, extra, summary = runner(**{key: values[key] for key in reads})
        gate_counts = _gate_counts(values["theta"])
    except ConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except postselect.EmptySelectionError as exc:
        print(f"error: empty post-selection: {exc}", file=sys.stderr)
        try:
            write_csv(out / "empty_selection.csv", ("experiment", "eta", "seed"), [(experiment, 0.0, values["seed"])])
        except OSError as exc:
            return _unwritable(out, exc)
        return EXIT_EMPTY_SELECTION
    except Exception:
        import traceback
        traceback.print_exc()
        print(f"error: internal error while running {experiment!r}", file=sys.stderr)
        return EXIT_INTERNAL
    manifest = {
        "tool": "qedvqe",
        "version": __version__,
        "experiment": experiment,
        "config": config,
        "seed": values["seed"],
        "csv_schema_version": CSV_SCHEMA_VERSION,
        "outputs": sorted(tables.keys()),
        "gate_counts": gate_counts,
        "wall_time_s": round(time.time() - started, 3),
    }
    manifest.update(extra)
    try:
        for name, (header, rows) in tables.items():
            write_csv(out / name, header, rows)
        with open(out / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        return _unwritable(out, exc)
    print(summary)
    print(f"wrote {', '.join(sorted(tables))} and manifest.json to {out}")
    return EXIT_OK


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {str(path)!r}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {str(path)!r} must hold a JSON object")
    # a manifest is itself a valid config carrier
    if "tool" in raw and isinstance(raw.get("config"), dict):
        return raw["config"]
    return raw


def main(argv=None) -> int:
    import argparse
    parser = argparse.ArgumentParser(
        prog="qedvqe",
        description="Noisy error-detected VQE simulations for molecular hydrogen",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", help="JSON config (or a previously written manifest)")
    parser.add_argument("--seed", type=int, help="master RNG seed (overrides config)")
    parser.add_argument("--shots", type=int, help="shot count (overrides config)")
    parser.add_argument("--out", default="out", help="output directory")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config) if args.config else {}
    except ConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    config["experiment"] = args.experiment
    if args.seed is not None:
        config["seed"] = args.seed
    if args.shots is not None:
        config["shots"] = args.shots
    return run(config, args.out)


if __name__ == "__main__":
    sys.exit(main())
