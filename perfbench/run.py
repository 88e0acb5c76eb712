"""qedvqe benchmark: runs one workload as a closed loop with one client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs go back to back, each in a fresh interpreter (perfbench/child.py) with
BLAS pinned to one thread, until the next run would overrun S seconds. Every
run's CSV rows are checked against the workload's exact oracle and its CSV
bodies must be byte-identical to the first run's. With --trace 0 the last
line of stdout holds the end-to-end metrics (medians over the runs); with
--trace 1 untraced and traced runs alternate and it holds the per-layer
metrics of the traced runs. Times are scaled to the reference host speed by
a start-up probe (see at_reference_speed and NOTES.md). The line before it
holds run details, the as-measured medians and the environment.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK_DIR = ROOT / ".bench_build" / "perfbench"

RUN_TIMEOUT_S = 120  # one child run
STOP_STARTING_AFTER_S = 110  # no new run after this, so the whole run ends within 180 s
# Median start-up probe (spawn to `import numpy` done) on the host the
# benchmark was written on, in a calm period: 2 vCPU Intel Xeon at 2.1 GHz,
# Python 3.11.7, numpy 2.4.6. Scaled times read at this host speed.
PROBE_REFERENCE_S = 0.09

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]}

sys.path.insert(0, str(SRC))
# One BLAS thread, for the oracles in this process and, inherited, for every run.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
import tracer  # noqa: E402
import workloads  # noqa: E402


def child_env(traced: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.pop("QEDVQE_WORKERS", None)
    if traced:  # pool workers would lose their spans
        env["QEDVQE_WORKERS"] = "1"
    return env


def one_run(run_dir: Path, configs: list, traced: bool) -> dict:
    """Spawn one child run; returns its timings, or its failure."""
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    (run_dir / "configs.json").write_text(json.dumps(configs))
    cmd = [sys.executable, str(CHILD), str(run_dir)] + (["--trace"] if traced else [])
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(traced), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=RUN_TIMEOUT_S, text=True,
        )
    except subprocess.TimeoutExpired:
        return {"traced": traced, "problems": [f"run exceeded {RUN_TIMEOUT_S} s"]}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"traced": traced, "problems": [f"child exited {proc.returncode}: {tail[0]}"]}
    result = json.loads((run_dir / "result.json").read_text())
    result["probe_s"] = result.pop("numpy_imported") - spawned
    result["setup_s"] = result.pop("imported") - spawned
    result["traced"] = traced
    problems = [f"cli.run returned {code}" for code in result["codes"] if code != 0]
    if not Path(result["package"]).resolve().is_relative_to(SRC):
        problems.append(f"imported qedvqe from {result['package']}, not from the checkout")
    result["problems"] = problems
    return result


def check_outputs(result: dict, run_dir: Path, workload, configs, oracle, first_hash):
    out_dirs = [run_dir / f"out{i}" for i in range(len(configs))]
    result["csv_sha256"] = workloads.csv_sha256(out_dirs)
    if first_hash is not None and result["csv_sha256"] != first_hash:
        result["problems"].append("CSV bodies differ from the first run with the same seed")
    try:
        result["problems"] += workload.check(out_dirs, oracle, configs, workload)
        rows = workload.rows(out_dirs, oracle)
    except (OSError, KeyError, ValueError) as exc:
        result["problems"].append(f"unreadable output: {exc!r}")
        return
    if rows:
        result["max_sem_mHa"] = max(limit.sem_mha(row) for _, row, limit in rows)


def end_to_end(run: dict, workload) -> dict:
    wall = run["wall_s"]
    # exact rows already sit at any target accuracy, so the time is the run's own
    sem_ratio = run.get("max_sem_mHa", workloads.TARGET_SEM_MHA) / workloads.TARGET_SEM_MHA
    return {
        "wall_s": wall,
        "cpu_s": run["cpu_s"],
        "setup_s": run["setup_s"],
        "peak_rss_mb": run["peak_rss_mb"],
        "work_per_s": workload.work / wall,
        "s_to_0p5mHa": wall * sem_ratio**2,
    }


def summarize(samples: list) -> dict:
    """Median of each metric over the runs, with quartiles and sample count."""
    out = {}
    for name in samples[0]:
        values = [s[name] for s in samples]
        q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}
    return out


def at_reference_speed(summary: dict, speed: float) -> dict:
    """Scale times by the host speed factor, and rates by its inverse.

    The host is shared, and its speed drifts by up to half for minutes at a
    time. Interpreter start-up slows with it, so the ratio of the start-up
    probe's reference time to its median in this benchmark run brings every
    run to one speed. The probe runs nothing of qedvqe."""
    out = {}
    for name, stats in summary.items():
        unit = UNITS[name]
        factor = speed if unit in ("s", "us") else 1 / speed if unit == "1/s" else 1.0
        out[name] = {k: v if k == "n" else v * factor for k, v in stats.items()}
    return out


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": commit,
        "source_sha256": source_sha256(),
        "seed": seed,
        "held_out_seed": workloads.HELD_OUT_SEED,
    }


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qedvqe").glob("*.py")):
        digest.update(path.name.encode() + b"\n" + path.read_bytes())
    return digest.hexdigest()


def baseline_hash(workload: str, seed: int):
    if not workloads.CSV_HASHES.is_file():
        return None
    return json.loads(workloads.CSV_HASHES.read_text()).get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (SRC / "qedvqe" / "cli.py").is_file():
        print(f"error: no qedvqe package under {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    configs = workload.configs(args.seed)
    oracle = workload.oracle()
    run_dir = WORK_DIR / f"run-{os.getpid()}"
    try:
        warm = one_run(run_dir, [], False)  # fills bytecode caches before timing
        if warm["problems"]:
            print(f"error: warm-up run failed: {warm['problems'][0]}", file=sys.stderr)
            return 1
        runs, first_hash = [], None
        loop_start = time.monotonic()
        while True:
            traced = bool(args.trace) and len(runs) % 2 == 1
            run_start = time.monotonic()
            run = one_run(run_dir, configs, traced)
            if "wall_s" in run:
                check_outputs(run, run_dir, workload, configs, oracle, first_hash)
                first_hash = first_hash or run["csv_sha256"]
            run["duration_s"] = time.monotonic() - run_start
            runs.append(run)
            now = time.monotonic()
            typical = statistics.median(r["duration_s"] for r in runs)
            pair_open = bool(args.trace) and len(runs) % 2 == 1
            if now - started > STOP_STARTING_AFTER_S:
                break
            if now - loop_start + typical > args.seconds and not pair_open:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(1 for r in runs if r["problems"])
    timed = [r for r in runs if "wall_s" in r and not r["traced"]]
    traced_runs = [r for r in runs if "wall_s" in r and r["traced"]]
    if not timed or (args.trace and not traced_runs):
        print("error: no run completed: " + "; ".join(runs[0]["problems"]), file=sys.stderr)
        return 1
    probe_s = statistics.median(r["probe_s"] for r in timed + traced_runs)
    speed = PROBE_REFERENCE_S / probe_s
    e2e_measured = summarize([end_to_end(r, workload) for r in timed])
    e2e = at_reference_speed(e2e_measured, speed)
    if args.trace:
        layers = at_reference_speed(
            summarize([tracer.layer_metrics(r["spans"], r["counts"]) for r in traced_runs]), speed
        )
        wall_traced = speed * statistics.median(r["wall_s"] for r in traced_runs)
        layers["trace.overhead_s"] = {"median": wall_traced - e2e["wall_s"]["median"], "n": len(traced_runs)}
        reported = layers
    else:
        reported = e2e
    section = "per_layer" if args.trace else "end_to_end"
    if set(reported) != {m["name"] for m in DECLARED[section]}:
        raise RuntimeError(f"reported metrics differ from the {section} list in BENCHMARK.json")
    hashes = sorted({r["csv_sha256"] for r in runs if "csv_sha256" in r})
    seed_hash = baseline_hash(args.workload, args.seed)
    info = {
        "workload": args.workload,
        "attempted": len(runs),
        "failed": failed,
        "fail_frac": failed / len(runs),
        "problems": sorted({p for r in runs for p in r["problems"]})[:10],
        "csv_sha256": hashes,
        "csv_identical_to_seed": None if seed_hash is None else hashes == [seed_hash],
        "environment": environment(args.seed),
        "probe_s": probe_s,
        "speed_factor": speed,
        "end_to_end": e2e,
        "end_to_end_as_measured": e2e_measured,
    }
    if args.trace:
        info["per_layer"] = layers
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": v["median"], "unit": UNITS[name]} for name, v in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
