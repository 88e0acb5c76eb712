"""Record reference outputs of the current source tree: the exact-density rows
(the oracle of that workload) and the CSV body hash per (workload, seed),
which later runs report as ``csv_identical_to_seed``.

Usage, from the root of a checkout:

    python3 perfbench/record.py [SEED ...]

Seeds default to 1..10 plus the held-out seed. Each run goes through the same
child interpreter and pinned environment as the benchmark.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads


def main(argv) -> int:
    seeds = [int(s) for s in argv[1:]] or list(range(1, 11)) + [workloads.HELD_OUT_SEED]
    run_dir = run.WORK_DIR / f"record-{os.getpid()}"
    hashes = {}
    try:
        for name, workload in workloads.WORKLOADS.items():
            for seed in seeds:
                configs = workload.configs(seed)
                result = run.one_run(run_dir, configs, False)
                if result["problems"]:
                    print(f"error: {name} seed {seed}: {result['problems'][0]}", file=sys.stderr)
                    return 1
                out_dirs = [run_dir / f"out{i}" for i in range(len(configs))]
                hashes.setdefault(name, {})[str(seed)] = workloads.csv_sha256(out_dirs)
                if name == "exact-density" and seed == seeds[0]:
                    reference = {"configs": configs, **workloads.density_values(out_dirs)}
                print(f"{name} seed {seed}: {result['wall_s']:.2f} s", file=sys.stderr)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    workloads.EXACT_DENSITY_REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    workloads.CSV_HASHES.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
