"""One run of a workload in a fresh interpreter.

Usage: python3 perfbench/child.py RUN_DIR [--trace]

Imports numpy and then ``qedvqe.cli`` first, so the parent can time start-up
to each import done. Then runs the configs in RUN_DIR/configs.json back to
back through ``cli.run`` (output in RUN_DIR/out0, out1, ...) and writes
timings to RUN_DIR/result.json. With --trace the package's public functions record
spans, which are written to the result as well. An empty config list only
imports.
"""
import time

import numpy  # noqa: F401  the start-up probe ends here

NUMPY_IMPORTED = time.monotonic()

import qedvqe.cli as cli  # noqa: E402

IMPORTED = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(argv) -> int:
    run_dir = Path(argv[1])
    configs = json.loads((run_dir / "configs.json").read_text())
    recorder = None
    if "--trace" in argv:
        import tracer

        recorder = tracer.install()
    cpu0, t0 = _cpu_s(), time.perf_counter()
    codes = [cli.run(cfg, run_dir / f"out{i}") for i, cfg in enumerate(configs)]
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    result = {
        "numpy_imported": NUMPY_IMPORTED,
        "imported": IMPORTED,
        "package": cli.__file__,
        "codes": codes,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if recorder is not None:
        result.update(spans=recorder.spans, counts=recorder.counts())
    (run_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
