"""Span recorder for the traced run, and the reduction of its spans to
per-layer metrics.

``install`` replaces every public function of the eight ``qedvqe`` modules,
as a module attribute, with a wrapper that records a span (name, start, end,
parent). Calls between modules go through module attributes, so the
wrappers see them; functions one module imports from another by name stay
inside the caller's self time. Spans stay in memory until the run ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "builders", "noise", "sim", "postselect", "estimate", "analysis", "qcore")
TIMED_FUNCTIONS = (
    "cli.run", "cli.write_csv", "noise.attach_noise", "sim.sample_shots",
    "sim.sample_shots_batched", "sim.evolve_density", "qcore.expectation",
)
COUNTED_FUNCTIONS = ("sim.sample_shots", "sim.evolve_density", "qcore.expectation")

# What a wrapper keeps of a call, for the counts computed after the run.
OBSERVE = {
    "sim.sample_shots_batched": lambda args, res: (args[0], args[1].n_shots, len(res.counts)),
    "noise.attach_noise": lambda args, res: res,
    "postselect.apply_strategy": lambda args, res: (args[1].kind, res[1].n_before, res[1].n_after),
    "cli.write_csv": lambda args, res: str(args[0]),
}


class Recorder:
    def __init__(self):
        self.spans = []  # [name, start, end, index of the parent span or -1]
        self._stack = []
        self.seen = {name: [] for name in OBSERVE}

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        observe, seen = OBSERVE.get(name), self.seen.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                seen.append(observe(args, result))
            return result

        return traced

    def counts(self) -> dict:
        """Counters measured at the layer boundaries, computed after the run."""
        batched = self.seen["sim.sample_shots_batched"]
        shots = sum(n for _, n, _ in batched)
        faulty = sum(n * fault_probability(noisy) for noisy, n, _ in batched)
        psap = [(b, a) for kind, b, a in self.seen["postselect.apply_strategy"] if kind == "PSAP"]
        return {
            "sim.shots": shots,
            "sim.faulty_frac": faulty / shots if shots else 0.0,
            "sim.max_qubits": max((noisy.circuit.n_qubits for noisy, _, _ in batched), default=0),
            "sim.distinct_keys": sum(keys for _, _, keys in batched),
            "noise.locations": sum(len(nc.noise_locations()) for nc in self.seen["noise.attach_noise"]),
            "postselect.psap_eta": _kept_fraction(psap),
            "cli.csv_bytes": sum(os.path.getsize(p) for p in self.seen["cli.write_csv"]),
        }


def fault_probability(noisy) -> float:
    """1 - prod(1 - p) over the noise locations: exact for Pauli channels,
    an upper bound with gamma for damping."""
    clean = 1.0
    for _, ch in noisy.noise_locations():
        clean *= 1.0 - (ch.gamma if hasattr(ch, "gamma") else ch.p_total)
    return 1.0 - clean


def _kept_fraction(pairs) -> float:
    before = sum(b for b, _ in pairs)
    return sum(a for _, a in pairs) / before if before else 0.0


def install() -> Recorder:
    recorder = Recorder()
    for layer in LAYERS:
        module = importlib.import_module(f"qedvqe.{layer}")
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            setattr(module, name, recorder.wrap(f"{layer}.{name}", obj))
    return recorder


def layer_metrics(spans, counts) -> dict:
    """Self time (span duration minus its child spans) and call counts per
    module and per listed function, plus the recorded counters."""
    inner = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            inner[parent] += end - start
    self_s, calls = defaultdict(float), Counter()
    for (name, start, end, _), covered in zip(spans, inner):
        for key in (name.split(".")[0], name):
            self_s[key] += end - start - covered
            calls[key] += 1
    metrics = {f"{key}.self_s": self_s[key] for key in LAYERS + TIMED_FUNCTIONS}
    metrics.update({f"{key}.calls": calls[key] for key in LAYERS + COUNTED_FUNCTIONS})
    metrics.update(counts)
    shots = counts["sim.shots"]
    metrics["sim.us_per_shot"] = 1e6 * self_s["sim.sample_shots"] / shots if shots else 0.0
    return metrics
