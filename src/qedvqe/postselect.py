"""Shot-filtering rules: a2 branch selection and PSA/PSP/PSAP.

Survival fractions follow the study's normalization: the QED strategies are
normalized to the a2=0-selected population. The readout-encoding vote is not
a rule here: the sampler applies it as the circuit's read kernel
(sim.sample_shots), and its survival is the kept shots over the raw shot total. Each rule is
parity checks over a ShotTable's outcome indices (MeasurementLayout.parity), a boolean mask
that multiplies its weights, sampled or exact (sim.shot_limit_table), and never rescales them.
"""
from __future__ import annotations

import math

import numpy as np

from .qcore import ROLE_A1, ROLE_A2, ROLE_DATA, Record
from .sim import MeasurementLayout, ShotTable

STRATEGY_NONE = "NONE"
STRATEGY_PSA = "PSA"
STRATEGY_PSP = "PSP"
STRATEGY_PSAP = "PSAP"
STRATEGIES = (STRATEGY_NONE, STRATEGY_PSA, STRATEGY_PSP, STRATEGY_PSAP)


class EmptySelectionError(RuntimeError):
    """Post-selection rejected every shot; downstream estimates are undefined."""


class Strategy(Record):
    """A post-selection rule by name: one of STRATEGIES."""

    __slots__ = ("kind",)

    def __init__(self, kind: str):
        object.__setattr__(self, "kind", kind)
        if kind not in STRATEGIES:
            raise ValueError(f"unknown strategy {kind!r}")


class SurvivalStats(Record):
    """Fraction retained by a filter, with its binomial standard error."""

    __slots__ = ("eta", "sigma_eta", "n_before", "n_after")

    def __init__(self, eta: float, sigma_eta: float, n_before: int, n_after: int):
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "sigma_eta", sigma_eta)
        object.__setattr__(self, "n_before", n_before)
        object.__setattr__(self, "n_after", n_after)

    @classmethod
    def of(cls, n_before: int, n_after: int) -> "SurvivalStats":
        eta = n_after / n_before
        sigma = math.sqrt(max(0.0, eta * (1.0 - eta)) / n_before)
        return cls(eta, sigma, n_before, n_after)


def select_a2_branch(table: ShotTable, branch: int) -> ShotTable:
    """Keep rows whose a2 bit equals the requested branch."""
    if branch not in (0, 1):
        raise ValueError("branch must be 0 or 1")
    a2 = table.layout.parity((table.layout.position_of_role(ROLE_A2),))
    return ShotTable(table.weights * (a2 == branch), table.layout)


def apply_strategy(table: ShotTable, strategy: Strategy):
    """Apply a QED post-selection rule to an a2-selected table.

    PSA discards a1=1 rows, PSP discards odd data parity (keeping both a1
    values), PSAP discards either. Returns the filtered table and the
    survival statistics, normalized to the input population.
    """
    if table.n_shots == 0:
        raise EmptySelectionError("cannot post-select an empty table")
    layout, kind = table.layout, strategy.kind
    kept = np.ones(table.weights.size, bool)
    if kind in (STRATEGY_PSA, STRATEGY_PSAP):
        kept &= layout.parity((layout.position_of_role(ROLE_A1),)) == 0
    if kind in (STRATEGY_PSP, STRATEGY_PSAP):
        data = layout.positions_of_role(ROLE_DATA)
        if len(data) != 4:
            raise ValueError("parity post-selection needs the four encoded data qubits")
        kept &= layout.parity(data) == 0
    out = ShotTable(table.weights * kept, layout)
    return out, SurvivalStats.of(table.n_shots, out.n_shots)


def _normalized(table: ShotTable) -> dict:
    total = table.n_shots
    if total <= 0.0:
        raise EmptySelectionError("post-selection removed all weight")
    return {key: w / total for key, w in table.counts.items()}


def select_a2_probs(probs: dict[str, float], layout: MeasurementLayout, branch: int):
    """select_a2_branch on an exact distribution; returns (renormalized map, branch weight)."""
    out = select_a2_branch(ShotTable.of(probs, layout), branch)
    return _normalized(out), out.n_shots


def apply_strategy_probs(probs: dict[str, float], layout: MeasurementLayout, strategy: Strategy):
    """apply_strategy on an exact distribution; returns (renormalized map, eta)."""
    out, stats = apply_strategy(ShotTable.of(probs, layout), strategy)
    return _normalized(out), stats.eta
