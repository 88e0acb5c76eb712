"""Noise channels and named noise-model configurations applied per gate class.

The depolarizing convention: a noise parameter p means total error
probability p, split p/3 per Pauli. Two-qubit gates get independent
single-qubit channels on both qubits, each with the two-qubit parameter.
Device models divert a configured fraction of each gate's error weight into
amplitude damping (spontaneous emission to |0>), add per-qubit
initialization flips, and read terminal measurements through asymmetric
readout flips. Noise attaches to gates only; idle qubits are noiseless.
The attachment rule lives in one place: a model's five numbers (p1, p2,
the two emission ratios and p_init) give its rule row, the rate each kind
of channel takes (``_rule``), and a circuit's channels are built from one
row, each rate read from a column of it (``_attach``). ``attach_grid``
applies the rule to a grid of models once per channel layout and gathers
every point's rates by those columns; ``attach_noise`` is its one-point case.
A channel's superoperator is affine in its rates, so each channel class builds
the real superoperators of a stack of channels of its kind from their rate
columns, as one weighted sum of fixed basis terms (``superoperators``). Its
Kraus operators (``kraus``) are the reference those stacks are tested against.
"""
from __future__ import annotations

import functools
import itertools
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .qcore import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, Circuit, superoperator


def _check_prob(value, name):
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class DepolarizingParams:
    """Per-gate depolarizing probabilities; p1 defaults to p2/10."""

    p2: float
    p1: float | None = None

    def __post_init__(self):
        _check_prob(self.p2, "p2")  # first, as a bad p2 would make a bad derived p1
        if self.p1 is None:
            object.__setattr__(self, "p1", self.p2 / 10.0)
        _check_prob(self.p1, "p1")


@dataclass(frozen=True)
class ReadoutParams:
    """Asymmetric readout flips: p_flip0 = P(read 1 | 0), p_flip1 = P(read 0 | 1)."""

    p_flip0: float = 0.0
    p_flip1: float = 0.0

    def __post_init__(self):
        _check_prob(self.p_flip0, "p_flip0")
        _check_prob(self.p_flip1, "p_flip1")

    @property
    def kernel(self) -> np.ndarray:
        """Per-bit read kernel K[read, true]; every column sums to one."""
        return np.array(
            [
                [1.0 - self.p_flip0, self.p_flip1],
                [self.p_flip0, 1.0 - self.p_flip1],
            ]
        )


@dataclass(frozen=True)
class DeviceModel:
    """Device-style noise: depolarizing + emission + init flips + readout flips.

    The crosstalk fields are accepted for config compatibility but not
    simulated (they are orders of magnitude below the dominant channels).
    attach_noise logs a note when they are nonzero and ``logging`` is
    already imported; until then no handler could show the record.
    """

    depol: DepolarizingParams
    readout: ReadoutParams = ReadoutParams()
    p_init: float = 0.0
    emission_ratio_1q: float = 0.0
    emission_ratio_2q: float = 0.0
    crosstalk_meas: float = 0.0
    crosstalk_init: float = 0.0

    def __post_init__(self):
        for name in ("p_init", "emission_ratio_1q", "emission_ratio_2q",
                     "crosstalk_meas", "crosstalk_init"):
            _check_prob(getattr(self, name), name)


# Config keys mirror the device data-sheet row names verbatim.
_CONFIG_KEYS = {
    "Single-qubit Fault Probability (p1)": "p1",
    "Two-qubit Fault Probability (p2)": "p2",
    "Bit Flip Measurement Probability (0 outcome)": "p_flip0",
    "Bit Flip Measurement Probability (1 outcome)": "p_flip1",
    "Crosstalk Measurement Fault Probability": "crosstalk_meas",
    "Initialization Fault Probability": "p_init",
    "Crosstalk Initialization Probability": "crosstalk_init",
    "Ratio of Single-Qubit Spontaneous Emission to p1": "emission_ratio_1q",
    "Ratio of Single-Qubit Spontaneous Emission in Two-Qubit Gate to p2": "emission_ratio_2q",
}

H11E_PARAMS = {
    "Single-qubit Fault Probability (p1)": 2.1e-5,
    "Two-qubit Fault Probability (p2)": 8.8e-4,
    "Bit Flip Measurement Probability (0 outcome)": 1.0e-3,
    "Bit Flip Measurement Probability (1 outcome)": 4.0e-3,
    "Crosstalk Measurement Fault Probability": 1.45e-5,
    "Initialization Fault Probability": 3.62e-5,
    "Crosstalk Initialization Probability": 5.020e-6,
    "Ratio of Single-Qubit Spontaneous Emission to p1": 0.54,
    "Ratio of Single-Qubit Spontaneous Emission in Two-Qubit Gate to p2": 0.43,
}


def device_model_from_config(mapping: dict) -> DeviceModel:
    """Build a DeviceModel from data-sheet row names; unknown keys warn, never fail."""
    values = {}
    for key, raw in mapping.items():
        if key in _CONFIG_KEYS:
            if isinstance(raw, bool) or not isinstance(raw, (int, float)):
                raise TypeError(f"{key!r} must be a number, not {type(raw).__name__}")
            values[_CONFIG_KEYS[key]] = float(raw)
        else:
            warnings.warn(f"unknown noise config key ignored: {key!r}", stacklevel=2)
    depol = DepolarizingParams(p2=values.pop("p2", 0.0), p1=values.pop("p1", None))
    readout = ReadoutParams(values.pop("p_flip0", 0.0), values.pop("p_flip1", 0.0))
    return DeviceModel(depol=depol, readout=readout, **values)


def default_device_model() -> DeviceModel:
    return device_model_from_config(dict(H11E_PARAMS))


def _weighted_sum(weights, basis: np.ndarray) -> np.ndarray:
    """sum_j weights[j] basis[j] for weight columns of length P, as a (P, 4, 4) real stack: one
    broadcast product, summed over j in its fixed order, elementwise. No matmul runs over the
    stack axis, so an item's floats do not depend on P or on the other items."""
    return (np.stack(weights, axis=1)[:, :, None, None] * basis).sum(axis=1)


@functools.cache
def _pauli_basis() -> np.ndarray:
    """S(I), S(X), S(Y), S(Z), built on first use (each sigma (x) sigma* is real); shared, so read-only."""
    basis = np.stack([superoperator((sigma,)).real for sigma in (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)])
    basis.setflags(write=False)
    return basis


@functools.cache
def _damping_basis() -> np.ndarray:
    """A, B and C of A + sqrt(1 - gamma) B + gamma C, built on first use; shared, so read-only.
    Each index is a (row, column) bit pair: B scales the coherences, C moves |1><1| to |0><0|."""
    basis = np.zeros((3, 4, 4))
    basis[0, 0, 0] = basis[0, 3, 3] = 1.0
    basis[1, 1, 1] = basis[1, 2, 2] = 1.0
    basis[2, 0, 3], basis[2, 3, 3] = 1.0, -1.0
    basis.setflags(write=False)
    return basis


@dataclass(frozen=True)
class PauliNoise:
    """Stochastic single-qubit Pauli insertion after a gate."""

    qubit: int
    p_x: float
    p_y: float
    p_z: float

    def __post_init__(self):
        for name in ("p_x", "p_y", "p_z"):
            _check_prob(getattr(self, name), name)
        if self.p_total > 1.0:
            raise ValueError(f"p_total = p_x + p_y + p_z must be at most 1, got {self.p_total}")

    @property
    def p_total(self) -> float:
        return self.p_x + self.p_y + self.p_z

    @property
    def kraus(self) -> tuple[np.ndarray, ...]:
        """Kraus operators: sqrt(p) times each Pauli, the identity taking the rest."""
        weighted = ((1.0 - self.p_total, PAULI_I), (self.p_x, PAULI_X), (self.p_y, PAULI_Y), (self.p_z, PAULI_Z))
        return tuple(np.sqrt(p) * sigma for p, sigma in weighted if p > 0.0)

    @property
    def rates(self) -> tuple[float, ...]:
        return self.p_x, self.p_y, self.p_z

    @classmethod
    def superoperators(cls, p_x, p_y, p_z) -> np.ndarray:
        """The (P, 4, 4) superoperators of P Pauli channels from their rate columns: the weights
        (1 - p_total, p_x, p_y, p_z) on S(I), S(X), S(Y), S(Z) (_weighted_sum)."""
        return _weighted_sum((1.0 - (p_x + p_y + p_z), p_x, p_y, p_z), _pauli_basis())


@dataclass(frozen=True, eq=False)
class DampingNoise:
    """Amplitude damping (spontaneous emission to |0>) with probability gamma."""

    qubit: int
    gamma: float

    def __post_init__(self):
        _check_prob(self.gamma, "gamma")

    @property
    def kraus(self) -> tuple[np.ndarray, ...]:
        """Kraus operators: no jump (|1> shrinks) and the jump |1> -> |0>."""
        no_jump = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - self.gamma)]], dtype=complex)
        return no_jump, np.array([[0.0, np.sqrt(self.gamma)], [0.0, 0.0]], dtype=complex)

    @property
    def rates(self) -> tuple[float, ...]:
        return (self.gamma,)

    @classmethod
    def superoperators(cls, gamma) -> np.ndarray:
        """The (P, 4, 4) superoperators of P damping channels from their rate column:
        A + sqrt(1 - gamma) B + gamma C (_damping_basis, _weighted_sum)."""
        return _weighted_sum((np.ones_like(gamma), np.sqrt(1.0 - gamma), gamma), _damping_basis())


@dataclass(frozen=True, eq=False)
class NoisyCircuit:
    """A circuit with channel assignments per gate, init flips, and a read stage.

    ``channels[i]`` lists the noise applied after ``circuit.ops[i]``;
    ``pre_channels`` holds the initialization bit-flip channels applied at
    circuit start. ``readout`` is the per-bit read kernel K[read, true]
    applied to every measured bit. A column may sum to less than one:
    1 - K[0, b] - K[1, b] is the probability that reading a true b drops
    the shot, as a failed readout-encoding vote does. Plain readout flips
    (``ReadoutParams.kernel``) drop nothing.
    """

    circuit: Circuit
    channels: tuple[tuple, ...]
    pre_channels: tuple = ()
    readout: np.ndarray = field(default_factory=lambda: ReadoutParams().kernel)

    def __post_init__(self):
        if len(self.channels) != len(self.circuit.ops):
            raise ValueError("channel list must align with the gate list")
        # checked on plain floats, a wrong shape as NaNs: a NaN or an inf entry fails a comparison
        (a, b), (c, d) = self.readout.tolist() if self.readout.shape == (2, 2) else [[np.nan] * 2] * 2
        if not (min(a, b, c, d) >= 0.0 and a + c <= 1.0 + 1e-12 and b + d <= 1.0 + 1e-12):
            raise ValueError("readout must be a finite 2x2 kernel with non-negative entries and column sums <= 1")

    def noise_locations(self):
        """Flattened (location, channel) pairs; pre-channels use location -1."""
        out = [(-1, c) for c in self.pre_channels]
        for i, slot in enumerate(self.channels):
            out.extend((i, c) for c in slot)
        return out


def noiseless(circuit: Circuit) -> NoisyCircuit:
    return NoisyCircuit(circuit, tuple(() for _ in circuit.ops))


def _rule(model):
    """A model's rule row, from its five numbers (DepolarizingParams are the device model of them
    alone): by column, the init flip rate, then per gate class (1q, 2q) the per-Pauli rate
    p (1 - r) / 3.0 and the damping rate p r of its error weight p, then 0.0; and which of the
    first five channels it attaches, those of nonzero weight (p (1 - r) before the division)."""
    if isinstance(model, DeviceModel):
        p1, p2, p_init = model.depol.p1, model.depol.p2, model.p_init
        r1, r2 = model.emission_ratio_1q, model.emission_ratio_2q
    elif isinstance(model, DepolarizingParams):
        p1, p2, r1, r2, p_init = model.p1, model.p2, 0.0, 0.0, 0.0
    else:
        raise TypeError("model must be DepolarizingParams or DeviceModel")
    d1, g1, d2, g2 = p1 * (1.0 - r1), p1 * r1, p2 * (1.0 - r2), p2 * r2
    return (p_init, d1 / 3.0, g1, d2 / 3.0, g2, 0.0), (p_init > 0.0, d1 > 0.0, g1 > 0.0, d2 > 0.0, g2 > 0.0)


def _attach(circuit: Circuit, model, row, attached):
    """The circuit with the channels of a model's rule row (_rule), and the row's column of each
    of their rates in sim._channels order: init flips, then slot by slot. A 1q gate is followed
    by its class's channels on its qubit, a 2q gate by independent ones on both; equal channels
    are one frozen object. DepolarizingParams read through the identity."""
    read = DeviceModel.readout  # its default, the identity
    if isinstance(model, DeviceModel):
        read = model.readout
        logging = sys.modules.get("logging")  # the package never imports it; before anything does, no handler exists
        if logging is not None and (model.crosstalk_meas or model.crosstalk_init):
            logging.getLogger(__name__).info(
                "crosstalk parameters (%g, %g) accepted but not simulated",
                model.crosstalk_meas, model.crosstalk_init,
            )

    @functools.cache  # keyed by the channels' rates, None where the row attaches no such channel
    def channels_on(qubit, depolarizing, damping):
        out = () if depolarizing is None else (PauliNoise(qubit, depolarizing, depolarizing, depolarizing),)
        return out if damping is None else out + (DampingNoise(qubit, damping),)

    gate = {}  # by the gate's qubit count: its channels' rates on one qubit, and their columns
    for k, c in ((1, 1), (2, 3)):  # the class's per-Pauli column; its damping column follows
        rates = (row[c] if attached[c] else None, row[c + 1] if attached[c + 1] else None)
        gate[k] = rates, (c, c, c) * attached[c] + (c + 1,) * attached[c + 1]
    pre = tuple(PauliNoise(q, row[0], row[5], row[5]) for q in range(circuit.n_qubits)) if attached[0] else ()
    columns, channels = [0, 5, 5] * len(pre), []
    for op in circuit.ops:
        slot = ()
        if op.is_unitary:
            rates, cols = gate[len(op.qubits)]
            for q in op.qubits:
                slot += channels_on(q, *rates)
                columns += cols
        channels.append(slot)
    return NoisyCircuit(circuit, tuple(channels), pre, read.kernel), columns


def attach_noise(circuit: Circuit, model) -> NoisyCircuit:
    """The model's channels attached gate by gate: attach_grid's rule at one point, no rates gathered."""
    return _attach(circuit, model, *_rule(model))[0]


def attach_grid(circuit: Circuit, models):
    """The attachment rule over a grid of models, applied once per run of consecutive models that
    attach the same channels: yields, per run, the circuit attached at the run's first model and
    the run's rates as sim.evolve_densities reads them, a (points, m) array whose row holds the
    rates of every channel under that point's model (init flips first, then slot by slot),
    gathered by column from the points' rule rows."""
    rules = [(model, *_rule(model)) for model in models]
    table = np.array([row for _, row, _ in rules])
    for _, run in itertools.groupby(range(len(rules)), key=lambda i: rules[i][2]):
        run = list(run)
        noisy, columns = _attach(circuit, *rules[run[0]])
        yield noisy, table[run[0]:run[-1] + 1, columns]
