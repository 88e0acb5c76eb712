"""Noisy simulation of an error-detected, [[4,2,2]]-encoded VQE pipeline for H2."""

__version__ = "0.1.0"

from . import analysis, builders, estimate, noise, postselect, qcore, sim  # noqa: F401
