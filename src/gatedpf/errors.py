"""Exception types shared across the package."""
from __future__ import annotations


class GatedPfError(Exception):
    """Base class for all package errors."""


class ConfigurationError(GatedPfError):
    """Invalid parameters, dimension mismatches, or malformed scenario input."""


class ContractViolation(GatedPfError):
    """An operation was called on input that breaks its stated precondition."""


class WeightCollapseError(GatedPfError):
    """Every posterior particle weight is exactly zero.

    Raised instead of silently renormalizing: a collapse means the incoming
    measurement set is impossible under every particle, which is the failure
    mode measurement gating exists to prevent.  ``k`` and ``sensor_ids``
    name the filter step and the measurements it assimilated, when known.
    """

    def __init__(self, message: str, k: int | None = None, sensor_ids=()) -> None:
        super().__init__(message)
        self.k = k
        self.sensor_ids = tuple(sensor_ids)


class ModelConsistencyError(GatedPfError):
    """A model produced physically or statistically inconsistent values."""


class DataError(GatedPfError):
    """Malformed or incomplete measurement / decision data."""


class WorkerError(GatedPfError):
    """A worker process of a seed map ended without sending its result."""
