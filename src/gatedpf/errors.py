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
    mode measurement gating exists to prevent.
    """


class ModelConsistencyError(GatedPfError):
    """A model produced physically or statistically inconsistent values."""


class DataError(GatedPfError):
    """Malformed or incomplete measurement / decision data."""
