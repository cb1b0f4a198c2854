"""Exception types shared across the package.

Plain precondition violations (bad degrees, m = 0, p = q, ...) raise
ValueError; the classes below mark conditions callers are expected to
branch on (CLI exit codes, degenerate reductions, resource limits).
"""

from __future__ import annotations


class PolylcmError(Exception):
    """Base class for package-specific errors."""


class ResourceLimitError(PolylcmError):
    """Requested computation exceeds the configured memory/size budget."""


class UnsupportedSizeError(PolylcmError):
    """Integer too large for the exact factoring fast path (>= 2**128)."""


class ZeroValueError(PolylcmError):
    """Some f_a(n) vanished on [1, N]; valuations are undefined there."""

    def __init__(self, n: int, message: str | None = None):
        self.n = n
        super().__init__(message or f"f_a({n}) = 0; valuation ledger undefined")

    def __reduce__(self):
        # Unpickling (a worker's error) would pass self.args, the message, as n.
        return type(self), (self.n, str(self))


class DegenerateReductionError(PolylcmError):
    """Polynomial is identically zero modulo p: every residue is a root."""

    def __init__(self, p: int, rho: int, message: str | None = None):
        self.p = p
        self.rho = rho
        super().__init__(message or f"polynomial vanishes identically mod {p} (rho = {rho})")

    def __reduce__(self):
        return type(self), (self.p, self.rho, str(self))


class IrreducibilityRequiredError(PolylcmError):
    """Shift produces a reducible polynomial and allow_reducible is off."""


class EmptyEnsembleError(PolylcmError):
    """No irreducible shifts were found in the requested range/sample."""


class WindowViolationError(PolylcmError):
    """(T, N) lies outside the admissible window T^(1/(d-1)) < N < T/log T."""


class InternalConsistencyError(PolylcmError):
    """Two independent computation paths disagreed; indicates a bug."""
