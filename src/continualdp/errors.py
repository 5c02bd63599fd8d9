"""Exception hierarchy shared across the library.

Every error raised on purpose derives from :class:`ContinualDPError` so
callers (and the CLI) can distinguish deliberate contract violations
from genuine bugs.
"""

from __future__ import annotations


class ContinualDPError(Exception):
    """Base class for all library errors."""


class InvalidUpdate(ContinualDPError):
    """An update is inconsistent with the graph it is applied to."""


class LengthMismatch(ContinualDPError):
    """Two sequences compared for adjacency have different lengths."""


class FormatError(ContinualDPError):
    """Malformed update-log text."""


class NonPositiveScale(ContinualDPError):
    """Laplace scale, and the bound it gives, must be positive and finite."""


class EmptyList(ContinualDPError):
    """A non-empty list of noise scales is required."""


class BadDelta(ContinualDPError):
    """Failure probability must lie in (0, 1)."""


class ItemOutOfBounds(ContinualDPError):
    """Stream item outside the declared [L1, L2] range."""


class HorizonExceeded(ContinualDPError):
    """More items fed than the declared stream length T."""


class OutOfRange(ContinualDPError):
    """Index arguments outside their documented domain."""


class MissingTerminal(ContinualDPError):
    """A required terminal node (s or t) is absent from the graph."""


class UnknownFunction(ContinualDPError):
    """No static sensitivity is defined for this function."""


class UnknownCombination(ContinualDPError):
    """No sensitivity table entry for (function, adjacency, regime)."""


class UnboundedSensitivity(ContinualDPError):
    """The requested release has no finite sensitivity bound."""


class DegreeViolation(ContinualDPError):
    """Sequence exceeds the caller-declared maximum degree D."""


class WeightViolation(ContinualDPError):
    """Sequence exceeds the caller-declared maximum weight W."""


class NonMonotoneInput(ContinualDPError):
    """True values decrease where a monotone increase was promised."""


class UnknownRange(ContinualDPError):
    """The function has no value range r: it is not a monotone release."""


class ParameterOutOfRange(ContinualDPError):
    """Generator or sensitivity parameters outside their validity domain."""


class NodeSetMismatch(ContinualDPError):
    """Edge-only transformation requires identical node sets."""


class SparedEdgeMissing(ContinualDPError):
    """The spared edge must be present in both endpoint graphs."""


class TooSmall(ContinualDPError):
    """Requested witness family needs more nodes."""


class BudgetExceeded(ContinualDPError):
    """Enumeration budget exhausted before the scope was covered."""
