"""Exception hierarchy shared across the package."""


class RootspinError(Exception):
    """Base class for all package-specific errors."""


class InvalidRankError(RootspinError):
    """Family/rank outside the admissible ranges (no remapping to isomorphic
    families), or missing where one is needed: an unnamed system has none."""


class LengthMismatchError(RootspinError):
    """A sign vector does not match the number of roots."""


class DimensionMismatchError(RootspinError):
    """Vectors of inconsistent ambient dimension."""


class IndexOutOfRangeError(RootspinError):
    """Generator index outside 0..r-1, or a root pattern or subscripts that
    a family does not have."""


class ResourceLimitError(RootspinError):
    """A computation would exceed its configured size or memory limit."""


class InternalCheckError(RootspinError):
    """An internal invariant failed; indicates a bug, never bad user input."""
