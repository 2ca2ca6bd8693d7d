"""Exception types shared across the package."""


class HetcycleError(Exception):
    """Base class for all library-specific errors."""


class ConfigError(HetcycleError, ValueError):
    """Invalid or incomplete configuration input; also a ValueError."""


class HypothesisFailure(HetcycleError):
    """A structural hypothesis required by the requested operation fails."""


class DegenerateInterval(HetcycleError):
    """Interval endpoints coincide within tolerance."""


class BackwardBlowup(HetcycleError):
    """Backward evaluation requested at or past the finite escape time of
    the radial law (initial radius outside the limit cycle)."""


class StepFailure(HetcycleError):
    """Adaptive step controller underflowed the minimum step size."""


class InvalidLine(HetcycleError):
    """Vertical test line the stay criterion cannot read: one meeting the
    planar limit cycle (the dichotomy needs it strictly outside), or one
    through the right block's equilibrium (y1 = c with c = 0)."""


class WrongSpectralType(HetcycleError):
    """Planar system spectrum does not match the requested criterion."""


class UngenericBranch(HetcycleError):
    """Computed data falls on a boundary the classification does not cover."""


class CertificateFailure(HetcycleError):
    """A sampled orbit violates its required containment margin."""


class EventStorm(HetcycleError):
    """Event count exceeded the configured maximum (chattering guard)."""


class SlidingDetected(HetcycleError):
    """Both zone fields point at the switching plane; crossing dynamics are
    undefined there and this simulator refuses to invent them."""


class RootSearchError(HetcycleError):
    """Bracketing scan failed to locate a required crossing."""
