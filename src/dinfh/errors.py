"""Exception types shared across the toolkit."""


class DinfhError(Exception):
    """Base class for all toolkit errors."""


class DegeneratePencil(DinfhError):
    """Raised when z1*z2 = 0 and the x-root formula is undefined."""


class InvalidPlane(DinfhError):
    """Raised when a raster plane repeats a coordinate axis."""


class OnSpectrum(DinfhError):
    """Raised when an evaluation point (or a quadrature node) sits on the
    joint spectrum and the integrand is singular."""


class NotDegenerate(DinfhError):
    """Raised when the degenerate-case integrand is requested away from
    z0 = +-z3."""


class NonConvergent(DinfhError):
    """Raised when node/step doubling fails to stabilise a quadrature."""


class LoopHitsSpectrum(DinfhError):
    """Raised when a sampled loop point fails the off-spectrum check."""


class SingularTruncation(DinfhError):
    """Raised when the finite circulant truncation is numerically singular."""


class LevelTooLarge(DinfhError):
    """Raised when a tree level exceeds the desk-scale cap."""


class UnpairedOrbit(DinfhError):
    """Raised when tau does not pair a tree level's <a, t>-orbits: M(tau)
    is not an involution commuting with M(a) and M(t), or it maps an orbit
    onto itself other than pointwise."""


class TruncationTooLarge(DinfhError):
    """Raised when a dense truncation size exceeds MAX_DENSE_N."""


class GridTooLarge(DinfhError):
    """Raised when a first quadrature, period or raster grid exceeds its
    cap, before anything of that size is allocated."""
