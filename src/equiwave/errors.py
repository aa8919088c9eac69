"""Exception types shared across the package."""


class EquiwaveError(Exception):
    """Base class for all package errors."""


class DomainError(EquiwaveError):
    """Evaluation point lies outside the domain of a profile."""


class OrderUnavailable(EquiwaveError):
    """Requested derivative order exceeds what a profile supports."""


class InconsistentFormulas(EquiwaveError):
    """Two supposedly equivalent formulas disagree beyond tolerance."""


class NoLimit(EquiwaveError):
    """The asymptotic fit for the curvature limit does not converge."""


class ModeMismatch(EquiwaveError):
    """Perturbation mode incompatible with the growth class of the base metric."""


class DimensionError(EquiwaveError):
    """Operator dimension outside the supported range."""


class NegativeEigenvalue(EquiwaveError):
    """Spectral functional calculus hit an eigenvalue below tolerance."""


class TruncationTooSmall(EquiwaveError):
    """Resolvent truncation radius too small for the requested frequency."""


class SingularSystem(EquiwaveError):
    """Linear system factorization failed."""


class EigensolveFailed(EquiwaveError):
    """A LAPACK eigensolve did not converge or rejected its input."""


class NotAdmissible(EquiwaveError):
    """Exponent pair violates the wave admissibility relation."""


class BlowUp(EquiwaveError):
    """Field exceeded the blow-up ceiling or became non-finite."""

    def __init__(self, t, r, message=None):
        self.t = t
        self.r = r
        super().__init__(message or f"blow-up detected at t={t:.6g}, r={r:.6g}")

    def __reduce__(self):
        # args holds the message alone, which the default rebuild would pass as t
        return type(self), (self.t, self.r, str(self))


class CFLViolation(EquiwaveError):
    """Time step violates the CFL bound."""


class ClosedFormMismatch(EquiwaveError):
    """Numerical pipeline disagrees with a known closed form."""


class ScenarioError(EquiwaveError):
    """Scenario file fails validation."""
