"""Typed error hierarchy shared across the library."""


class TailFactorError(Exception):
    """Base class for all domain errors raised by this package."""


class ZeroColumnError(TailFactorError):
    """A loading matrix has a column with zero l1-norm."""


class InvalidAlphaError(TailFactorError):
    """Tail index alpha must be strictly positive."""


class InvalidAtomError(TailFactorError):
    """A measure atom has a negative or non-finite coordinate."""


class DimensionMismatchError(TailFactorError):
    """Vectors or measures with incompatible dimensions."""


class MaxTrialsExceededError(TailFactorError):
    """Rejection sampler failed to accept within the trial budget."""


class SampleOverflowError(TailFactorError):
    """A sampler proposal overflowed float64, so the law cannot be drawn."""


class SampleSizeError(TailFactorError):
    """A sample size below 1, or too large for numpy to index as an array."""


class WorstCaseDimensionError(TailFactorError):
    """The worst-case latent law is only defined for two factors."""


class NoExceedancesError(TailFactorError):
    """No sample exceeded the threshold."""


class TooFewPointsError(TailFactorError):
    """Fewer points than clusters requested."""


class NearSingularError(TailFactorError):
    """Matrix inversion hit a determinant below tolerance."""


class NoSolutionError(TailFactorError):
    """Estimating equation has no positive solution."""


class DegenerateDesignError(TailFactorError):
    """Regression data are degenerate: all abscissae equal, or a log not finite."""


class CostRangeError(TailFactorError):
    """A transport objective leaves the float64 range at this order p."""


class SolverFailureError(TailFactorError):
    """Transport solver could not certify optimality (internal bug)."""


class ConfigError(TailFactorError):
    """Invalid configuration document."""


class ExperimentAbortedError(TailFactorError):
    """Every replicate failed for some grid point."""


class IoError(TailFactorError):
    """Filesystem problem while emitting outputs."""
