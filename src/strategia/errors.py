"""Exception types shared across the package."""


class StrategiaError(Exception):
    """Base class for all package errors."""


class InvalidCostModelError(StrategiaError, ValueError):
    """Cost model violates its contract (non-finite, negative, or nonzero diagonal)."""


class MissingCoordinatesError(StrategiaError, ValueError):
    """An operation needs point coordinates but the domain has none."""


class DomainMismatchError(StrategiaError, ValueError):
    """Objects built over different domains were combined."""


class InvalidDistributionError(StrategiaError, ValueError):
    """Weights are negative, non-finite, or do not sum to one."""


class EmptySampleError(StrategiaError, ValueError):
    """An estimator was given a sample with no items."""


class EmptyClassError(StrategiaError, ValueError):
    """An operation over a hypothesis class was given no members."""


class UndefinedBurdenError(StrategiaError, ValueError):
    """Social burden is undefined: the distribution has no positive-label mass."""


class NoIncentiveCompatibleError(StrategiaError, ValueError):
    """The class contains no incentive compatible member for the given graph."""


class RealizabilityError(StrategiaError, ValueError):
    """A sample contradicts the realizability precondition of a learner."""


class CapacityError(StrategiaError, ValueError):
    """Brute-force search was asked to exceed its configured size caps."""


class VcInputError(StrategiaError, ValueError):
    """A set system, shattering candidate or VC cap is out of range."""


class InvalidGraphSampleError(StrategiaError, ValueError):
    """A graph sample record or sample-file line is malformed, out of range, or self-targeting."""


class NotInClassError(StrategiaError, ValueError):
    """A hypothesis was required to be a member of the supplied class but is not."""


class BoundViolationError(StrategiaError, AssertionError):
    """A provable inequality failed beyond numeric tolerance (indicates a bug)."""


class ConfigError(StrategiaError, ValueError):
    """A run configuration failed schema validation."""
