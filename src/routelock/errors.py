"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NumericError(ValueError):
    """A forward pass produced a non-finite value."""


class ConfigError(ValueError):
    """Invalid model configuration or mismatched shapes when cloning."""


class CapacityError(ValueError):
    """Token sequence exceeds the model's maximum length."""


class BatchingError(ValueError):
    """A batch mixes examples from both modes."""


class DataError(ValueError):
    """A dataset record violates an invariant (message names the index)."""


class DegenerateInputError(ValueError):
    """Inputs outside the domain of a theory predicate."""


class SingularityError(ValueError):
    """Combined curvature matrix is numerically singular."""
