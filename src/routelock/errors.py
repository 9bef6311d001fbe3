"""Exception types shared across the package, and the field check behind ``ConfigError``."""


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NumericError(ValueError):
    """A forward pass produced a non-finite value."""


class ConfigError(ValueError):
    """Invalid model configuration or mismatched shapes when cloning."""


class CapacityError(ValueError):
    """Token sequence exceeds the model's maximum length."""


class DataError(ValueError):
    """A dataset record violates an invariant (message names the index)."""


class DegenerateInputError(ValueError):
    """Inputs outside the domain of a theory predicate."""


class SingularityError(ValueError):
    """Combined curvature matrix is numerically singular."""


def check_field(config, name: str, kind, ok, what: str) -> None:
    """Raise ConfigError naming field ``name`` of ``config`` unless its value is a ``kind``
    (a bool is not a number) for which ``ok`` holds; ``what`` says what it must be."""
    value = getattr(config, name)
    if isinstance(value, bool) or not isinstance(value, kind) or not ok(value):
        raise ConfigError(f"{name} must be {what}, got {value!r}")
