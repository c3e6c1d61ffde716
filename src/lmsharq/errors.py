"""Shared exception types and the checks that raise them."""

import numbers


class ConfigError(ValueError):
    """Invalid configuration value or inconsistent parameter set."""


class DataError(ValueError):
    """Well-formed request over data that cannot support it."""


def check_integer(name: str, value, least: int = 0) -> None:
    """ConfigError unless value is an integer of at least `least`.

    bool and float are not integers; NumPy integers are."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer")
    if value < least:
        raise ConfigError(f"{name} must be at least {least}" if least else f"{name} cannot be negative")
