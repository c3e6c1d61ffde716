"""Shared exception types and the checks that raise them."""

import math
import numbers
import sys

import numpy as np


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


def check_db(name: str, value_db: float, per: float = 10.0, what: str = "value",
             error: type = ValueError) -> None:
    """error unless 10^(value_db / per), the value's linear amplitude or
    power, is a finite, normal float; computing it warns of nothing."""
    with np.errstate(over="ignore", under="ignore"):
        linear = float(np.power(10.0, value_db / per))
    if not sys.float_info.min <= linear < math.inf:
        raise error(f"{name} {value_db:g} dB is out of range: its linear {what} {linear:g}"
                    " is not a finite, normal float")
