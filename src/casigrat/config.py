"""Flat key-value configuration files with unit-suffixed quantities.

Files are INI-style sections of ``key = value`` lines.  Every physical
quantity carries a unit suffix (``depth = 98nm``, ``voltage = 0.3V``) and
is converted on read to the package-wide working units: meters, volts,
hertz, seconds, and degrees for angles.  Grids use the compact form
``start:stop:stepUNIT`` (inclusive of ``stop``) or a comma list.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

Array = np.ndarray


class ConfigError(ValueError):
    """A configuration file is malformed or a value cannot be parsed."""


@contextmanager
def named(source: str):
    """Re-raise a ValueError or KeyError from the block as a ConfigError
    that starts with ``source``, the key, flag, section or variable read,
    punctuation included (``"[solver]"``, ``"--z:"``); a KeyError gives
    its bare message.  Other errors pass through unchanged."""
    try:
        yield
    except (ValueError, KeyError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        raise ConfigError(f"{source} {message}") from None


# power-of-ten exponents onto the working units (m, V, Hz, s, deg)
_UNIT_EXPONENT = {
    "": 0,
    "m": 0, "mm": -3, "um": -6, "µm": -6, "nm": -9, "pm": -12,
    "v": 0, "mv": -3, "uv": -6,
    "hz": 0, "khz": 3, "mhz": 6, "ghz": 9,
    "s": 0, "ms": -3, "us": -6,
    "deg": 0, "rad": 0,
}
# case matters only where SI prefixes collide (mV vs MHz); resolve by
# lowercasing everything except the M prefix
_CASE_SENSITIVE = {"MHz": "mhz", "mHz": None, "Mv": None, "MV": None}

_NUMBER = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_QUANTITY_RE = re.compile(rf"^\s*({_NUMBER})\s*([a-zA-Zµ]*)\s*$")
_RANGE_RE = re.compile(
    rf"^\s*({_NUMBER})\s*:\s*({_NUMBER})\s*:\s*({_NUMBER})\s*([a-zA-Zµ]*)\s*$")


def parse_quantity(text: str) -> float:
    """Parse ``98nm`` / ``0.3V`` / ``94.6deg`` / ``1.5`` to a float in
    working units.  Bare numbers are dimensionless; a number and its unit
    prefix are read as one decimal literal (``400nm`` is ``4e-07``)."""
    match = _QUANTITY_RE.match(str(text))
    if match is None:
        raise ConfigError(f"cannot parse quantity {text!r}")
    value, unit = match.groups()
    key = _CASE_SENSITIVE.get(unit, unit.lower())
    if key is None:
        raise ConfigError(f"ambiguous unit suffix {unit!r}")
    if key not in _UNIT_EXPONENT:
        raise ConfigError(f"unknown unit suffix {unit!r}")
    mantissa, _, exponent = value.lower().partition("e")
    sign, digits = re.fullmatch(r"([+-]?)0*(\d*)", exponent).groups()
    if len(digits) < 9:  # else the float is 0 or inf whatever the prefix
        exponent = int(sign + (digits or "0")) + _UNIT_EXPONENT[key]
    result = float(f"{mantissa}e{exponent}")
    if key == "rad":
        result *= 180.0 / math.pi
    if not math.isfinite(result):
        raise ConfigError(f"quantity {text!r} is non-finite")
    return result


# the range forms of parse_grid and parse_int_range, and config integers
# (every one counts points, orders or slices), are refused above this many
# before anything is allocated
_MAX_GRID_POINTS = 100_000


def parse_grid(text: str) -> Array:
    """Parse a sampling grid.

    ``100:600:25nm`` means start 100, stop 600 inclusive, step 25, all in
    the trailing unit; the step must divide the span.  A comma list or a
    single quantity is also accepted.  Grids sample separations and
    frequencies, so every value must be positive.
    """
    text = str(text).strip()
    if ":" in text:
        match = _RANGE_RE.match(text)
        if match is None:
            raise ConfigError(f"grid {text!r} must be start:stop:stepUNIT")
        *numbers, unit = match.groups()
        with named(f"grid {text!r}:"):
            start, stop, step = (parse_quantity(v + unit) for v in numbers)
        if not step > 0.0 or not stop > start:
            raise ConfigError(f"grid {text!r} needs stop > start, step > 0")
        n = (stop - start) / step
        if not n + 1.0 <= _MAX_GRID_POINTS:
            raise ConfigError(f"grid {text!r} has {n + 1.0:.6g} points, more "
                              f"than {_MAX_GRID_POINTS}")
        if abs(n - round(n)) > 1e-9 * max(1.0, abs(n)):
            raise ConfigError(f"grid {text!r}: step does not divide the span")
        values = np.linspace(start, stop, int(round(n)) + 1)
    else:
        values = np.array([parse_quantity(p) for p in text.split(",")])
        if np.any(np.diff(values) <= 0.0):
            raise ConfigError(f"grid {text!r} must be strictly increasing")
    if not values[0] > 0.0:
        raise ConfigError(f"grid {text!r} must hold positive values only")
    return values


def parse_int_range(text: str) -> list[int]:
    """Parse ``4:14:2`` (inclusive) or a comma list to a list of ints."""
    text = str(text).strip()
    try:
        if ":" not in text:
            return [int(p) for p in text.split(",")]
        start, stop, step = (int(p) for p in text.split(":"))
        if step <= 0 or stop < start:
            raise ValueError
    except ValueError:
        raise ConfigError(f"cannot parse integer range {text!r}") from None
    count = (stop - start) // step + 1
    if count > _MAX_GRID_POINTS:
        raise ConfigError(f"integer range {text!r} has {count} values, more "
                          f"than {_MAX_GRID_POINTS}")
    return list(range(start, stop + 1, step))


def _parse_integer(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise ConfigError(f"not an integer: {text!r}") from None
    if n > _MAX_GRID_POINTS:
        raise ConfigError(f"{n} is more than {_MAX_GRID_POINTS}")
    return n


def _parse_boolean(text: str) -> bool:
    """true/yes/on/1 or false/no/off/0, in any case."""
    value = configparser.ConfigParser.BOOLEAN_STATES.get(text.strip().lower())
    if value is None:
        raise ConfigError(f"not a boolean: {text!r}")
    return value


_REQUIRED = object()


@dataclass(frozen=True)
class Config:
    """Parsed configuration with typed, unit-aware accessors."""

    _parser: configparser.ConfigParser

    @classmethod
    def from_text(cls, text: str) -> "Config":
        parser = configparser.ConfigParser(interpolation=None, strict=True,
                                           inline_comment_prefixes=("#",))
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"bad config: {exc}") from exc
        return cls(_parser=parser)

    @classmethod
    def from_file(cls, path) -> "Config":
        with open(path, "r", encoding="utf-8") as fh:
            with named(f"{path} is not UTF-8 text:"):
                text = fh.read()
        return cls.from_text(text)

    def digest(self) -> str:
        """Hash of the normalized content, for output provenance."""
        lines = []
        for section in sorted(self._parser.sections()):
            for key in sorted(self._parser[section]):
                lines.append(f"{section}.{key}={self._parser[section][key]}")
        payload = "\n".join(lines).encode()
        return hashlib.sha256(payload).hexdigest()[:16]

    def _get(self, section: str, key: str, default, parse):
        """``parse`` of the value of ``[section] key``, or of a text
        default; any other default is returned as given."""
        if self._parser.has_option(section, key):
            raw = self._parser.get(section, key)
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key [{section}] {key}")
        elif isinstance(default, str):
            raw = default
        else:
            return default
        with named(f"[{section}] {key}:"):
            return parse(raw)

    def string(self, section: str, key: str, default=_REQUIRED) -> str:
        return self._get(section, key, default, str.strip)

    def quantity(self, section: str, key: str, default=_REQUIRED) -> float:
        return self._get(section, key, default, parse_quantity)

    def grid(self, section: str, key: str, default=_REQUIRED) -> Array:
        return self._get(section, key, default, parse_grid)

    def integer(self, section: str, key: str, default=_REQUIRED) -> int:
        return self._get(section, key, default, _parse_integer)

    def boolean(self, section: str, key: str, default=_REQUIRED) -> bool:
        return self._get(section, key, default, _parse_boolean)
