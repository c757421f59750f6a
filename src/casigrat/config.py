"""Flat key-value configuration files with unit-suffixed quantities.

Files are INI-style sections of ``key = value`` lines, checked on load
against ``SCHEMA``: each task's keys with their kind, default and bound.
Lengths, voltages and angles carry a suffix of their own dimension
(``depth = 98nm``, ``applied = 300mV``) and are read in meters, volts
and degrees.  Grids use the compact form
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

from .geometry import reference_trench_profile


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


# the unit suffixes of each dimension, as power-of-ten exponents onto the
# working units (m, V, deg); a frequency is a bare number in rad/s
_UNITS = {
    "length": {"m": 0, "mm": -3, "um": -6, "µm": -6, "nm": -9, "pm": -12},
    "voltage": {"V": 0, "mV": -3, "uV": -6},
    "angle": {"deg": 0, "rad": 0},
    "frequency": {"": 0},
}

_NUMBER = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_QUANTITY_RE = re.compile(rf"^\s*({_NUMBER})\s*([a-zA-Zµ]*)\s*$")
_RANGE_RE = re.compile(
    rf"^\s*({_NUMBER})\s*:\s*({_NUMBER})\s*:\s*({_NUMBER})\s*([a-zA-Zµ]*)\s*$")


def parse_quantity(text: str, dimension: str) -> float:
    """Parse ``98nm`` / ``0.3V`` / ``94.6deg`` to a float in working
    units; the suffix must be one of ``dimension``'s in ``_UNITS``.  A
    number and its unit prefix are one decimal literal (``400nm`` is 4e-07)."""
    match = _QUANTITY_RE.match(str(text))
    if match is None:
        raise ConfigError(f"cannot parse quantity {text!r}")
    value, unit = match.groups()
    units = _UNITS[dimension]
    if unit not in units:
        article = "an" if dimension == "angle" else "a"
        raise ConfigError(f"expected {article} {dimension} ("
                          f"{', '.join(units) or 'bare rad/s'}), got {text!r}")
    mantissa, _, exponent = value.lower().partition("e")
    sign, digits = re.fullmatch(r"([+-]?)0*(\d*)", exponent).groups()
    if len(digits) < 9:  # else the float is 0 or inf whatever the prefix
        exponent = int(sign + (digits or "0")) + units[unit]
    result = float(f"{mantissa}e{exponent}")
    if unit == "rad":
        result *= 180.0 / math.pi
    if not math.isfinite(result):
        raise ConfigError(f"quantity {text!r} is non-finite")
    return result


# the range forms of parse_grid and parse_int_range, and config integers
# (every one counts points, orders or slices), are refused above this many
# before anything is allocated
_MAX_GRID_POINTS = 100_000


def parse_grid(text: str, dimension: str) -> np.ndarray:
    """Parse a sampling grid of quantities of ``dimension``.

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
            start, stop, step = (parse_quantity(v + unit, dimension)
                                 for v in numbers)
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
        values = np.array([parse_quantity(p, dimension)
                           for p in text.split(",")])
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


_REF = reference_trench_profile()
_GEOMETRY = {"period": ("length", _REF.period),
             "top_width": ("length", _REF.top_width),
             "floor_width": ("length", _REF.floor_width),
             "depth": ("length", _REF.depth),
             "wall_angle": ("angle", _REF.sidewall_angle_deg)}
_COMMON = {"pipeline": {"task": ("task", None)},
           "sphere": {"radius": ("length", "50um", "> 0")},
           "grid": {"z": ("grid", "100:600:25nm")}}
# task -> section -> key -> (kind, default[, bound]); a key without a
# default reads as None, and any config may be read for [geometry]
SCHEMA = {
    None: {"geometry": _GEOMETRY},
    "flat_force_gradient": {
        **_COMMON,
        "materials": {"sphere": ("material", "gold_drude"),
                      "plane": ("material", "silicon_doped")},
        "roughness": {"enabled": ("boolean", "true"),
                      "sphere_rms": ("length", "4nm"),
                      "plane_rms": ("length", "0.6nm"),
                      "n_points": ("count", "21")},
        "solver": {"table_points": ("count", "48", ">= 4")}},
    "rho_ratio": {
        **_COMMON, "geometry": _GEOMETRY,
        "materials": {"grating": ("material", "silicon_doped"),
                      "plane": ("material", "gold_drude")},
        "grid": {"z": ("grid", "100:250:30nm")},
        # orders and slices default to TruncationSpec()'s
        "solver": {"orders": ("count", None), "slices": ("count", None)},
        "measured": {"gradient_csv": ("path", None)}},
    "electrostatic_gradient": {
        **_COMMON, "geometry": _GEOMETRY,
        "voltage": {"applied": ("voltage", "0.3V"),
                    "residual": ("voltage", "0V")},
        "solver": {"table_points": ("count", "48", ">= 8")}},
}
TASKS = tuple(filter(None, SCHEMA))
_READERS = {"grid": lambda text: parse_grid(text, "length"),
            "count": _parse_integer, "boolean": _parse_boolean}


def _outside_schema(source: str, name: str, known, task) -> ConfigError:
    """The error for a ``name`` that ``task`` does not read, with a hint."""
    from difflib import get_close_matches  # only on this error path
    hint = "".join(f"; did you mean {close!r}?"
                   for close in get_close_matches(name, known, n=1))
    return ConfigError(f"{source}: not read " + (
        f"by task {task}" if task else
        "without the missing required key [pipeline] task") + hint)


@dataclass(frozen=True)
class Config:
    """A parsed config, read by the kind, default and bound in SCHEMA."""

    _parser: configparser.ConfigParser
    task: str | None

    @classmethod
    def from_text(cls, text: str) -> "Config":
        parser = configparser.ConfigParser(interpolation=None, strict=True,
                                           inline_comment_prefixes=("#",))
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"bad config: {exc}") from exc
        task = parser.get("pipeline", "task", fallback=None)
        if task not in SCHEMA:
            raise ConfigError("[pipeline] task: unknown pipeline task "
                              f"{task!r}; choose from {TASKS}")
        schema = SCHEMA[task]
        for section in parser.sections():
            if section not in schema:
                raise _outside_schema(f"[{section}]", section, schema, task)
            for key in parser[section]:
                if key not in schema[section]:
                    raise _outside_schema(f"[{section}] {key}", key,
                                          schema[section], task)
        return cls(parser, task)

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

    def _get(self, section: str, key: str):
        """``[section] key`` or its default, read and bounded per SCHEMA."""
        kind, default, *bound = (SCHEMA[self.task].get(section, {}).get(key)
                                 or SCHEMA[None].get(section, {})[key])
        raw = self._parser.get(section, key, fallback=default)
        if not isinstance(raw, str):  # no default, or a geometry float
            return raw
        with named(f"[{section}] {key}:"):
            value = (parse_quantity(raw, kind) if kind in _UNITS else
                     _READERS.get(kind, str.strip)(raw))
            for op, limit in (text.split() for text in bound):  # > or >=
                if value < float(limit) or op == ">" and value == float(limit):
                    raise ValueError(f"must be {op} {limit}, got {raw}")
        return value

    # one accessor, five names: the kind comes from SCHEMA, not the name
    string = quantity = grid = integer = boolean = _get
