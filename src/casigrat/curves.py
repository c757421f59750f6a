"""Force-versus-separation curves and the package's one text-table format.

Every table casigrat reads or writes has one layout: ``# `` comment lines,
those of the form ``key: value`` being metadata; an optional header line
naming the columns; then one row per line, fields separated by commas (by
whitespace in permittivity tables), never quoted.  Blank lines are
ignored; files are written with LF line ends and numbers with ``%.12e``,
so a rerun with identical inputs is byte-identical.  ``read_table`` and
``write_table`` are the only parser and formatter.  A ForceCurve file has
the header ``z_nm,value``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

Array = np.ndarray


def read_table(path, columns, sep=","):
    """``(metadata, data)``: the ``# key: value`` comments of the table at
    ``path`` and a float array with one row per column returned, the
    ``columns`` named by the header line (the first line neither blank nor
    a comment) or, for a table with no header, the field count.  A row of
    the wrong length, or with a returned field that is not a finite
    number, raises a ValueError starting ``path:line:``."""
    width = columns if isinstance(columns, int) else None
    picks = None  # indices of the returned fields unless all, in order
    metadata, fields_read, line_nos = {}, [], []
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for line_no, line in enumerate(map(str.strip, lines), start=1):
        if line.startswith("#"):
            key, colon, value = line[1:].partition(":")
            if colon:
                metadata[key.strip()] = value.strip()
        elif line and width is None:  # the header line
            names = [name.strip() for name in line.split(sep)]
            if not set(columns) <= set(names):
                raise ValueError(f"{path}:{line_no}: table must provide "
                                 f"columns {tuple(columns)}")
            width, picks = len(names), [names.index(c) for c in columns]
            picks = None if picks == list(range(width)) else picks
        elif line:
            fields = line.split(sep)
            if len(fields) != width:
                raise ValueError(f"{path}:{line_no}: expected {width} "
                                 f"fields, got {len(fields)}")
            fields_read += fields if picks is None else [fields[i]
                                                         for i in picks]
            line_nos.append(line_no)
    if width is None:
        raise ValueError(f"{path}: table must provide columns "
                         f"{tuple(columns)}")
    n_cols = width if picks is None else len(picks)
    try:  # one conversion per table; on failure float() finds the row
        data = np.array(fields_read, dtype=float).reshape(-1, n_cols)
    except ValueError:
        for k, text in enumerate(fields_read):
            try:
                float(text)
            except ValueError as exc:
                raise ValueError(f"{path}:{line_nos[k // n_cols]}: "
                                 f"{exc}") from None
        raise
    if not np.isfinite(data).all():
        row = line_nos[int(np.argmin(np.isfinite(data).all(axis=1)))]
        raise ValueError(f"{path}:{row}: values must be finite")
    return metadata, data.T.copy()


def format_table(header, rows, comments=()) -> str:
    """The text of a table: ``# `` comment lines, the comma-separated
    header, then the rows, string fields as they are, numbers ``%.12e``."""
    lines = [*(f"# {comment}" for comment in comments), ",".join(header)]
    lines += [",".join(f if isinstance(f, str) else f"{f:.12e}" for f in row)
              for row in rows]
    return "".join(f"{line}\n" for line in lines)


def write_table(path, header, rows, comments=()) -> Path:
    """Write ``format_table(header, rows, comments)`` to path; return it."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_table(header, rows, comments))
    return Path(path)


@dataclass(frozen=True)
class ForceCurve:
    """Samples of a force-like quantity on a separation grid.

    ``z`` is in meters and strictly increasing; ``unit`` names the physical
    unit of ``values`` (e.g. "Pa", "N/m"); ``label`` says what the curve is.
    """

    z: Array
    values: Array
    unit: str
    label: str = ""
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        z = np.asarray(self.z, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "values", v)
        if z.ndim != 1 or v.shape != z.shape:
            raise ValueError("z and values must be matching 1-d arrays")
        if z.size and not np.all(np.diff(z) > 0.0):
            raise ValueError("z grid must be strictly increasing")

    def _table(self):
        """(header, rows, comments) of the curve's CSV."""
        comments = [f"label: {self.label}"] if self.label else []
        comments += [f"unit: {self.unit}"] + [
            f"{key}: {self.metadata[key]}" for key in sorted(self.metadata)]
        return ("z_nm", "value"), zip(self.z * 1e9, self.values), comments

    def to_csv(self, path) -> Path:
        return write_table(path, *self._table())

    def to_csv_text(self) -> str:
        return format_table(*self._table())

    @classmethod
    def from_csv(cls, path) -> "ForceCurve":
        meta, (z_nm, values) = read_table(path, ("z_nm", "value"))
        return cls(z_nm * 1e-9, values, unit=meta.pop("unit", ""),
                   label=meta.pop("label", ""), metadata=meta)


def write_curves(curves: dict[str, ForceCurve], out_dir,
                 prefix: str) -> list[Path]:
    """Write each curve to ``<out_dir>/<prefix>_<name>.csv``, in name
    order, and return the paths."""
    return [curves[name].to_csv(Path(out_dir) / f"{prefix}_{name}.csv")
            for name in sorted(curves)]
