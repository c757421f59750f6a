"""Force-versus-separation curves and their on-disk CSV form.

A ForceCurve is a sampled function of the surface separation z.  CSV files
carry a ``#``-prefixed metadata header (free-form key: value lines) and a
column header ``z_nm,value``; values are written with ``%.12e`` so a rerun
with identical inputs is byte-identical.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

Array = np.ndarray


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

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv_text())

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        if self.label:
            buf.write(f"# label: {self.label}\n")
        buf.write(f"# unit: {self.unit}\n")
        for key in sorted(self.metadata):
            buf.write(f"# {key}: {self.metadata[key]}\n")
        buf.write("z_nm,value\n")
        for zi, vi in zip(self.z, self.values):
            buf.write(f"{zi * 1e9:.12e},{vi:.12e}\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, path) -> "ForceCurve":
        meta: dict = {}
        z_col: list[float] = []
        v_col: list[float] = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    body = line[1:].strip()
                    if ":" in body:
                        key, _, val = body.partition(":")
                        meta[key.strip()] = val.strip()
                    continue
                if line.startswith("z_nm"):
                    continue
                parts = line.split(",")
                if len(parts) != 2:
                    raise ValueError(f"{path}:{lineno}: expected 'z_nm,value'")
                try:
                    z, v = float(parts[0]) * 1e-9, float(parts[1])
                    if not (math.isfinite(z) and math.isfinite(v)):
                        raise ValueError("z and value must be finite")
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
                z_col.append(z)
                v_col.append(v)
        unit = meta.pop("unit", "")
        label = meta.pop("label", "")
        return cls(np.asarray(z_col), np.asarray(v_col), unit=unit,
                   label=label, metadata=meta)
