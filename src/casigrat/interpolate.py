"""Piecewise cubics on numpy: a monotone cubic and a not-a-knot spline.

Both constructors return the same ``PiecewiseCubic``, whose arithmetic
repeats scipy's ``PchipInterpolator`` and not-a-knot ``CubicSpline``
operation for operation (the tests pin this), so a table interpolated here
gives scipy's numbers bit for bit without loading scipy:

* ``pchip(x, y)`` -- the shape-preserving cubic of Fritsch and Carlson
  (SIAM J. Numer. Anal. 17, 238 (1980)) with the weighted harmonic-mean
  slopes of Fritsch and Butland (SIAM J. Sci. Stat. Comput. 5, 300
  (1984)) and Moler's one-sided three-point end slopes;
* ``not_a_knot(x, y)`` -- the C2 cubic spline whose third derivative is
  continuous at the second and the next-to-last knot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Array = np.ndarray


@dataclass(frozen=True, eq=False)
class PiecewiseCubic:
    """p(v) = sum_k c[k, i] (v - x[i])^(K-1-k) on [x[i], x[i+1]], with K =
    len(c) <= 4; the end pieces continue the polynomial outside [x[0], x[-1]]."""

    x: Array
    c: Array

    def __call__(self, v):
        v = np.asarray(v, dtype=float)
        i = np.clip(np.searchsorted(self.x, v, side="right") - 1,
                    0, self.x.size - 2)
        s = v - self.x[i]
        # ascending powers of s, summed in the order of scipy's PPoly
        out, power = 0.0, 1.0
        for coeff in self.c[::-1]:
            out = out + coeff[i] * power
            power = power * s
        return out

    def derivative(self) -> "PiecewiseCubic":
        """dp/dv, one degree lower."""
        order = np.arange(len(self.c) - 1, 0, -1, dtype=float)
        return PiecewiseCubic(self.x, self.c[:-1] * order[:, None])


def _hermite(x: Array, y: Array, d: Array) -> PiecewiseCubic:
    """The cubic through (x, y) with slopes d at the knots."""
    h = np.diff(x)
    m = np.diff(y) / h
    t = (d[:-1] + d[1:] - 2 * m) / h
    return PiecewiseCubic(x, np.stack((t / h, (m - d[:-1]) / h - t,
                                       d[:-1], y[:-1])))


def _end_slope(h0, h1, m0, m1):
    """Three-point slope at an end knot, clamped to keep the data's shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def pchip(x, y) -> PiecewiseCubic:
    """Monotone cubic through (x, y), x strictly increasing, >= 2 points;
    with 2 points it is the straight line."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    h = np.diff(x)
    m = np.diff(y) / h
    if x.size == 2:
        return _hermite(x, y, np.array([m[0], m[0]]))
    # zero slope at a local extremum or next to a flat piece, else the
    # weighted harmonic mean of the neighbouring secants
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inverse = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        d = np.concatenate(([_end_slope(h[0], h[1], m[0], m[1])],
                            np.where(flat, 0.0, 1.0 / inverse),
                            [_end_slope(h[-1], h[-2], m[-1], m[-2])]))
    return _hermite(x, y, d)


def _tridiagonal_solve(lower: list, diag: list, upper: list,
                       b: list) -> list:
    """Solve a tridiagonal system by LAPACK dgtsv's elimination: Gaussian
    elimination with partial pivoting (rows i and i + 1 swap where the
    sub-diagonal entry is the larger), then back substitution.  Works on
    lists of floats in place; a singular system raises ZeroDivisionError."""
    n = len(diag)
    for i in range(n - 1):
        if abs(diag[i]) >= abs(lower[i]):
            fact = lower[i] / diag[i]
            diag[i + 1] = diag[i + 1] - fact * upper[i]
            b[i + 1] = b[i + 1] - fact * b[i]
            lower[i] = 0.0
        else:
            fact = diag[i] / lower[i]
            diag[i] = lower[i]
            temp = diag[i + 1]
            diag[i + 1] = upper[i] - fact * temp
            if i < n - 2:  # the swapped row gains a second super-diagonal
                lower[i] = upper[i + 1]
                upper[i + 1] = -fact * lower[i]
            upper[i] = temp
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    b[n - 1] = b[n - 1] / diag[n - 1]
    b[n - 2] = (b[n - 2] - upper[n - 2] * b[n - 1]) / diag[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - upper[i] * b[i + 1] - lower[i] * b[i + 2]) / diag[i]
    return b


def not_a_knot(x, y) -> PiecewiseCubic:
    """Not-a-knot cubic spline through (x, y), x strictly increasing,
    >= 4 points."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 4:
        raise ValueError("a not-a-knot spline needs at least 4 points")
    h = np.diff(x)
    m = np.diff(y) / h
    # row i of the slope equations couples d[i-1], d[i], d[i+1]; the end
    # rows carry the not-a-knot conditions
    d0, dn = x[2] - x[0], x[-1] - x[-3]
    lower = np.append(h[1:], dn)
    diag = np.concatenate(([h[1]], 2 * (h[:-1] + h[1:]), [h[-2]]))
    upper = np.append(d0, h[:-1])
    b = np.concatenate((
        [((h[0] + 2 * d0) * h[1] * m[0] + h[0]**2 * m[1]) / d0],
        3 * (h[1:] * m[:-1] + h[:-1] * m[1:]),
        [(h[-1]**2 * m[-2] + (2 * dn + h[-1]) * h[-2] * m[-1]) / dn]))
    d = _tridiagonal_solve(lower.tolist(), diag.tolist(), upper.tolist(),
                           b.tolist())
    return _hermite(x, y, np.array(d))
