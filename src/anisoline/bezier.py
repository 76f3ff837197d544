"""Bernstein-Bezier 4x4 patches over single cells.

A patch stores the 16 Bezier ordinates ``b[i, j]`` of a bicubic polynomial
on the unit square, with ``i`` indexing the t direction (row 0 at t_min)
and ``j`` the s direction (column 0 at s_min):

    p(u, v) = sum_ij b[i, j] * B3_j(u) * B3_i(v),   (u, v) in [0,1]^2.

Ordinates may be scalar or carry a trailing component axis (vector-valued
patches), i.e. arrays of shape (4, 4) or (4, 4, m).  All operations are
pure; callers apply the cell-size chain rule for global derivatives.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "bernstein_row", "eval_patch", "eval_patch_many", "split_patch",
    "corner_data", "zero_corner_block",
]

# de Casteljau halving of a cubic: rows give child ordinates from parent ones
_SPLIT_LO = np.array([
    [1, 0, 0, 0],
    [1 / 2, 1 / 2, 0, 0],
    [1 / 4, 1 / 2, 1 / 4, 0],
    [1 / 8, 3 / 8, 3 / 8, 1 / 8],
])
_SPLIT_HI = _SPLIT_LO[::-1, ::-1].copy()


def bernstein_row(u, order=0):
    """Cubic Bernstein basis values (or u-derivatives) at scalar/array `u`.

    Returns shape (4,) for scalar input, else (4, n).  order <= 2.
    """
    u = np.asarray(u, dtype=float)
    w = 1.0 - u
    if order == 0:
        row = np.stack([w ** 3, 3 * u * w ** 2, 3 * u ** 2 * w, u ** 3])
    elif order == 1:
        row = np.stack([-3 * w ** 2,
                        3 * w ** 2 - 6 * u * w,
                        6 * u * w - 3 * u ** 2,
                        3 * u ** 2])
    elif order == 2:
        row = np.stack([6 * w,
                        -12 * w + 6 * u,
                        6 * w - 12 * u,
                        6 * u])
    else:
        raise ValueError(f"derivative order {order} > 2 not supported")
    return row


def eval_patch(p, u, v, deriv=(0, 0)):
    """Evaluate d^(a+b) p / du^a dv^b at one local point, a + b <= 2."""
    a, b = deriv
    if a + b > 2 or a < 0 or b < 0:
        raise ValueError(f"derivative order {deriv} exceeds 2")
    p = np.asarray(p, dtype=float)
    bu = bernstein_row(u, a)
    bv = bernstein_row(v, b)
    return np.einsum("ij...,j,i->...", p, bu, bv)


def eval_patch_many(p, u, v, deriv=(0, 0)):
    """Vectorized :func:`eval_patch` over arrays u, v of equal length."""
    a, b = deriv
    if a + b > 2 or a < 0 or b < 0:
        raise ValueError(f"derivative order {deriv} exceeds 2")
    p = np.asarray(p, dtype=float)
    bu = bernstein_row(np.asarray(u, dtype=float), a)
    bv = bernstein_row(np.asarray(v, dtype=float), b)
    return np.einsum("ij...,jn,in->n...", p, bu, bv)


def split_patch(p, kind):
    """Split a patch at the parameter midpoint.

    'H' returns (bottom, top), 'V' returns (left, right), 'C' returns
    (bottom-left, bottom-right, top-left, top-right) -- the same child
    order the mesh uses.  Children represent the identical polynomial
    restricted to each subcell.
    """
    p = np.asarray(p, dtype=float)
    if kind == "H":
        return (np.einsum("ki,ij...->kj...", _SPLIT_LO, p),
                np.einsum("ki,ij...->kj...", _SPLIT_HI, p))
    if kind == "V":
        return (np.einsum("kj,ij...->ik...", _SPLIT_LO, p),
                np.einsum("kj,ij...->ik...", _SPLIT_HI, p))
    if kind == "C":
        bottom, top = split_patch(p, "H")
        bl, br = split_patch(bottom, "V")
        tl, tr = split_patch(top, "V")
        return (bl, br, tl, tr)
    raise ValueError(f"unknown split kind {kind!r}")


def _corner_indices(corner):
    """Row/column index pairs of the 2x2 ordinate block nearest a corner.

    `corner` is (cs, ct) with cs = 0 at s_min, 1 at s_max; ct likewise for t.
    """
    cs, ct = corner
    rows = (0, 1) if ct == 0 else (2, 3)
    cols = (0, 1) if cs == 0 else (2, 3)
    return rows, cols


def corner_data(p, corner, w, h):
    """(f, f_s, f_t, f_st) of the patch at a cell corner, in global units.

    w, h are the owning cell's width and height; the data depends only on
    the 2x2 ordinate block nearest the corner.
    """
    if w <= 0 or h <= 0:
        raise ValueError(f"cell dimensions must be positive, got ({w}, {h})")
    p = np.asarray(p, dtype=float)
    cs, ct = corner
    rows, cols = _corner_indices(corner)
    i0, i1 = rows if ct == 0 else rows[::-1]   # i0 at the corner, i1 inward
    j0, j1 = cols if cs == 0 else cols[::-1]
    ss = 1.0 if cs == 0 else -1.0
    st = 1.0 if ct == 0 else -1.0
    f = p[i0, j0]
    f_s = 3.0 * ss * (p[i0, j1] - p[i0, j0]) / w
    f_t = 3.0 * st * (p[i1, j0] - p[i0, j0]) / h
    f_st = 9.0 * ss * st * (p[i1, j1] - p[i1, j0] - p[i0, j1] + p[i0, j0]) / (w * h)
    return np.array([f, f_s, f_t, f_st]) if np.ndim(f) == 0 else np.stack([f, f_s, f_t, f_st])


def zero_corner_block(p, corner):
    """Copy of the patch with the 2x2 block nearest `corner` set to zero."""
    p = np.array(p, dtype=float, copy=True)
    rows, cols = _corner_indices(corner)
    for i in rows:
        for j in cols:
            p[i, j] = 0.0
    return p
