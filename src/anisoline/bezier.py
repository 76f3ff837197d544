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
    "bernstein_row", "eval_patch", "split_patches",
    "corner_data", "zero_corner_blocks",
]

# de Casteljau halving of a cubic: rows give child ordinates from parent ones
_SPLIT_LO = np.array([
    [1, 0, 0, 0],
    [1 / 2, 1 / 2, 0, 0],
    [1 / 4, 1 / 2, 1 / 4, 0],
    [1 / 8, 3 / 8, 3 / 8, 1 / 8],
])
_SPLIT_HI = _SPLIT_LO[::-1, ::-1].copy()
_KEEP = np.eye(4)
# per split kind, the matrices acting on the rows (t) and, transposed, on
# the columns (s) of a patch, one pair per child in mesh order
_CHILD_MAPS = {
    "H": (np.stack([_SPLIT_LO, _SPLIT_HI]), np.stack([_KEEP, _KEEP])),
    "V": (np.stack([_KEEP, _KEEP]), np.stack([_SPLIT_LO.T, _SPLIT_HI.T])),
    "C": (np.stack([_SPLIT_LO, _SPLIT_LO, _SPLIT_HI, _SPLIT_HI]),
          np.stack([_SPLIT_LO.T, _SPLIT_HI.T, _SPLIT_LO.T, _SPLIT_HI.T])),
}
# the same maps as one Kronecker matrix per kind, (16, 16k): entry
# [(a, b), (k, i, j)] = rows[k, i, a] * cols[k, b, j], so a flattened patch
# times it gives every child's flattened ordinates; the entries are
# products of dyadic fractions, exact in floating point
_KRON_MAPS = {kind: np.einsum("kia,kbj->abkij", rows, cols).reshape(16, -1)
              for kind, (rows, cols) in _CHILD_MAPS.items()}


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


def split_patches(P, kind):
    """Split patches P (n, 4, 4) at the parameter midpoint.

    Returns the children (n, k, 4, 4): for 'H' (bottom, top), for 'V'
    (left, right), for 'C' (bottom-left, bottom-right, top-left,
    top-right) -- the same child order the mesh uses.  Children represent
    the identical polynomial restricted to each subcell.

    All patches and children go through one matmul, (n, 16) by the
    kind's Kronecker map (16, 16k).  For 'H' and 'V' one factor is the
    identity, so each ordinate is the same four-term sum as row-then-
    column de Casteljau; for 'C' it is one sum of up to 16 terms, equal to
    the two-stage split up to roundoff.
    """
    try:
        kron = _KRON_MAPS[kind]
    except KeyError:
        raise ValueError(f"unknown split kind {kind!r}") from None
    P = np.asarray(P, dtype=float)
    return (P.reshape(len(P), 16) @ kron).reshape(len(P), -1, 4, 4)


def _corner_indices(corner):
    """Row/column index pairs of the 2x2 ordinate block nearest a corner.

    `corner` is (cs, ct) with cs = 0 at s_min, 1 at s_max; ct likewise for t.
    """
    cs, ct = corner
    rows = (0, 1) if ct == 0 else (2, 3)
    cols = (0, 1) if cs == 0 else (2, 3)
    return rows, cols


# the 2x2 ordinate block of each corner, corners in order cs + 2 * ct
_CORNER_BLOCKS = np.array([np.kron(np.outer(np.eye(2)[ct], np.eye(2)[cs]), np.ones((2, 2)))
                           for ct in (0, 1) for cs in (0, 1)], dtype=bool)
# per corner code (bit cs + 2 * ct set for each flagged corner), the
# ordinates outside every flagged block: (16, 4, 4)
_KEEP_BY_CODE = ~(((np.arange(16)[:, None] >> np.arange(4)) & 1).astype(bool)
                  @ _CORNER_BLOCKS.reshape(4, 16)).reshape(16, 4, 4)


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


def zero_corner_blocks(P, codes):
    """Copy of patches P (..., 4, 4) with the 2x2 ordinate block at every
    flagged corner set to zero.  `codes` (...) are integer corner codes in
    0..15: bit cs + 2 * ct flags the corner (cs, ct), so bits 0-3 stand
    for (s_min, t_min), (s_max, t_min), (s_min, t_max), (s_max, t_max).

    One lookup in a 16-row keep table gives every patch's mask; zeroed
    ordinates are +0.0, and kept ones keep their bits (a -0.0 stays)."""
    return np.where(_KEEP_BY_CODE[codes], P, 0.0)
