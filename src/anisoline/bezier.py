"""Bernstein-Bezier 4x4 patches over single cells.

A patch stores the 16 Bezier ordinates ``b[i, j]`` of a bicubic polynomial
on the unit square, with ``i`` indexing the t direction (row 0 at t_min)
and ``j`` the s direction (column 0 at s_min):

    p(u, v) = sum_ij b[i, j] * B3_j(u) * B3_i(v),   (u, v) in [0,1]^2.

The splits act on stacks of patches (n, 4, 4) and of their corner blocks
(n, 2, 2); a vector-valued patch splits as one scalar patch per
component.  All operations are pure; callers apply the cell-size chain
rule for global derivatives.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "bernstein_row", "split_patches", "split_corner_blocks", "CORNER_CHILD", "CORNER_ORDINATES",
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
# per kind, the child holding each corner cs + 2 * ct of the parent
CORNER_CHILD = {"H": np.array([0, 0, 1, 1]), "V": np.array([0, 1, 0, 1]), "C": np.arange(4)}
# the flattened ordinates of each corner's 2x2 block, corners in order cs + 2 * ct
CORNER_ORDINATES = np.array([[4 * (2 * ct + i) + 2 * cs + j for i in (0, 1) for j in (0, 1)]
                              for ct in (0, 1) for cs in (0, 1)])
# per kind, the (4, 4) block of the Kronecker map from each corner's block
# of the parent to the same corner's block of the child holding it
_CORNER_MAPS = {kind: np.stack([kron[np.ix_(at, 16 * CORNER_CHILD[kind][c] + at)]
                                for c, at in enumerate(CORNER_ORDINATES)])
                for kind, kron in _KRON_MAPS.items()}


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


def split_corner_blocks(B, codes, kind):
    """Split 2x2 corner blocks B (n, 2, 2) at the corners `codes` (n,),
    cs + 2 * ct, of their patches at the parameter midpoint: the block of
    the child holding each corner (`CORNER_CHILD`) at that corner.

    The first two rows of a half-interval de Casteljau map read only the
    first two ordinates, and the last two only the last two, so a child's
    block at a parent corner is a map of the parent's block there alone,
    the same sum as `split_patches` makes of it.
    """
    return np.matmul(B.reshape(-1, 1, 4), _CORNER_MAPS[kind][codes]).reshape(-1, 2, 2)
