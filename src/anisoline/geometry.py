"""Geometry maps for the isogeometric solver.

A geometry is a spline field with 2D point coefficients mapping the
parameter square onto the physical domain.  It lives in the same spline
space as the solution, so refining the space carries the map over
exactly (nested-space transfer), and the physical domain never moves.

The L-shaped benchmark domain (-1,1)^2 minus the closed first-quadrant
unit square is covered by a single C1 bicubic patch.  The patch bends
around the reentrant corner along the parameter line s = 1/2: the
s-velocity vanishes at the two boundary points (1/2, 0) -> (0, 0) and
(1/2, 1) -> (-1, -1) (doubled control points), which lets a C1 map trace
the boundary's right angles exactly.  The Jacobian is positive
everywhere else; quadrature never hits the two degenerate parameter
corners because Gauss points are interior to cells.  That keeps cell
integrals finite, not convergent: on a cell whose closure holds a
degenerate point, terms weighted by 1/det J (such as the solver's
interior residual) grow with the quadrature order, e.g. from 1.79 at
q = 5 to 58.1 at q = 80 for the level-0 cells touching (1/2, 0).
"""

from __future__ import annotations

import numpy as np

from .space import DERIV_ORDERS, build_initial_space, field_from_vertex_data, transfer_field
from .tmesh import create_tensor_mesh

__all__ = ["Geometry", "linear_geometry", "lshape_geometry"]


class Geometry:
    """Differentiable parameter-to-physical map with singular-point list."""

    def __init__(self, field, degenerate_params=()):
        if field.arity != 2:
            raise ValueError("geometry needs 2D point coefficients")
        self.field = field
        self.degenerate_params = tuple((float(a), float(b)) for a, b in degenerate_params)

    @property
    def space(self):
        return self.field.space

    def advance(self, new_space):
        """Same map, represented in a once-refined space."""
        return Geometry(transfer_field(self.field, new_space), self.degenerate_params)

    def derivatives_on_cell(self, cid, s, t):
        """Map values, Jacobians and parameter Hessians at points of one cell.

        Returns (xy (n,2), J (n,2,2), H (n,2,2,2)) where J[:, i, j] =
        d x_i / d param_j and H[n, a] is the parameter Hessian of
        coordinate a.
        """
        d = self.field.eval_on_cell(cid, s, t, DERIV_ORDERS)           # (6, n, 2)
        J = np.stack([d[1], d[2]], axis=-1)
        H = np.stack([np.stack([d[3], d[4]], axis=-1), np.stack([d[4], d[5]], axis=-1)], axis=-2)
        return d[0], J, H

    def physical_diameter(self, cid):
        """Largest distance between the images of a cell's four corners."""
        s0, s1, t0, t1 = self.space.mesh.cell(cid).bounds_float()
        pts = self.field.eval_on_cell(cid, [s0, s1, s0, s1], [t0, t0, t1, t1])[0]
        return float(np.max(np.linalg.norm(pts[:, None] - pts[None], axis=-1)))


def linear_geometry(space, rect=(0.0, 1.0, 0.0, 1.0)):
    """Affine map of the parameter square onto an axis-aligned rectangle."""
    x0, x1, y0, y1 = rect
    s0, s1, t0, t1 = (float(v) for v in space.mesh.domain)
    gx = (x1 - x0) / (s1 - s0)
    gy = (y1 - y0) / (t1 - t0)
    vids = space.mesh.basis_vertices()
    s, t = space.mesh.vertex_floats()[vids].T
    data = np.zeros((len(vids), 2, 4))
    data[:, 0, 0] = x0 + gx * (s - s0)
    data[:, 1, 0] = y0 + gy * (t - t0)
    data[:, 0, 1], data[:, 1, 2] = gx, gy
    return Geometry(field_from_vertex_data(space, dict(zip(vids, data))))


def _lshape_vertex_data(s, t):
    """Exact Hermite data (n, 2, 4) of the folded two-quadrilateral map at
    the parameter points s, t (n,).

    First half covers the quadrilateral (1,0)(0,0)(1,-1)(-1,-1), second
    half (0,0)(0,1)(-1,-1)(-1,1); across s = 1/2 the s-velocity turns
    through the bisector (-1, 1) with a magnitude profile that vanishes
    at the two boundary corners.
    """
    first, second = s < 0.5, s > 0.5
    xi, ze, one = 2.0 * s, 2.0 * s - 1.0, 1.0 + t
    c = one * np.sin(np.pi * t)
    cp = np.sin(np.pi * t) + one * np.pi * np.cos(np.pi * t)
    zero = np.zeros_like(t)
    # rows (g, g_s, g_t, g_st) of each coordinate, per half and on the fold
    x = np.where(first, [1.0 - xi * one, -2.0 * one, -xi, zero - 2.0],
                 np.where(second, [-t, zero, zero - 1.0, zero], [-t, -c, zero - 1.0, -cp]))
    y = np.where(first, [-t, zero, zero - 1.0, zero],
                 np.where(second, [ze * one - t, 2.0 * one, ze - 1.0, zero + 2.0],
                          [-t, c, zero - 1.0, cp]))
    return np.stack([x.T, y.T], axis=1)


def lshape_geometry(n=4):
    """Single-patch map onto (-1,1)^2 minus the unit square, on an n x n mesh.

    n must be even so the fold line s = 1/2 is a mesh line.  The
    reentrant corner (0,0) is the image of parameter (1/2, 0); (-1,-1)
    is the image of (1/2, 1); both are the declared degenerate points.
    """
    if n % 2:
        raise ValueError("the L-shape patch needs an even cell count so the "
                         "fold line s=1/2 is a mesh line")
    mesh = create_tensor_mesh(n, n)
    space = build_initial_space(mesh)
    vids = mesh.basis_vertices()
    data = _lshape_vertex_data(*mesh.vertex_floats()[vids].T)
    field = field_from_vertex_data(space, dict(zip(vids, data)))
    return Geometry(field, degenerate_params=[(0.5, 0.0), (0.5, 1.0)])
