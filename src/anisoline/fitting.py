"""Adaptive surface fitting of parameterized point sets.

The loop (`fit_surface`, on the driver `reporting.run_adaptive`) fits a
spline surface to points (x, y, z) with parameters (s, t) in the unit
square: estimate control points from local quadratic fits, measure the
max distance per cell, mark the current-level cells above tolerance, label
them from discrete directional curvatures of the surface, refine, repeat.

Control points are estimated for a level's basis vertices at once
(`estimate_vertex_controls`): one quadratic least-squares fit per vertex,
and one batched solve against the vertices' collocation blocks.  The fits
run in two stages: each cell's points are reduced once per call to a few
rows of a QR factor, and each vertex's fit is one QR of its cells' rows,
moved to the monomials about the vertex; both stages stack their systems
into a few QR factorizations.  After a refinement round the
new vertices and the vertices whose incident cells were just subdivided
get fresh estimates (the surface value at an anchor is pinned by its own four
functions, so a stale coarse estimate would put a floor under the
error); anchors away from the refined region keep their control points,
which freezes the surface over cells that already passed.

A point set keeps its points' stable order by cell
(`ParamPointSet.cell_order`), made once per level, on first use after the
points' cells change.  Two per-point passes of a level read it: the
error pass evaluates the surface run by run over it
(`SplineField.eval_runs`) and takes each cell's largest distance over its
run, and the cell factors of the estimator take their points from it.
Relocation after a refinement round descends from each point's old cell,
so only the points of the split cells move, one step down.

Each marked cell's split label comes from `label_by_curvature`, which
returns the labels alone; the mean curvatures it compares are
`_curvatures`, sampled on a fixed 3 x 3 interior grid of each cell.
"""

from __future__ import annotations

import math
import numbers
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .refine import RefinementRequest, refine
from .reporting import _check_count, run_adaptive
from .space import (
    HERMITE_ORDERS, SplineField, _solve_vertices, advance_level, build_initial_space,
    cell_order,
)
from .tmesh import _ranges, create_tensor_mesh

__all__ = [
    "ParamPointSet", "FitConfig", "generate_test_model",
    "estimate_vertex_controls", "label_by_curvature",
    "fit_surface",
]


class ParamPointSet:
    """3D points with parameters in [0,1]^2 and a per-point cell index.

    Beside `cell_of` the set keeps the points' stable order by cell
    (`cell_order`), made on first use after `cell_of` is assigned; every
    assignment drops it, so write `cell_of` whole, never in place."""

    def __init__(self, points, params):
        self.points = np.asarray(points, dtype=float)
        self.params = np.asarray(params, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError("points must be (n, 3)")
        if self.params.shape != (len(self.points), 2):
            raise ValueError("params must be (n, 2)")
        if len(self.points) == 0:
            raise ValueError("empty point set")
        if not (np.isfinite(self.points).all() and np.isfinite(self.params).all()):
            # row-wise only on failure: the reductions along axis 1 are slow
            k = int(np.argmin(np.isfinite(self.points).all(axis=1)
                              & np.isfinite(self.params).all(axis=1)))
            raise ValueError(f"row {k} is not finite: point {self.points[k].tolist()}, "
                             f"parameters {self.params[k].tolist()}")
        if self.params.min() < 0 or self.params.max() > 1:
            raise ValueError("parameters outside [0,1]^2")
        self.cell_of = None
        self._tree = None

    @property
    def cell_of(self):
        return self._cell_of

    @cell_of.setter
    def cell_of(self, cells):
        self._cell_of = cells
        self._order = None

    def cell_order(self):
        """(order, cells, counts) of `space.cell_order` for `cell_of`: the
        permutation putting the points in cell order, the ascending cells
        that hold points and their point counts."""
        if self._order is None:
            self._order = cell_order(self._cell_of)
        return self._order

    def nearest(self, params, k):
        """Indices (n, k) of the k data points with parameters closest to
        each row of `params` (n, 2)."""
        if self._tree is None:
            from scipy.spatial import cKDTree
            self._tree = cKDTree(self.params)
        k = min(k, len(self.points))
        _, idx = self._tree.query(params, k=k)
        return idx.reshape(len(params), k)

    def __len__(self):
        return len(self.points)

    def bbox_diagonal(self):
        span = self.points.max(axis=0) - self.points.min(axis=0)
        return float(np.linalg.norm(span))

    def assign_cells(self, mesh):
        self.cell_of = mesh.locate_many(self.params[:, 0], self.params[:, 1])

    def update_cells(self, report):
        """Relocate the points after a refinement round: each descends from
        its old cell (`TMesh.locate_many` with `start`), so the points of
        the split cells move down to their children and the others stay."""
        self.cell_of = report.mesh_after.locate_many(self.params[:, 0], self.params[:, 1],
                                                     start=self._cell_of)


@dataclass
class FitConfig:
    tolerance: float = 1e-3          # fraction of the bounding-box diagonal
    delta: float = 2.0               # anisotropy threshold, > 1
    max_levels: int = 10
    initial_grid: tuple = (2, 2)
    # cells are marked when their error exceeds mark_safety * tolerance:
    # anchors bordering passing cells keep their data, so passing must
    # certify a margin below the final tolerance or single points can
    # plateau just above it
    mark_safety: float = 0.5

    def __post_init__(self):
        if not 0 <= self.tolerance < math.inf:
            raise ValueError(f"tolerance must be finite and nonnegative, got {self.tolerance!r}")
        if not self.delta > 1:
            raise ValueError(f"delta (anisotropy threshold) must exceed 1, got {self.delta!r}; "
                             f"values below 1 would mark every cell anisotropic")
        _check_count("max_levels", self.max_levels, 0)
        grid = self.initial_grid
        if not (isinstance(grid, (tuple, list)) and len(grid) == 2
                and all(isinstance(n, numbers.Integral) and n >= 1 for n in grid)):
            raise ValueError(f"initial_grid must be two integers >= 1 (cells along s and t), "
                             f"got {grid!r}")
        if not (0 < self.mark_safety <= 1):
            raise ValueError("mark_safety must lie in (0, 1]")


def generate_test_model(kind, grid=(101, 101)):
    """Point sets used by the fitting benchmarks.

    'cone' is a ruled frustum (curved along s, straight along t),
    'paraboloid' the height field s^2 + t^2, and 'bernstein_sum' a height
    field combining degree-7 Bernstein weights with oscillatory factors:
    anisotropic near u=0, v-dominated near u=1.
    """
    m, n = grid
    if m < 2 or n < 2:
        raise ValueError("grid must be at least 2x2")
    u = np.linspace(0.0, 1.0, m)
    v = np.linspace(0.0, 1.0, n)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    uu, vv = uu.ravel(), vv.ravel()
    if kind == "cone":
        phi = 1.5 * np.pi * uu
        r = 0.2 + 0.8 * vv
        pts = np.stack([r * np.cos(phi), r * np.sin(phi), 1.0 * vv], axis=1)
    elif kind == "paraboloid":
        pts = np.stack([uu, vv, uu ** 2 + vv ** 2], axis=1)
    elif kind == "bernstein_sum":
        b07 = (1 - uu) ** 7
        b17 = 7 * uu * (1 - uu) ** 6
        b77 = uu ** 7
        osc = np.sin(120 * uu) * np.sin(2 * np.pi * uu)
        z = 0.1 * (b07 * osc + b17 * (2 * osc)
                   + b77 * (2 - 2 * (1 + 0.4 * np.sin(60 * vv)) * np.abs(np.cos(2 * np.pi * vv))))
        pts = np.stack([uu, vv, z], axis=1)
    else:
        raise ValueError(f"unknown test model {kind!r}")
    return ParamPointSet(pts, np.stack([uu, vv], axis=1))


# rows per stacked QR of the fit kernel, and vertices per window
_BLOCK = 4096
_WINDOW = 256


class _PointHoods:
    """Neighborhoods of listed points, one design row per point:
    neighborhood i is the points `order[first[i]:first[i] + counts[i]]`."""

    def __init__(self, pset, order, first, counts):
        self.pset, self.order, self.first = pset, order, first
        self.counts = self.nrows = counts

    def rows(self, sel):
        """Point indices of the neighborhoods `sel`, one after another."""
        lo = self.first[sel]
        return self.order[_ranges(lo, lo + self.counts[sel])]

    def design(self, rows, centers, ncols):
        return _design(self.pset, rows, centers, ncols)


class _NearestHoods(_PointHoods):
    """Neighborhoods of the k nearest points, one row of `idx` per vertex."""

    def __init__(self, pset, idx):
        n, k = idx.shape
        super().__init__(pset, idx.ravel(), k * np.arange(n), np.full(n, k, dtype=np.int64))
        self.idx = idx


class _CellFactors:
    """Each cell's points reduced once: the nonzero rows of the R factor of
    the cell's system [A | P], its monomials about the cell's center.  A
    cell of at most k = 6 + arity points keeps its design rows, with no QR.

    Cells are reduced when a neighborhood first asks for them (`add`), and
    the table holds at most min(points, k) rows per cell, so never more
    rows than the point set."""

    def __init__(self, pset, mesh):
        b = mesh.cell_bounds()
        self.centers = np.stack([b[:, 0] + b[:, 1], b[:, 2] + b[:, 3]], axis=1) / 2
        order, cells, counts = pset.cell_order()
        self.counts = np.zeros(len(b), dtype=np.int64)
        self.counts[cells] = counts
        # neighborhood c is the points of cell c, in the set's cell order
        self.points = _PointHoods(pset, order, np.cumsum(self.counts) - self.counts, self.counts)
        k = 6 + pset.points.shape[1]
        self.nrows = np.minimum(self.counts, k)
        self.first = np.full(len(b), -1, dtype=np.int64)       # -1: not reduced yet
        self.table = np.empty((k, 0))          # column-major: row i is column i of [A | P]
        self.row_cell = np.empty(0, dtype=np.int64)

    def add(self, cells):
        """Reduce those of `cells` not reduced yet."""
        new = np.unique(cells[self.first[cells] < 0])
        if not len(new):
            return
        few = self.counts[new] == self.nrows[new]
        k = len(self.table)
        small, big = new[few], new[~few]
        raw = self.points.design(self.points.rows(small),
                                 np.repeat(self.centers[small], self.counts[small], axis=0), 6)
        R = _reduced(self.points.pset, self.points, big, self.centers, 6)
        new = np.concatenate([small, big])
        self.first[new] = self.table.shape[1] + np.cumsum(self.nrows[new]) - self.nrows[new]
        self.table = np.concatenate([self.table, raw.T, R.reshape(-1, k).T], axis=1)
        self.row_cell = np.concatenate([self.row_cell, np.repeat(new, self.nrows[new])])


class _CellHoods:
    """Neighborhoods made of whole cells: neighborhood i is the cells
    `cells[first[i]:first[i] + sizes[i]]`, ascending.  Its rows are its
    cells' factor rows (`_CellFactors`) moved to the monomials about the
    vertex, A_v = A_c T(c - v)."""

    def __init__(self, factors, sizes, cells):
        factors.add(cells)
        self.factors, self.sizes, self.cells = factors, sizes, cells
        self.first = np.cumsum(sizes) - sizes
        owner = np.repeat(np.arange(len(sizes)), sizes)
        self.counts, self.nrows = (
            np.bincount(owner, weights=per_cell[cells], minlength=len(sizes)).astype(np.int64)
            for per_cell in (factors.counts, factors.nrows))

    def subset(self, sel):
        """The neighborhoods `sel` (indices or a mask)."""
        lo = self.first[sel]
        return _CellHoods(self.factors, self.sizes[sel],
                          self.cells[_ranges(lo, lo + self.sizes[sel])])

    def rows(self, sel):
        """Factor-table rows of the neighborhoods `sel`, one after another."""
        lo = self.first[sel]
        cells = self.cells[_ranges(lo, lo + self.sizes[sel])]
        lo = self.factors.first[cells]
        return _ranges(lo, lo + self.factors.nrows[cells])

    def design(self, rows, centers, ncols):
        f = self.factors
        return _shifted(f.table[:, rows], f.centers[f.row_cell[rows]] - centers, ncols)


def _edge_neighbors(mesh, cells):
    """The edge neighbors of the active `cells` as a CSR (start, cells) over
    cell ids, cell c's at cells[start[c]:start[c + 1]], none for the other
    cells: one `TMesh.edge_neighbor_pairs` pass over them and the cells
    around their vertices, which hold every edge neighbor."""
    cell_start, incident, vert_start, verts = mesh._incidence_tables()
    cells = np.unique(cells)
    vids = np.unique(verts[_ranges(vert_start[cells], vert_start[cells + 1])])
    a, b = mesh.edge_neighbor_pairs(incident[_ranges(cell_start[vids], cell_start[vids + 1])])
    src, dst = np.concatenate([a, b]), np.concatenate([b, a])
    asked = np.zeros(len(vert_start), dtype=bool)
    asked[cells] = True
    src, dst = src[asked[src]], dst[asked[src]]
    order = np.argsort(src, kind="stable")
    return np.searchsorted(src[order], np.arange(len(vert_start))), dst[order]


def _ring(sizes, cells, neighbors):
    """Cell sets (sizes, cells), each set's cells ascending, with one ring
    of edge neighbors added, from the CSR `neighbors` of `_edge_neighbors`:
    one batched pass for all sets."""
    start, adjacent = neighbors
    n = len(start) - 1
    owner = np.repeat(np.arange(len(sizes)), sizes)
    lo, hi = start[cells], start[cells + 1]
    key = np.unique(np.concatenate([owner, np.repeat(owner, hi - lo)]) * n
                    + np.concatenate([cells, adjacent[_ranges(lo, hi)]]))
    owner, cells = np.divmod(key, n)
    return np.bincount(owner, minlength=len(sizes)), cells


def _design(pset, rows, centers, ncols):
    """Rows [A | P] of a fit: the first `ncols` of the monomials 1, ds, dt,
    ds^2, ds dt, dt^2 about each row's center, then the points.  Filled
    column by column, and returned as a column-major view."""
    X = np.empty((ncols + pset.points.shape[1], len(rows)))
    X[0] = 1.0
    X[1:3] = (pset.params[rows] - centers).T
    if ncols == 6:
        ds, dt = X[1], X[2]
        np.multiply(ds, ds, out=X[3])
        np.multiply(ds, dt, out=X[4])
        np.multiply(dt, dt, out=X[5])
    X[ncols:] = pset.points[rows].T
    return X.T


def _shifted(X, offsets, ncols):
    """Rows [A | P] with the first `ncols` monomials about the centers
    c - d, made in place from the columns X of rows [A | P] with all six
    monomials about the centers c, where d is each row's `offsets` (a, b):
    ds + a and dt + b replace ds and dt, so the column of (ds + a)^2, say,
    becomes ds^2 + 2a ds + a^2 times the column of 1.  Returned as a
    column-major view."""
    a, b = offsets.T
    one = X[0]
    if ncols == 6:
        X[5] += b * (2 * X[2] + b * one)
        X[4] += b * X[1] + a * (X[2] + b * one)
        X[3] += a * (2 * X[1] + a * one)
    X[1] += a * one
    X[2] += b * one
    return (X if ncols == 6 else X[np.r_[:ncols, 6:len(X)]]).T


def _stacked_r(pset, hoods, sel, centers, ncols):
    """R factors (n, k, k) of the k-column systems [A | P] of the
    neighborhoods `sel`, zero-padded to the largest of them and to at
    least k rows: one stacked QR."""
    nrows = hoods.nrows[sel]
    k = ncols + pset.points.shape[1]
    owner = np.repeat(np.arange(len(sel)), nrows)
    slot = np.arange(len(owner)) - np.repeat(np.cumsum(nrows) - nrows, nrows)
    X = np.zeros((len(sel), max(nrows.max(), k), k))
    X[owner, slot] = hoods.design(hoods.rows(sel), centers[sel][owner], ncols)
    return np.linalg.qr(X, mode="r")


def _streamed_r(pset, hoods, j, centers, ncols):
    """R factor of one neighborhood over `_BLOCK` rows, reduced a piece at
    a time (sequential TSQR): each piece goes under the R so far."""
    rows = hoods.rows([j])
    R = np.zeros((0, ncols + pset.points.shape[1]))
    for at in range(0, len(rows), _BLOCK):
        R = np.linalg.qr(np.vstack([R, hoods.design(rows[at:at + _BLOCK], centers[j], ncols)]),
                         mode="r")
    return R


def _reduced(pset, hoods, sel, centers, ncols):
    """R factors (n, k, k) of the k-column systems [A | P] of the
    neighborhoods `sel`, in order: sorted by row count, stacked into QRs
    of at most `_BLOCK` rows, a larger system streamed."""
    k = ncols + pset.points.shape[1]
    nrows = hoods.nrows[sel]
    order = np.argsort(nrows, kind="stable")
    R = np.empty((len(sel), k, k))
    lo = 0
    while lo < len(sel):
        if nrows[order[lo]] > _BLOCK:
            R[order[lo]] = _streamed_r(pset, hoods, sel[order[lo]], centers, ncols)
            lo += 1
            continue
        # row counts ascend, so a chunk is padded to its last system
        hi = lo + 1
        while hi < len(sel) and (hi - lo + 1) * nrows[order[hi]] <= _BLOCK:
            hi += 1
        R[order[lo:hi]] = _stacked_r(pset, hoods, sel[order[lo:hi]], centers, ncols)
        lo = hi
    return R


def _fit(pset, hoods, sel, centers, ncols):
    """Least-squares fits of `ncols` monomials about each center to the
    points of the neighborhoods `sel` (each of at least `ncols` points).

    Returns the solutions (n, ncols, arity) and ranks (n,) of
    `np.linalg.lstsq(A, P, rcond=None)`: the singular values of A are
    those of R's leading block, cut by lstsq's rank rule, and the
    minimum-norm solution is formed from them.
    """
    sol = np.empty((len(sel), ncols, pset.points.shape[1]))
    rank = np.empty(len(sel), dtype=np.int64)
    counts = hoods.counts[sel]
    order = np.argsort(hoods.nrows[sel], kind="stable")
    for w in range(0, len(sel), _WINDOW):
        win = order[w:w + _WINDOW]
        R = _reduced(pset, hoods, sel[win], centers, ncols)
        U, s, Vt = np.linalg.svd(R[:, :ncols, :ncols])
        keep = s > (np.finfo(float).eps * counts[win] * s[:, 0])[:, None]
        inv = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
        sol[win] = np.swapaxes(Vt, 1, 2) @ (np.swapaxes(U, 1, 2) @ R[:, :ncols, ncols:]
                                            * inv[:, :, None])
        rank[win] = keep.sum(axis=1)
    return sol, rank


def estimate_vertex_controls(space, vids, pset, max_rings=3, fallback_field=None):
    """Control values of the four functions at each basis vertex of `vids`:
    an array (n, 4, arity), row k of vertex i for its slot k.

    Around each vertex the points are fitted with one quadratic per
    coordinate; (S, S_s, S_t, S_st) read off at the vertex are solved
    against its collocation block.  The tiers run as waves over the
    vertices still without data:

    1. the points of the vertex's cells, then of up to `max_rings` rings
       of edge neighbors, until the quadratic fit has full rank;
    2. the 18 nearest points (when the set holds at least 6), for cells
       thinner than the data;
    3. a linear fit with zero twist to the last points tried, if there
       are at least 3 (warns);
    4. the current surface's (f, f_s, f_t, f_st) at the vertex from
       `fallback_field`, where refinement has outrun the data (warns);
       without it a ValueError.

    The whole-cell neighborhoods of tiers 1 and 3 are fitted in two
    stages.  First each cell that a neighborhood asks for is reduced once
    per call (`_CellFactors`): its points' rows [A | P], with the
    monomials about the cell's center, become the nonzero rows of their R
    factor, at most 6 + arity of them.  Then each vertex's R comes from
    one QR of its cells' factor rows moved to the monomials about the
    vertex (`_shifted`); the linear tier reads the linear columns of the
    same rows.  So a point is reduced once however many neighborhoods
    and rings hold it (tall-skinny QR).  The nearest points of tier 2
    are fitted from their design rows.

    Every QR goes through one kernel (`_reduced`): systems sorted by row
    count, zero-padded and stacked into QRs of at most `_BLOCK` rows, a
    larger system streamed through `_BLOCK`-row pieces; `_fit` takes the
    vertices `_WINDOW` at a time.  So the transient memory grows with
    neither the number of vertices nor their point counts, and the
    factor table never holds more rows than the point set.
    """
    mesh = space.mesh
    vids = list(vids)
    for vid in vids:
        if vid not in space.vertex_row:
            if not mesh.is_basis_vertex(vid):
                raise ValueError(f"vertex {vid} is not a basis vertex")
            raise ValueError(f"vertex {vid} carries no functions in this space")
    n = len(vids)
    arity = pset.points.shape[1]
    at = np.array(vids, dtype=np.intp)
    centers = mesh.vertex_floats()[at]
    data = np.zeros((n, arity, 4))

    def quadratic(hoods, ks):
        """Fits the neighborhoods of the vertices `ks` that hold at least
        6 points, keeps the data of the full-rank fits; returns their mask."""
        sel = np.flatnonzero(hoods.counts >= 6)
        sol, rank = _fit(pset, hoods, sel, centers[ks], 6)
        full = rank == 6
        data[ks[sel[full]]] = np.moveaxis(sol[full][:, [0, 1, 2, 4]], 1, 2)
        return np.isin(np.arange(len(ks)), sel[full])

    # tier 1: the vertices' cells, then rings
    start, incident = mesh._incidence_tables()[:2]
    lo, hi = start[at], start[at + 1]
    factors = _CellFactors(pset, mesh)
    hoods = _CellHoods(factors, hi - lo, incident[_ranges(lo, hi)])
    ks = np.arange(n)
    failed = []             # (vertices, their last cells tried) that no ring made full rank
    for ring in range(max_rings + 1):
        full = quadratic(hoods, ks)
        ks, hoods = ks[~full], hoods.subset(~full)
        bigger = hoods
        if ring < max_rings and len(ks):
            bigger = _CellHoods(factors, *_ring(hoods.sizes, hoods.cells,
                                                _edge_neighbors(mesh, hoods.cells)))
        stuck = bigger.sizes == hoods.sizes                 # no further ring
        failed.append((ks[stuck], hoods.subset(stuck)))
        ks, hoods = ks[~stuck], bigger.subset(~stuck)
        if not len(ks):
            break
    ks = np.concatenate([k for k, _ in failed])
    order = np.argsort(ks)
    ks = ks[order]
    if len(ks) and len(pset) >= 6:
        # neighborhood cells are thinner than the data: fit the nearest
        # points instead, so the window tracks the sampling density
        hoods = _NearestHoods(pset, pset.nearest(centers[ks], 18))
        full = quadratic(hoods, ks)
        ks, hoods = ks[~full], _NearestHoods(pset, hoods.idx[~full])
    else:
        hoods = _CellHoods(factors, np.concatenate([h.sizes for _, h in failed]),
                           np.concatenate([h.cells for _, h in failed])).subset(order)
    linear = hoods.counts >= 3
    sol, _ = _fit(pset, hoods, np.flatnonzero(linear), centers[ks], 3)
    data[ks[linear], :, :3] = np.moveaxis(sol, 1, 2)          # zero twist
    for k, lin in zip(ks.tolist(), linear.tolist()):
        if lin:
            warnings.warn(
                f"quadratic fit around vertex {vids[k]} is rank deficient; "
                f"falling back to a linear fit with zero twist", stacklevel=2)
        elif fallback_field is not None:
            warnings.warn(
                f"not enough data points around vertex {vids[k]}; keeping the "
                f"current surface there", stacklevel=2)
        else:
            raise ValueError(f"no data points around vertex {vids[k]}")
    carry = ks[~linear]
    if len(carry):
        got = fallback_field.eval_many(centers[carry, 0], centers[carry, 1], HERMITE_ORDERS)
        data[carry] = np.moveaxis(got, 0, -1)
    return _solve_vertices(space, vids, data)


def _vertices_inside(mesh, cells):
    """The vertices of the active `cells` whose every incident cell is one
    of them, ascending: one pass over the mesh's incidence CSR."""
    cell_start, incident, vert_start, verts = mesh._incidence_tables()
    cells = np.asarray(cells, dtype=np.int64)
    chosen = np.zeros(len(vert_start) - 1, dtype=bool)
    chosen[cells] = True
    vids = np.unique(verts[_ranges(vert_start[cells], vert_start[cells + 1])])
    lo, hi = cell_start[vids], cell_start[vids + 1]
    owner = np.repeat(np.arange(len(vids)), hi - lo)
    outside = np.bincount(owner, weights=~chosen[incident[_ranges(lo, hi)]],
                          minlength=len(vids))
    return vids[outside == 0]


def _field_errors(field, pset):
    """Distance of every point to the surface, and the largest distance
    per cell id that holds points, ascending.  The points are evaluated in
    the set's cell order (`ParamPointSet.cell_order`, `SplineField.eval_runs`),
    each cell's largest distance is a reduction over its run, and the
    distances are put back in point order, so sums over them run as in
    the set."""
    order, cells, counts = pset.cell_order()
    gap = field.eval_runs(order, cells, counts, pset.params[:, 0], pset.params[:, 1])[0]
    gap -= pset.points.take(order, axis=0)
    ranked = np.sqrt(np.einsum("ij,ij->i", gap, gap))
    err = np.empty_like(ranked)
    err[order] = ranked
    worst = np.maximum.reduceat(ranked, np.cumsum(counts) - counts)
    return err, dict(zip(cells.tolist(), worst.tolist()))


# the labeler's sample grid: ticks 1/4, 1/2 and 3/4 across each cell, u-major
_TICKS = np.arange(1, 4) / 4.0
_GRID_U, _GRID_V = (g.ravel() for g in np.meshgrid(_TICKS, _TICKS, indexing="ij"))


def _mean_curvatures(first, second):
    """Per-cell mean curvature of sampled curves from their first and
    second derivatives (c, n, m): the graph curvature |f''| / (1 + f'^2)^1.5
    when m = 1, else |f' x f''| / |f'|^3, with the cross product's z
    component x'y'' - y'x'' when m = 2.  Sample points where the speed
    vanishes are skipped; a cell without any gets 0."""
    if first.shape[-1] == 1:
        num = np.abs(second[..., 0])
        den = (1.0 + first[..., 0] ** 2) ** 1.5
        good = np.ones(num.shape, dtype=bool)
    else:
        num = (np.abs(first[..., 0] * second[..., 1] - first[..., 1] * second[..., 0])
               if first.shape[-1] == 2 else np.linalg.norm(np.cross(first, second), axis=-1))
        speed = np.linalg.norm(first, axis=-1)
        den = speed ** 3
        good = speed > 1e-12
    kappa = np.divide(num, den, out=np.zeros(num.shape), where=good)
    count = good.sum(axis=1)
    return np.divide(kappa.sum(axis=1), count, out=np.zeros(len(count)), where=count > 0)


def _curvatures(field, cells):
    """Mean directional curvatures (k_s, k_t), two arrays over `cells`:
    kappa_s = |S_s x S_ss| / |S_s|^3 (for a scalar field, the curvature of
    its graph), sampled on the 3 x 3 interior grid `_GRID_U`, `_GRID_V` of
    all cells at once."""
    d = field.eval_grid(cells, _GRID_U, _GRID_V, ((1, 0), (0, 1), (2, 0), (0, 2)))
    d = d.reshape(d.shape[:3] + (-1,))             # a scalar field has one component
    return _mean_curvatures(d[0], d[2]), _mean_curvatures(d[1], d[3])


def label_by_curvature(field, cells, delta):
    """Split labels {cell: 'H' | 'V' | 'C'} from the mean directional
    curvatures of `_curvatures`: the ratio k_s / k_t picks 'V' (curved
    along s) above `delta`, 'H' (curved along t) below 1/delta, or 'C'.
    Degenerate sample points are skipped; all-degenerate cells and flat cells
    get 'C'.  The ratio is not weighted by the cell widths (see
    `solver.label_by_solution`).
    """
    cells = list(cells)
    k_s, k_t = _curvatures(field, cells)
    tiny = 1e-12 * np.maximum(np.maximum(k_s, k_t), 1.0)
    flat_s, flat_t = k_s <= tiny, k_t <= tiny
    rho = np.divide(k_s, k_t, out=np.zeros(len(cells)), where=~flat_t)
    bent = np.where(rho > delta, "V", np.where(rho < 1.0 / delta, "H", "C"))
    label = np.where(flat_t, np.where(flat_s, "C", "V"), np.where(flat_s, "H", bent))
    return dict(zip(cells, label.tolist()))


def fit_surface(pset, config, strategy="modified"):
    """Adaptive fit by `reporting.run_adaptive`; returns (surface field,
    report).  Each level estimates the control points of its stale vertices
    (all of them at level 0, where nothing is carried over) and meets the
    goal when its max error is at most the tolerance.
    """
    tol = config.tolerance * pset.bbox_diagonal()
    field = rrep = None

    def estimate(space, level):
        nonlocal field
        if level == 0:
            pset.assign_cells(space.mesh)
        t0 = time.perf_counter()
        coeffs = np.zeros((space.dim, 3))
        stale = space.vertices
        if level:
            coeffs[:field.space.dim] = field.coefficients
            # anchors inside the refined region are re-estimated (module docstring);
            # the others keep theirs, which freezes the surface over unrefined cells
            inside = _vertices_inside(rrep.mesh_before, list(rrep.performed))
            stale = sorted(set(rrep.new_basis_vertices).union(
                vid for vid in inside.tolist() if vid in space.vertex_row))
        rows = np.array([space.vertex_row[vid] for vid in stale], dtype=np.intp)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            coeffs[4 * rows[:, None] + np.arange(4)] = estimate_vertex_controls(
                space, stale, pset, fallback_field=field)
        if caught:      # stack: this hook, run_adaptive, fit_surface, its caller
            warnings.warn(f"level {level}: {len(caught)} vertex estimates used a "
                          f"fallback (thin data)", stacklevel=4)
        field = SplineField(space, coeffs)
        t1 = time.perf_counter()
        err, cell_max = _field_errors(field, pset)
        fields = {"max_error": float(err.max()), "mean_error": float(err.mean()),
                  "seconds": {"controls": t1 - t0, "errors": time.perf_counter() - t1}}
        return fields, cell_max, config.mark_safety * tol, fields["max_error"] <= tol

    def advance(space, labels):
        nonlocal rrep
        _, rrep = refine(space.mesh, RefinementRequest(labels))
        pset.update_cells(rrep)
        return advance_level(space, rrep), rrep

    report = run_adaptive(
        build_initial_space(create_tensor_mesh(*config.initial_grid)), strategy,
        config.max_levels, estimate,
        lambda marked: label_by_curvature(field, marked, config.delta),
        advance)
    return field, report
