"""Adaptive surface fitting of parameterized point sets.

The loop fits a spline surface to points (x, y, z) with parameters
(s, t) in the unit square: estimate control points from local quadratic
fits, measure the max distance per cell, mark the current-level cells
above tolerance, label them from discrete directional curvatures of the
current surface, refine, repeat.

Control points are estimated for a level's basis vertices at once
(`estimate_vertex_controls`): one quadratic least-squares fit per vertex,
all of them stacked into a few QR factorizations, and one batched solve
against the vertices' collocation blocks.  After a refinement round the
new vertices and the vertices whose incident cells were just subdivided
get fresh estimates (the surface value at an anchor is pinned by its own four
functions, so a stale coarse estimate would put a floor under the
error); anchors away from the refined region keep their control points,
which freezes the surface over cells that already passed.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .refine import RefinementRequest, refine
from .reporting import AdaptiveReport, LevelRecord
from .space import (
    HERMITE_ORDERS, SplineField, _solve_vertices, advance_level, build_initial_space,
)
from .tmesh import create_tensor_mesh

__all__ = [
    "ParamPointSet", "FitConfig", "AnisotropyEstimate", "generate_test_model",
    "estimate_vertex_controls", "label_by_curvature",
    "fit_surface",
]


class ParamPointSet:
    """3D points with parameters in [0,1]^2 and a per-point cell index."""

    def __init__(self, points, params):
        self.points = np.asarray(points, dtype=float)
        self.params = np.asarray(params, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError("points must be (n, 3)")
        if self.params.shape != (len(self.points), 2):
            raise ValueError("params must be (n, 2)")
        if len(self.points) == 0:
            raise ValueError("empty point set")
        if self.params.min() < 0 or self.params.max() > 1:
            raise ValueError("parameters outside [0,1]^2")
        self.cell_of = None
        self._tree = None

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
        """Relocate only the points whose cell was subdivided."""
        stale = np.nonzero(np.isin(self.cell_of, list(report.performed)))[0]
        self.cell_of[stale] = report.mesh_after.locate_many(
            self.params[stale, 0], self.params[stale, 1])


@dataclass
class FitConfig:
    tolerance: float = 1e-3          # fraction of the bounding-box diagonal
    delta: float = 2.0               # anisotropy threshold, > 1
    # curvature samples per cell, rounded to the nearest square grid
    # (`_sample_grid`): 10 means 3 x 3
    samples: int = 9
    max_levels: int = 10
    initial_grid: tuple = (2, 2)
    # cells are marked when their error exceeds mark_safety * tolerance:
    # anchors bordering passing cells keep their data, so passing must
    # certify a margin below the final tolerance or single points can
    # plateau just above it
    mark_safety: float = 0.5

    def __post_init__(self):
        if self.tolerance < 0:
            raise ValueError("tolerance must be nonnegative")
        if self.delta <= 1:
            raise ValueError("anisotropy threshold must exceed 1 "
                             "(values below 1 would mark every cell anisotropic)")
        if self.samples < 1:
            raise ValueError("need at least one curvature sample per cell")
        if not (0 < self.mark_safety <= 1):
            raise ValueError("mark_safety must lie in (0, 1]")


@dataclass
class AnisotropyEstimate:
    k_s: float
    k_t: float
    label: str

    @property
    def ratio(self):
        return self.k_s / self.k_t if self.k_t else np.inf


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


def _ring_expand(mesh, cells):
    """Active cells sharing an edge with the given set."""
    out = set(cells)
    for cid in cells:
        out |= mesh.edge_neighbors(cid)
    return out


# rows per stacked QR of the fit kernel, and vertices per window
_BLOCK = 4096
_WINDOW = 256


def _ranges(starts, counts):
    """Concatenated integer ranges [starts[k], starts[k] + counts[k])."""
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(counts.sum())


class _CellRows:
    """The points of a set in cell order: one stable argsort of `cell_of`,
    with the start and count of every cell id's run in it."""

    def __init__(self, cell_of):
        self.order = np.argsort(cell_of, kind="stable")
        self.counts = np.bincount(cell_of)
        self.starts = np.cumsum(self.counts) - self.counts

    def spans(self, cells):
        """Start and count of each cell's run; a cell without points has
        count 0."""
        has = cells < len(self.counts)
        at = np.where(has, cells, 0)
        return self.starts[at], np.where(has, self.counts[at], 0)


class _CellHoods:
    """Neighborhoods made of whole cells, one cell set per vertex."""

    def __init__(self, cell_rows, cell_sets):
        self.cell_rows = cell_rows
        self.sizes = np.array([len(c) for c in cell_sets], dtype=np.int64)
        self.first = np.cumsum(self.sizes) - self.sizes
        cells = np.fromiter((c for cs in cell_sets for c in sorted(cs)), np.int64,
                            int(self.sizes.sum()))
        self.starts, self.cell_counts = cell_rows.spans(cells)
        owner = np.repeat(np.arange(len(cell_sets)), self.sizes)
        self.counts = np.bincount(owner, weights=self.cell_counts,
                                  minlength=len(cell_sets)).astype(np.int64)

    def rows(self, sel):
        """Point indices of the neighborhoods `sel`, one after another."""
        pairs = _ranges(self.first[sel], self.sizes[sel])
        return self.cell_rows.order[_ranges(self.starts[pairs], self.cell_counts[pairs])]


class _NearestHoods:
    """Neighborhoods of the k nearest points, one row of `idx` per vertex."""

    def __init__(self, idx):
        self.idx = idx
        self.counts = np.full(len(idx), idx.shape[1], dtype=np.int64)

    def rows(self, sel):
        return self.idx[sel].ravel()


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


def _stacked_r(pset, hoods, sel, centers, ncols):
    """R factors (n, k, k) of the k-column systems [A | P] of the
    neighborhoods `sel`, zero-padded to the largest of them and to at
    least k rows: one stacked QR."""
    counts = hoods.counts[sel]
    k = ncols + pset.points.shape[1]
    owner = np.repeat(np.arange(len(sel)), counts)
    slot = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    X = np.zeros((len(sel), max(counts.max(), k), k))
    X[owner, slot] = _design(pset, hoods.rows(sel), centers[sel][owner], ncols)
    return np.linalg.qr(X, mode="r")


def _streamed_r(pset, hoods, j, centers, ncols):
    """R factor of one neighborhood over `_BLOCK` rows, reduced a piece at
    a time (sequential TSQR): each piece goes under the R so far."""
    rows = hoods.rows([j])
    R = np.zeros((0, ncols + pset.points.shape[1]))
    for at in range(0, len(rows), _BLOCK):
        R = np.linalg.qr(np.vstack([R, _design(pset, rows[at:at + _BLOCK], centers[j], ncols)]),
                         mode="r")
    return R


def _fit(pset, hoods, sel, centers, ncols):
    """Least-squares fits of `ncols` monomials about each center to the
    points of the neighborhoods `sel` (each of at least `ncols` points).

    Returns the solutions (n, ncols, arity) and ranks (n,) of
    `np.linalg.lstsq(A, P, rcond=None)`: the singular values of A are
    those of R's leading block, cut by lstsq's rank rule, and the
    minimum-norm solution is formed from them.
    """
    k = ncols + pset.points.shape[1]
    sol = np.empty((len(sel), ncols, pset.points.shape[1]))
    rank = np.empty(len(sel), dtype=np.int64)
    counts = hoods.counts[sel]
    order = np.argsort(counts, kind="stable")
    for w in range(0, len(sel), _WINDOW):
        win = order[w:w + _WINDOW]
        R = np.empty((len(win), k, k))
        lo = 0
        while lo < len(win):
            if counts[win[lo]] > _BLOCK:
                R[lo] = _streamed_r(pset, hoods, sel[win[lo]], centers, ncols)
                lo += 1
                continue
            # counts ascend, so a chunk is padded to its last neighborhood
            hi = lo + 1
            while hi < len(win) and (hi - lo + 1) * counts[win[hi]] <= _BLOCK:
                hi += 1
            R[lo:hi] = _stacked_r(pset, hoods, sel[win[lo:hi]], centers, ncols)
            lo = hi
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

    Tier 1 walks the vertices `_WINDOW` at a time.  Every wave's fits go
    through one kernel (`_fit`): neighborhoods sorted by point count,
    their systems [A | P] zero-padded and stacked into QRs of at most
    `_BLOCK` rows, a larger system streamed through `_BLOCK`-row pieces.
    So the transient memory grows with neither the number of vertices nor
    their point counts.
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
    centers = np.fromiter(chain.from_iterable(mesh.vertex(vid).position_float() for vid in vids),
                          float, 2 * n).reshape(n, 2)
    data = np.zeros((n, arity, 4))
    cell_rows = _CellRows(pset.cell_of)

    def quadratic(hoods, ks):
        """Fits the neighborhoods of the vertices `ks` that hold at least
        6 points, keeps the data of the full-rank fits; returns their mask."""
        sel = np.flatnonzero(hoods.counts >= 6)
        sol, rank = _fit(pset, hoods, sel, centers[ks], 6)
        full = rank == 6
        data[ks[sel[full]]] = np.moveaxis(sol[full][:, [0, 1, 2, 4]], 1, 2)
        return np.isin(np.arange(len(ks)), sel[full])

    # tier 1, a window of vertices at a time: their cells, then rings
    failed = {}                         # vertex -> the last cells tried
    for lo in range(0, n, _WINDOW):
        ks = np.arange(lo, min(lo + _WINDOW, n))
        cells = {k: mesh.vertex_cells(vids[k]) for k in ks.tolist()}
        for ring in range(max_rings + 1):
            grow = []
            for k in ks[~quadratic(_CellHoods(cell_rows, [cells[k] for k in ks]), ks)].tolist():
                bigger = _ring_expand(mesh, cells[k]) if ring < max_rings else cells[k]
                if len(bigger) == len(cells[k]):            # no further ring
                    failed[k] = cells[k]
                else:
                    cells[k] = bigger
                    grow.append(k)
            ks = np.array(grow, dtype=np.int64)
            if not grow:
                break
    ks = np.array(sorted(failed), dtype=np.int64)
    if len(ks) and len(pset) >= 6:
        # neighborhood cells are thinner than the data: fit the nearest
        # points instead, so the window tracks the sampling density
        hoods = _NearestHoods(pset.nearest(centers[ks], 18))
        full = quadratic(hoods, ks)
        ks, hoods = ks[~full], _NearestHoods(hoods.idx[~full])
    else:
        hoods = _CellHoods(cell_rows, [failed[k] for k in ks])
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


def _field_errors(field, pset):
    """Distance of every point to the surface, and the largest distance
    per cell id that holds points."""
    got = field.eval_located(pset.cell_of, pset.params[:, 0], pset.params[:, 1])[0]
    err = np.linalg.norm(got - pset.points, axis=1)
    cells, rank = np.unique(pset.cell_of, return_inverse=True)
    worst = np.zeros(len(cells))
    np.maximum.at(worst, rank, err)
    return err, dict(zip(cells.tolist(), worst.tolist()))


def _sample_grid(l):
    m = max(1, int(round(np.sqrt(l))))
    ticks = np.arange(1, m + 1) / (m + 1.0)
    uu, vv = np.meshgrid(ticks, ticks, indexing="ij")
    return uu.ravel(), vv.ravel()


def _mean_curvatures(first, second):
    """Per-cell mean curvature of sampled curves from their first and
    second derivatives (c, n, m): the graph curvature |f''| / (1 + f'^2)^1.5
    when m = 1, else |f' x f''| / |f'|^3.  Samples where the speed
    vanishes are skipped; a cell without any gets 0."""
    if first.shape[-1] == 1:
        num = np.abs(second[..., 0])
        den = (1.0 + first[..., 0] ** 2) ** 1.5
        good = np.ones(num.shape, dtype=bool)
    else:
        cross = np.cross(first, second)
        num = np.linalg.norm(cross.reshape(cross.shape[:2] + (-1,)), axis=-1)
        speed = np.linalg.norm(first, axis=-1)
        den = speed ** 3
        good = speed > 1e-12
    kappa = np.divide(num, den, out=np.zeros(num.shape), where=good)
    count = good.sum(axis=1)
    return np.divide(kappa.sum(axis=1), count, out=np.zeros(len(count)), where=count > 0)


def label_by_curvature(field, cells, delta, samples=9):
    """Split labels from averaged directional curvatures per cell.

    kappa_s = |S_s x S_ss| / |S_s|^3 (for a scalar field, the curvature of
    its graph) is sampled on an interior grid of all cells at once; the
    ratio of the means picks 'V' (curved along s) above `delta`, 'H'
    (curved along t) below 1/delta, or 'C'.  Degenerate samples are
    skipped; all-degenerate cells and flat cells get 'C'.  The ratio is
    not weighted by the cell widths (see `solver.label_by_solution`).
    """
    u, v = _sample_grid(samples)
    cells = list(cells)
    d = field.eval_grid(cells, u, v, ((1, 0), (0, 1), (2, 0), (0, 2)))
    d = d.reshape(d.shape[:3] + (-1,))             # a scalar field has one component
    k_s = _mean_curvatures(d[0], d[2])
    k_t = _mean_curvatures(d[1], d[3])
    tiny = 1e-12 * np.maximum(np.maximum(k_s, k_t), 1.0)
    flat_s, flat_t = k_s <= tiny, k_t <= tiny
    rho = np.divide(k_s, k_t, out=np.zeros(len(cells)), where=~flat_t)
    bent = np.where(rho > delta, "V", np.where(rho < 1.0 / delta, "H", "C"))
    label = np.where(flat_t, np.where(flat_s, "C", "V"), np.where(flat_s, "H", bent))
    labels = dict(zip(cells, label.tolist()))
    estimates = {cid: AnisotropyEstimate(ks, kt, labels[cid])
                 for cid, ks, kt in zip(cells, k_s.tolist(), k_t.tolist())}
    return labels, estimates


def fit_surface(pset, config, strategy="modified"):
    """Adaptive fit; returns (surface field, report).

    `strategy` 'modified' uses curvature labels; 'cross_only' forces every
    label to 'C', which reduces to plain cross-insertion refinement.
    """
    if strategy not in ("modified", "cross_only"):
        raise ValueError(f"unknown strategy {strategy!r}")
    tol = config.tolerance * pset.bbox_diagonal()
    mesh = create_tensor_mesh(*config.initial_grid)
    space = build_initial_space(mesh)
    pset.assign_cells(mesh)
    report = AdaptiveReport(strategy=strategy)

    t0 = time.perf_counter()
    coeffs = estimate_vertex_controls(space, space.vertices, pset)
    field = SplineField(space, coeffs.reshape(space.dim, 3))
    fit_time = time.perf_counter() - t0

    pending_new = space.dim
    pending_mod = 0
    for level in range(config.max_levels + 1):
        t0 = time.perf_counter()
        err, cell_max = _field_errors(field, pset)
        err_time = time.perf_counter() - t0
        rec = LevelRecord(
            level=level, dof=field.space.dim,
            new_functions=pending_new, modified_functions=pending_mod,
            max_error=float(err.max()), mean_error=float(err.mean()),
            seconds={"controls": fit_time, "errors": err_time})
        marked = [cid for cid in mesh.cells_of_level(level)
                  if cell_max.get(cid, 0.0) > config.mark_safety * tol]
        rec.marked = len(marked)
        report.add(rec)
        if rec.max_error <= tol or not marked or level == config.max_levels:
            break

        t0 = time.perf_counter()
        labels, _ = label_by_curvature(field, marked, config.delta, config.samples)
        if strategy == "cross_only":
            labels = {cid: "C" for cid in labels}
        label_time = time.perf_counter() - t0

        t0 = time.perf_counter()
        old_space = field.space
        old_mesh = mesh
        mesh, rrep = refine(mesh, RefinementRequest(labels))
        new_space = advance_level(old_space, rrep)
        pset.update_cells(rrep)
        refine_time = time.perf_counter() - t0

        t0 = time.perf_counter()
        new_coeffs = np.zeros((new_space.dim, 3))
        new_coeffs[:old_space.dim] = field.coefficients
        # an anchor fully inside the refined region gets a fresh local
        # estimate: its old data came from a coarser fit, and the surface
        # value at an anchor is pinned by its own functions, so keeping it
        # would put a floor under the error there.  Anchors touching any
        # unrefined cell keep their control points, which leaves the
        # surface over every unrefined cell bitwise unchanged.
        stale = set(rrep.new_basis_vertices)
        for parent in rrep.performed:
            for vid in old_mesh.cell_vertices(parent):
                if vid in new_space.vertex_row and vid not in stale:
                    if all(c in rrep.performed for c in old_mesh.vertex_cells(vid)):
                        stale.add(vid)
        stale = sorted(stale)
        rows = np.array([new_space.vertex_row[vid] for vid in stale], dtype=np.intp)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            new_coeffs[4 * rows[:, None] + np.arange(4)] = estimate_vertex_controls(
                new_space, stale, pset, fallback_field=field)
        if caught:
            warnings.warn(
                f"level {level + 1}: {len(caught)} vertex estimates used a "
                f"fallback (thin data)", stacklevel=2)
        field = SplineField(new_space, new_coeffs)
        fit_time = time.perf_counter() - t0

        hist = {}
        for lab in rrep.final_labels.values():
            hist[lab] = hist.get(lab, 0) + 1
        rec.labels = hist
        rec.seconds["label"] = label_time
        rec.seconds["refine"] = refine_time
        pending_new = 4 * len(rrep.new_basis_vertices)
        pending_mod = len(old_space.functions_on_cells(rrep.performed))

    report.converged = bool(report.final.max_error <= tol)
    return field, report
