"""Adaptive surface fitting of parameterized point sets.

The loop fits a spline surface to points (x, y, z) with parameters
(s, t) in the unit square: estimate control points from local quadratic
fits, measure the max distance per cell, mark the current-level cells
above tolerance, label them from discrete directional curvatures of the
current surface, refine, repeat.

Control points are estimated per basis vertex, from the collocation
block of its four functions.  After a refinement round the new vertices
and the vertices whose incident cells were just subdivided get fresh
estimates (the surface value at an anchor is pinned by its own four
functions, so a stale coarse estimate would put a floor under the
error); anchors away from the refined region keep their control points,
which freezes the surface over cells that already passed.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from .refine import RefinementRequest, refine
from .reporting import AdaptiveReport, LevelRecord
from .space import SplineField, advance_level, build_initial_space, collocation_block
from .tmesh import create_tensor_mesh, group_by_cell

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

    def nearest(self, s, t, k):
        """Indices of the k data points with parameters closest to (s, t)."""
        if self._tree is None:
            from scipy.spatial import cKDTree
            self._tree = cKDTree(self.params)
        k = min(k, len(self.points))
        _, idx = self._tree.query([s, t], k=k)
        return np.atleast_1d(idx)

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

    def by_cell(self):
        """Cell id -> ascending indices of the points assigned to it."""
        return group_by_cell(self.cell_of)


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


def estimate_vertex_controls(space, vid, pset, max_rings=3, cell_index=None,
                             fallback_field=None):
    """Control values of the four functions at a basis vertex.

    Fits the points around the vertex with one quadratic per coordinate,
    reads off (S, S_s, S_t, S_st) there and solves against the collocation
    block.  Too few points or a rank-deficient fit first grows the
    neighborhood ring by ring, then falls back to a linear fit with zero
    twist; with fewer than three points the current surface's own data is
    carried over (refinement has outrun the data there, so there is
    nothing local left to learn).  Returns an array (4, arity).
    """
    mesh = space.mesh
    v = mesh.vertex(vid)
    vs, vt = v.position_float()
    cells = set(mesh.vertex_cells(vid))
    arity = pset.points.shape[1]
    if cell_index is None:
        cell_index = pset.by_cell()

    def points_in(cells):
        idx = [cell_index[c] for c in cells if c in cell_index]
        if not idx:
            return pset.params[:0], pset.points[:0]
        idx = np.concatenate(idx)
        return pset.params[idx], pset.points[idx]

    params, pts = points_in(cells)
    rings = 0
    data = None
    while True:
        if len(pts) >= 6:
            ds = params[:, 0] - vs
            dt = params[:, 1] - vt
            A = np.stack([np.ones_like(ds), ds, dt, ds * ds, ds * dt, dt * dt], axis=1)
            sol, _, rank, _ = np.linalg.lstsq(A, pts, rcond=None)
            if rank == 6:
                data = np.stack([sol[0], sol[1], sol[2], sol[4]], axis=1)  # (arity, 4)
                break
        if rings >= max_rings:
            break
        bigger = _ring_expand(mesh, cells)
        if bigger == cells:
            break
        cells = bigger
        rings += 1
        params, pts = points_in(cells)
    if data is None and len(pset) >= 6:
        # neighborhood cells are thinner than the data: fit the nearest
        # points instead, so the window tracks the sampling density
        idx = pset.nearest(vs, vt, 18)
        params, pts = pset.params[idx], pset.points[idx]
        ds = params[:, 0] - vs
        dt = params[:, 1] - vt
        A = np.stack([np.ones_like(ds), ds, dt, ds * ds, ds * dt, dt * dt], axis=1)
        sol, _, rank, _ = np.linalg.lstsq(A, pts, rcond=None)
        if rank == 6:
            data = np.stack([sol[0], sol[1], sol[2], sol[4]], axis=1)
    if data is None:
        if len(pts) >= 3:
            warnings.warn(
                f"quadratic fit around vertex {vid} is rank deficient; "
                f"falling back to a linear fit with zero twist", stacklevel=2)
            ds = params[:, 0] - vs
            dt = params[:, 1] - vt
            A = np.stack([np.ones_like(ds), ds, dt], axis=1)
            sol, _, rank, _ = np.linalg.lstsq(A, pts, rcond=None)
            data = np.stack([sol[0], sol[1], sol[2], np.zeros(arity)], axis=1)
        elif fallback_field is not None:
            warnings.warn(
                f"not enough data points around vertex {vid}; keeping the "
                f"current surface there", stacklevel=2)
            data = fallback_field.lop(vs, vt)
        else:
            raise ValueError(f"no data points around vertex {vid}")
    block = collocation_block(space, vid)
    return block.solve(data).T  # (4, arity), row per slot


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
    coeffs = np.zeros((space.dim, 3))
    cell_index = pset.by_cell()
    for vid, fids in space.vertex_index.items():
        coeffs[list(fids)] = estimate_vertex_controls(space, vid, pset,
                                                      cell_index=cell_index)
    field = SplineField(space, coeffs)
    fit_time = time.perf_counter() - t0

    pending_new = 4 * len(space.vertex_index)
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
                if vid in new_space.vertex_index and vid not in stale:
                    if all(c in rrep.performed for c in old_mesh.vertex_cells(vid)):
                        stale.add(vid)
        cell_index = pset.by_cell()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for vid in sorted(stale):
                fids = new_space.vertex_index[vid]
                new_coeffs[list(fids)] = estimate_vertex_controls(
                    new_space, vid, pset, cell_index=cell_index,
                    fallback_field=field)
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
        pending_mod = sum(
            1 for i, f in enumerate(new_space.functions[:old_space.dim])
            if f is not old_space.functions[i])

    report.converged = bool(report.final.max_error <= tol)
    return field, report
