"""Surface fitting: models, control estimation, labels, adaptive loop."""

import gc
import random
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.spatial import cKDTree

from anisoline import bezier, fitting
from anisoline import space as space_module
from anisoline.fitting import (
    FitConfig, ParamPointSet, _curvatures, _field_errors,
    estimate_vertex_controls, fit_surface, generate_test_model, label_by_curvature,
)
from anisoline.refine import RefinementRequest, refine
from anisoline.solver import SolveConfig
from anisoline.space import (
    DERIV_ORDERS, HERMITE_ORDERS, SplineField, advance_level, build_initial_space,
    collocation_block,
)
from anisoline.tmesh import VertexKind, create_tensor_mesh
from oracles import cell_vertices, pieces, ring_expand, vertex_at


def test_generate_models():
    ps = generate_test_model("bernstein_sum", (101, 101))
    assert len(ps) == 10201
    # height vanishes along u = 0 (all Bernstein weights hit sin(0) or (1-u)^7 terms)
    left = ps.points[ps.params[:, 0] == 0]
    assert np.max(np.abs(left[:, 2])) < 1e-14

    ps = generate_test_model("paraboloid", (41, 41))
    mid = np.argmin(np.abs(ps.params[:, 0] - 0.5) + np.abs(ps.params[:, 1] - 0.5))
    assert ps.points[mid, 2] == pytest.approx(0.5, abs=1e-12)

    with pytest.raises(ValueError):
        generate_test_model("unknown")
    with pytest.raises(ValueError):
        generate_test_model("cone", (1, 5))


def test_point_set_validation():
    with pytest.raises(ValueError):
        ParamPointSet(np.zeros((0, 3)), np.zeros((0, 2)))
    with pytest.raises(ValueError):
        ParamPointSet(np.zeros((3, 3)), np.array([[0, 0], [2.0, 0], [0, 0]]))


@pytest.mark.parametrize("column", ["points", "params"])
def test_point_set_rejects_non_finite_rows(column):
    # a NaN coordinate would carry through the fit into NaN coefficients
    # and a NaN max error; a NaN parameter would fail only in point location
    ps = generate_test_model("cone", (21, 21))
    data = {"points": ps.points.copy(), "params": ps.params.copy()}
    data[column][[137, 300], -1] = [np.nan, np.inf]
    with pytest.raises(ValueError, match=r"row 137 is not finite: point \[.*\], parameters"):
        ParamPointSet(data["points"], data["params"])


def _by_cell(pset):
    """Cell id -> ascending indices of the points assigned to it."""
    order = np.argsort(pset.cell_of, kind="stable")
    ids, starts = np.unique(pset.cell_of[order], return_index=True)
    return {int(cid): idx for cid, idx in zip(ids, np.split(order, starts[1:]))}


# ----------------------------------------------------------------------
# The per-vertex estimator the batched `estimate_vertex_controls`
# replaced, kept as its reference: one vertex at a time, one lstsq per
# fit, one collocation block per vertex.

def _reference_estimate(space, vid, pset, max_rings=3, fallback_field=None):
    mesh = space.mesh
    vs, vt = mesh.vertex(vid).position_float()
    cells = set(mesh.vertex_cells(vid))
    arity = pset.points.shape[1]
    cell_index = _by_cell(pset)

    def points_in(cells):
        idx = [cell_index[c] for c in cells if c in cell_index]
        if not idx:
            return pset.params[:0], pset.points[:0]
        idx = np.concatenate(idx)
        return pset.params[idx], pset.points[idx]

    def lstsq(params, pts, ncols):
        ds = params[:, 0] - vs
        dt = params[:, 1] - vt
        A = np.stack([np.ones_like(ds), ds, dt, ds * ds, ds * dt, dt * dt], axis=1)
        sol, _, rank, _ = np.linalg.lstsq(A[:, :ncols], pts, rcond=None)
        return sol, rank

    params, pts = points_in(cells)
    rings = 0
    data = None
    while True:
        if len(pts) >= 6:
            sol, rank = lstsq(params, pts, 6)
            if rank == 6:
                data = np.stack([sol[0], sol[1], sol[2], sol[4]], axis=1)  # (arity, 4)
                break
        if rings >= max_rings:
            break
        bigger = ring_expand(mesh, cells)
        if bigger == cells:
            break
        cells = bigger
        rings += 1
        params, pts = points_in(cells)
    if data is None and len(pset) >= 6:
        idx = cKDTree(pset.params).query([vs, vt], k=min(18, len(pset)))[1]
        params, pts = pset.params[idx], pset.points[idx]
        sol, rank = lstsq(params, pts, 6)
        if rank == 6:
            data = np.stack([sol[0], sol[1], sol[2], sol[4]], axis=1)
    if data is None:
        if len(pts) >= 3:
            warnings.warn(
                f"quadratic fit around vertex {vid} is rank deficient; "
                f"falling back to a linear fit with zero twist", stacklevel=2)
            sol, _ = lstsq(params, pts, 3)
            data = np.stack([sol[0], sol[1], sol[2], np.zeros(arity)], axis=1)
        elif fallback_field is not None:
            warnings.warn(
                f"not enough data points around vertex {vid}; keeping the "
                f"current surface there", stacklevel=2)
            data = fallback_field.eval_many([vs], [vt], HERMITE_ORDERS)[:, 0].T
        else:
            raise ValueError(f"no data points around vertex {vid}")
    return collocation_block(space, vid).solve(data).T  # (4, arity), row per slot


def test_estimate_controls_plane_exact():
    mesh = create_tensor_mesh(2, 2)
    space = build_initial_space(mesh)
    rng = np.random.default_rng(0)
    params = rng.uniform(0, 1, size=(400, 2))
    pts = np.stack([params[:, 0], params[:, 1],
                    0.3 + 0.5 * params[:, 0] - 0.2 * params[:, 1]], axis=1)
    ps = ParamPointSet(pts, params)
    ps.assign_cells(mesh)
    coeffs = np.zeros((space.dim, 3))
    vids = space.vertices
    coeffs[np.arange(space.dim).reshape(-1, 4)] = estimate_vertex_controls(space, vids, ps)
    field = SplineField(space, coeffs)
    got = field.eval_many(params[:, 0], params[:, 1])[0]
    assert np.max(np.linalg.norm(got - pts, axis=1)) < 1e-10


def test_estimate_controls_quadratic_derivative():
    mesh = create_tensor_mesh(2, 2)
    space = build_initial_space(mesh)
    rng = np.random.default_rng(1)
    params = rng.uniform(0, 1, size=(500, 2))
    pts = np.stack([params[:, 0], params[:, 1], params[:, 0] ** 2], axis=1)
    ps = ParamPointSet(pts, params)
    ps.assign_cells(mesh)
    vid = vertex_at(mesh, 0.5, 0.5)
    controls, = estimate_vertex_controls(space, [vid], ps)
    # z-coordinate Hermite data at the vertex: S_s must equal 2 s_v
    block = collocation_block(space, vid)
    data = controls.T @ block.matrix    # (arity, 4)
    assert data[2, 1] == pytest.approx(1.0, abs=1e-8)   # d/ds s^2 at s=0.5
    assert data[2, 2] == pytest.approx(0.0, abs=1e-8)


def test_estimate_controls_linear_fallback_warns():
    mesh = create_tensor_mesh(1, 1)
    space = build_initial_space(mesh)
    # five points on a line in parameter space: quadratic fit is rank
    # deficient and no larger ring exists
    params = np.stack([np.linspace(0, 1, 5), np.full(5, 0.5)], axis=1)
    pts = np.stack([params[:, 0], params[:, 1], 1 + params[:, 0]], axis=1)
    ps = ParamPointSet(pts, params)
    ps.assign_cells(mesh)
    vid = vertex_at(mesh, 0, 0)
    with pytest.warns(UserWarning, match="rank deficient"):
        controls, = estimate_vertex_controls(space, [vid], ps)
    assert np.all(np.isfinite(controls))


def _point_set(rng, params):
    return ParamPointSet(rng.standard_normal((len(params), 3)), params)


def _oracle_case(name, rng):
    """(space, located point set, fallback field) exercising one tier."""
    fallback = None
    if name == "quadratic":
        space = build_initial_space(create_tensor_mesh(2, 2))
        pset = _point_set(rng, rng.uniform(0, 1, (400, 2)))
    elif name == "rings and nearest":
        # thin refined cells around sparse points
        space = _refined_space(3, (3, 2))
        pset = _point_set(rng, rng.uniform(0, 1, (40, 2)))
    elif name == "linear":
        space = build_initial_space(create_tensor_mesh(1, 1))
        pset = _point_set(rng, np.stack([np.linspace(0, 1, 5), np.full(5, 0.5)], axis=1))
    elif name == "rank rule":
        # 500 points within 3e-7 of the line t = 1/2: the smallest singular
        # value of A is 2.7e-14 of the largest, below lstsq's cut eps * 500
        # but above eps * 6
        space = build_initial_space(create_tensor_mesh(1, 1))
        params = np.stack([rng.uniform(0, 1, 500), 0.5 + 3e-7 * rng.uniform(-1, 1, 500)], axis=1)
        pset = _point_set(rng, params)
    elif name == "carry-over":
        # four points in one corner cell: too few for the nearest-points tier
        space = build_initial_space(create_tensor_mesh(4, 4))
        pset = _point_set(rng, rng.uniform(0, 0.2, (4, 2)))
        fallback = SplineField(space, rng.standard_normal((space.dim, 3)))
    elif name == "streamed":
        # each of the two cells holds over 4,096 of the 10,201 points
        space = build_initial_space(create_tensor_mesh(2, 1))
        pset = generate_test_model("cone", (101, 101))
    elif name == "windows":
        space = build_initial_space(create_tensor_mesh(20, 20))
        pset = _point_set(rng, rng.uniform(0, 1, (3000, 2)))
    elif name == "mixed":
        # a dense corner and sparse points elsewhere on a refined mesh:
        # cells of both sizes, neighborhoods of cells with and without points
        space = _refined_space(1, (3, 3))
        pset = _point_set(rng, np.concatenate([rng.uniform(0.05, 0.45, (500, 2)),
                                               rng.uniform(0, 1, (60, 2))]))
    pset.assign_cells(space.mesh)
    return space, pset, fallback


def _estimate_with_warnings(fn):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn()
    return out, [str(w.message) for w in caught]


@pytest.mark.parametrize("block", [None, 40, 20])
@pytest.mark.parametrize("name", ["quadratic", "rings and nearest", "linear", "rank rule",
                                  "carry-over", "streamed", "windows", "mixed"])
def test_estimates_match_per_vertex_reference(name, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(fitting, "_BLOCK", block)
    fits, streamed = [], []
    fit, stream = fitting._fit, fitting._streamed_r

    def spy_fit(pset, hoods, sel, centers, ncols):
        fits.append((type(hoods).__name__, ncols, len(sel)))
        return fit(pset, hoods, sel, centers, ncols)

    def spy_stream(pset, hoods, j, centers, ncols):
        streamed.append((type(hoods).__name__, hoods.rows([j])))
        return stream(pset, hoods, j, centers, ncols)

    monkeypatch.setattr(fitting, "_fit", spy_fit)
    monkeypatch.setattr(fitting, "_streamed_r", spy_stream)
    space, pset, fallback = _oracle_case(name, np.random.default_rng(11))
    vids = space.vertices
    got, got_warned = _estimate_with_warnings(
        lambda: estimate_vertex_controls(space, vids, pset, fallback_field=fallback))
    want, want_warned = _estimate_with_warnings(
        lambda: np.array([_reference_estimate(space, vid, pset, fallback_field=fallback)
                          for vid in vids]))
    assert got.shape == want.shape == (len(vids), 4, 3)
    assert _close(got, want)
    assert got_warned == want_warned
    # the case reaches the tier it is named for
    if name == "quadratic":
        assert fits[0] == ("_CellHoods", 6, len(vids)) and not got_warned
    elif name == "rings and nearest":
        assert fits[1][2] > 0 and ("_NearestHoods", 6, 4) in fits and not got_warned
    elif name == "linear":
        assert fits[-1][1:] == (3, 4) and all("rank deficient" in w for w in got_warned)
    elif name == "rank rule":
        # all four cell fits are cut to rank 5, so all go to the nearest points
        assert fits[0] == ("_CellHoods", 6, 4) and ("_NearestHoods", 6, 4) in fits
    elif name == "carry-over":
        assert sum("keeping the current surface" in w for w in got_warned) == 6
        assert sum("rank deficient" in w for w in got_warned) == 19
        with pytest.raises(ValueError) as err, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            estimate_vertex_controls(space, vids, pset)
        with pytest.raises(ValueError, match=f"^{err.value}$"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for vid in vids:
                _reference_estimate(space, vid, pset)
    elif name == "windows":
        assert len(vids) > fitting._WINDOW
    elif name == "mixed":
        mesh = space.mesh
        counts = np.bincount(pset.cell_of, minlength=len(mesh.cell_bounds()))
        hoods = [mesh.vertex_cells(vid) for vid in vids]
        cells = sorted({c for h in hoods for c in h})
        assert (counts[cells] <= 9).any() and (counts[cells] > 9).any()
        assert {int(np.count_nonzero(counts[h])) for h in hoods} >= {2, 3, 4}
        corners = {mesh.classify_vertex(v) for c in cells for v in cell_vertices(mesh, c)}
        assert {VertexKind.BOUNDARY, VertexKind.T_JUNCTION} <= corners
        assert fits[0][0] == fits[1][0] == "_CellHoods" and fits[1][2] > 0    # a ring
        assert not got_warned
    # every cell of more than _BLOCK points streams, once per call
    counts = np.bincount(pset.cell_of, minlength=len(space.mesh.cell_bounds()))
    asked = {c for vid in vids for c in space.mesh.vertex_cells(vid)}
    cells = [np.unique(pset.cell_of[rows]) for kind, rows in streamed if kind == "_PointHoods"]
    assert all(len(c) == 1 for c in cells)
    assert sorted(int(c[0]) for c in cells) == [c for c in sorted(asked)
                                                if counts[c] > fitting._BLOCK]
    if name == "streamed":
        assert len(cells) == 2
    if block is not None and name in ("quadratic", "mixed"):
        assert cells
    if block == 20 and name in ("quadratic", "windows", "mixed"):
        # a vertex's stacked factor rows stream past the block too
        assert any(kind == "_CellHoods" for kind, _ in streamed)


def test_each_point_gets_one_design_row_per_call(monkeypatch):
    # the nine level-0 vertices of the cone share its four cells, 10,201
    # points: each cell is reduced once for all of them
    pset = generate_test_model("cone", (101, 101))
    space = build_initial_space(create_tensor_mesh(2, 2))
    pset.assign_cells(space.mesh)
    built, design = [], fitting._design

    def spy(pset, rows, centers, ncols):
        built.append(np.asarray(rows))
        return design(pset, rows, centers, ncols)

    monkeypatch.setattr(fitting, "_design", spy)
    estimate_vertex_controls(space, space.vertices, pset)
    assert np.array_equal(np.sort(np.concatenate(built)), np.arange(len(pset)))


def test_stale_points_and_vertices_match_the_per_item_loops(monkeypatch):
    # the relocated points and the re-estimated vertices of every round
    # of a fit, against the loops they replaced; a bump refines the mesh
    # around it only, so some vertices of split cells keep their data
    rng = np.random.default_rng(2)
    params = rng.uniform(0, 1, (1500, 2))
    bump = np.exp(-40 * ((params[:, 0] - 0.3) ** 2 + (params[:, 1] - 0.3) ** 2))
    pset = ParamPointSet(np.column_stack([params, bump]), params)
    rounds, estimated = [], []
    real_refine, real_estimate = fitting.refine, fitting.estimate_vertex_controls

    def spy_refine(mesh, request):
        got = real_refine(mesh, request)
        rounds.append((got[1], pset.cell_of.copy()))
        return got

    def spy_estimate(space, vids, pset, max_rings=3, fallback_field=None):
        estimated.append((space, list(vids)))
        return real_estimate(space, vids, pset, max_rings, fallback_field)

    monkeypatch.setattr(fitting, "refine", spy_refine)
    monkeypatch.setattr(fitting, "estimate_vertex_controls", spy_estimate)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit_surface(pset, FitConfig(tolerance=1e-3, max_levels=3, initial_grid=(4, 4)))
    assert len(rounds) == 3 and len(estimated) == 4
    kept = False
    for (rrep, cell_of), (space, vids) in zip(rounds, estimated[1:]):
        moved = ParamPointSet(pset.points, pset.params)
        moved.cell_of = cell_of.copy()
        moved.update_cells(rrep)
        stale = np.nonzero(np.isin(cell_of, list(rrep.performed)))[0]
        want = cell_of.copy()
        want[stale] = rrep.mesh_after.locate_many(pset.params[stale, 0], pset.params[stale, 1])
        assert np.array_equal(moved.cell_of, want)
        old_mesh, expected = rrep.mesh_before, set(rrep.new_basis_vertices)
        for parent in rrep.performed:
            for vid in cell_vertices(old_mesh, parent):
                if vid in space.vertex_row and vid not in expected:
                    if all(c in rrep.performed for c in old_mesh.vertex_cells(vid)):
                        expected.add(vid)
        assert vids == sorted(expected)
        kept |= any(vid in space.vertex_row and vid not in expected
                    for parent in rrep.performed for vid in cell_vertices(old_mesh, parent))
    assert kept


def test_fit_counts_fallbacks_per_level(monkeypatch):
    # points on three lines t = 0.2, 0.5, 0.8: once cells are thinner than
    # the line spacing, the nearest points lie on at most two lines, where
    # the quadratic fit is rank deficient
    s = np.tile(np.linspace(0.01, 0.99, 20), 3)
    t = np.repeat([0.2, 0.5, 0.8], 20)
    pset = ParamPointSet(np.stack([s, t, np.sin(7 * s) * np.cos(3 * t)], axis=1),
                         np.stack([s, t], axis=1))
    expected = []
    batched = fitting.estimate_vertex_controls

    def counting(space, vids, pset, max_rings=3, fallback_field=None):
        _, warned = _estimate_with_warnings(
            lambda: [_reference_estimate(space, vid, pset, max_rings, fallback_field)
                     for vid in vids])
        expected.append(len(warned))
        return batched(space, vids, pset, max_rings, fallback_field)

    monkeypatch.setattr(fitting, "estimate_vertex_controls", counting)
    _, warned = _estimate_with_warnings(
        lambda: fit_surface(pset, FitConfig(tolerance=1e-4, max_levels=4)))
    got = {}
    for message in warned:
        m = re.fullmatch(r"level (\d+): (\d+) vertex estimates used a fallback \(thin data\)",
                         message)
        if m:
            got[int(m.group(1))] = int(m.group(2))
    # call 0 is the set-up, call k the estimate of level k
    assert got == {level: k for level, k in enumerate(expected) if level and k}
    assert got == {2: 28, 3: 14, 4: 19}


def test_max_cell_error_cases():
    mesh = create_tensor_mesh(2, 2)
    space = build_initial_space(mesh)
    params = np.array([[0.1, 0.1], [0.9, 0.9]])
    pts = np.array([[0.1, 0.1, 0.0], [0.9, 0.9, 2.0]])
    ps = ParamPointSet(pts, params)
    ps.assign_cells(mesh)
    field = SplineField(space, np.zeros((space.dim, 3)))
    # surface is the zero map: distances are the point norms
    c1 = mesh.locate_cell(0.1, 0.1)
    c2 = mesh.locate_cell(0.9, 0.9)
    empty = mesh.locate_cell(0.9, 0.1)
    err, cell_max = _field_errors(field, ps)
    assert err == pytest.approx(np.linalg.norm(pts, axis=1))
    assert cell_max[c1] == pytest.approx(np.linalg.norm(pts[0]))
    assert cell_max[c2] == pytest.approx(np.linalg.norm(pts[1]))
    assert empty not in cell_max            # `fit_surface` reads 0 there


def fit_exact_field(space, fn):
    """Interpolate an analytic surface through vertex Hermite data."""
    from anisoline.space import field_from_vertex_data
    eps = 1e-6
    data = {}
    for vid in space.mesh.basis_vertices():
        v = space.mesh.vertex(vid)
        s, t = float(v.s), float(v.t)
        # numerical Hermite data is fine here: only labels are tested
        f0 = fn(s, t)
        fs = (fn(min(s + eps, 1.0), t) - fn(max(s - eps, 0.0), t)) / (
            min(s + eps, 1.0) - max(s - eps, 0.0))
        ft = (fn(s, min(t + eps, 1.0)) - fn(s, max(t - eps, 0.0))) / (
            min(t + eps, 1.0) - max(t - eps, 0.0))
        fst = 0.0
        data[vid] = np.stack([np.array([f0[k], fs[k], ft[k], fst]) for k in range(3)])
    return field_from_vertex_data(space, data)


def test_labels_cylinder_sphere_plane():
    space = build_initial_space(create_tensor_mesh(3, 3))
    cells = space.mesh.active_cells()

    def cylinder(s, t):
        # curved along s, ruled along t
        return np.array([np.cos(2.0 * s), np.sin(2.0 * s), t])

    field = fit_exact_field(space, cylinder)
    labels = label_by_curvature(field, cells, delta=2.0)
    assert all(lab == "V" for lab in labels.values()), labels
    assert np.all(_curvatures(field, cells)[1] < 1e-6)

    # exact plane: exact Hermite data, curvatures vanish identically
    from anisoline.space import field_from_vertex_data
    data = {}
    for vid in space.mesh.basis_vertices():
        v = space.mesh.vertex(vid)
        s, t = float(v.s), float(v.t)
        data[vid] = np.array([
            [s, 1.0, 0.0, 0.0],
            [t, 0.0, 1.0, 0.0],
            [0.2 + 0.3 * s + 0.4 * t, 0.3, 0.4, 0.0]])
    field = field_from_vertex_data(space, data)
    labels = label_by_curvature(field, cells, delta=2.0)
    assert all(lab == "C" for lab in labels.values())

    def sphere_patch(s, t):
        # octant-ish patch: equal principal curvatures
        th = 0.3 + 0.9 * s
        ph = 0.3 + 0.9 * t
        return np.array([np.sin(ph) * np.cos(th), np.sin(ph) * np.sin(th), np.cos(ph)])

    field = fit_exact_field(space, sphere_patch)
    labels = label_by_curvature(field, cells, delta=2.0)
    mid = space.mesh.locate_cell(0.5, 0.5)
    assert labels[mid] == "C"
    (k_s,), (k_t,) = _curvatures(field, [mid])
    assert k_s / k_t == pytest.approx(1.0, rel=0.5)


def test_labels_scale_invariant():
    space = build_initial_space(create_tensor_mesh(2, 2))
    rng = np.random.default_rng(3)
    field = SplineField(space, rng.standard_normal((space.dim, 3)))
    cells = space.mesh.active_cells()
    labels1 = label_by_curvature(field, cells, delta=2.0)
    doubled = SplineField(space, 2.0 * field.coefficients)
    labels2 = label_by_curvature(doubled, cells, delta=2.0)
    assert labels1 == labels2


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(delta=0.5)


# Unchecked, a negative max_levels ends either loop in an AttributeError,
# a NaN tolerance or threshold stops it at level 0, a NaN delta labels
# every cell 'C', and a NaN lin_tol switches the solver's residual check off.
# A fractional or NaN max_levels fails in range(), a bad initial_grid
# only once fit_surface runs.  A mark_safety of 0 marks every cell with any
# error, and one above 1 leaves cells just over the tolerance unmarked.
# The initial_grid tuples get positional ids (value28 to value32), so they
# stay the last rows.
_VALID = {"tolerance": 0, "threshold": 0, "max_levels": 0, "delta": 1.5,
          "lin_tol": 0, "quadrature": 4, "initial_grid": (1, 3), "mark_safety": 1}


@pytest.mark.parametrize("config, field, value", [
    (config, field, value)
    for config, stop in ((FitConfig, "tolerance"), (SolveConfig, "threshold"))
    for field, value in ((stop, -1e-3), (stop, float("nan")), (stop, float("inf")),
                         ("max_levels", -1), ("max_levels", 1.5), ("max_levels", float("nan")),
                         ("delta", float("nan")), ("delta", 1.0))]
    + [(SolveConfig, field, value)
       for field, value in (("lin_tol", float("nan")), ("lin_tol", -1e-10),
                            ("lin_tol", float("inf")), ("quadrature", 4.5),
                            ("quadrature", 5.0), ("quadrature", 3),
                            ("quadrature", float("nan")))]
    + [(FitConfig, "mark_safety", value)
       for value in (0, -0.5, 1.5, float("inf"), float("nan"))]
    + [(FitConfig, "initial_grid", value)
       for value in ((2.5, 2), (2,), (0, 2), (2, float("nan")), (2, 2, 2), 4)])
def test_configs_reject_bad_values_by_name(config, field, value):
    with pytest.raises(ValueError, match=field):
        config(**{field: value})
    config(**{field: _VALID[field]})


def test_fit_reproduces_quadratic_surface():
    # a quadratic target is recovered exactly: the local quadratic fits
    # give exact Hermite data and collocation interpolates it uniquely
    # (a general bicubic is NOT recovered at level 0: the quadratic
    # estimator cannot see its cubic terms)
    rng = np.random.default_rng(4)
    params = rng.uniform(0, 1, size=(900, 2))
    s, t = params[:, 0], params[:, 1]
    pts = np.stack([0.2 + s - 0.3 * t + 0.5 * s * t,
                    t + 0.25 * s * s,
                    0.3 + 0.5 * s - 0.2 * t + 0.7 * s * s - 0.4 * s * t + 0.1 * t * t],
                   axis=1)
    ps = ParamPointSet(pts, params)
    field, report = fit_surface(ps, FitConfig(tolerance=1e-9, initial_grid=(2, 2)))
    assert report.converged
    assert report.final.level == 0
    assert report.final.max_error <= 1e-9 * ps.bbox_diagonal()


def test_fit_bicubic_target_converges_under_refinement():
    mesh = create_tensor_mesh(2, 2)
    space = build_initial_space(mesh)
    rng = np.random.default_rng(5)
    target = SplineField(space, rng.uniform(-1, 1, size=(space.dim, 3)))
    params = rng.uniform(0, 1, size=(4000, 2))
    pts = target.eval_many(params[:, 0], params[:, 1])[0]
    ps = ParamPointSet(pts, params)
    field, report = fit_surface(ps, FitConfig(tolerance=2e-3, initial_grid=(2, 2),
                                              max_levels=8))
    assert report.converged, [r.max_error for r in report.levels]


def test_fit_cone_small_anisotropic():
    ps = generate_test_model("cone", (41, 41))
    cfg = FitConfig(tolerance=0.001, initial_grid=(2, 2), max_levels=6)
    field, report = fit_surface(ps, cfg, strategy="modified")
    assert report.converged, [r.max_error for r in report.levels]
    assert report.check_dof_accounting()
    # ruling along t: splits should be dominated by 'V'
    v_count = sum(r.labels.get("V", 0) for r in report.levels)
    hc_count = sum(r.labels.get("H", 0) + r.labels.get("C", 0) for r in report.levels)
    assert v_count > hc_count


def test_fit_modified_beats_cross_on_cone():
    ps1 = generate_test_model("cone", (41, 41))
    ps2 = generate_test_model("cone", (41, 41))
    cfg = FitConfig(tolerance=0.001, initial_grid=(2, 2), max_levels=6)
    _, rep_mod = fit_surface(ps1, cfg, strategy="modified")
    _, rep_cross = fit_surface(ps2, cfg, strategy="cross_only")
    assert rep_mod.converged and rep_cross.converged
    assert rep_mod.final.dof <= rep_cross.final.dof


def test_fit_empty_cells_never_marked():
    rng = np.random.default_rng(5)
    params = rng.uniform(0, 0.45, size=(300, 2))  # data only in one corner
    pts = np.stack([params[:, 0], params[:, 1],
                    np.sin(6 * params[:, 0]) * np.sin(6 * params[:, 1])], axis=1)
    ps = ParamPointSet(pts, params)
    field, report = fit_surface(ps, FitConfig(tolerance=1e-4, initial_grid=(2, 2),
                                              max_levels=3))
    mesh = field.space.mesh
    ps.assign_cells(mesh)
    occupied = set(int(c) for c in ps.cell_of)
    for cid in mesh.active_cells():
        c = mesh.cell(cid)
        if c.level > 0:
            parent_chain_has_data = True  # refined cells must trace back to data
    # cells fully outside the data square stay at level 0
    for cid in mesh.active_cells():
        c = mesh.cell(cid)
        if float(c.s0) >= 0.5 or float(c.t0) >= 0.5:
            assert c.level == 0, c


# ----------------------------------------------------------------------
# The per-cell loops the batched evaluation kernel replaced, kept as
# reference implementations: one cell at a time, basis functions first,
# then the coefficients.

def _reference_eval_on_cell(field, cid, s, t, derivs):
    space = field.space
    c = space.mesh.cell(cid)
    w, h = float(c.width), float(c.height)
    u = (np.asarray(s, dtype=float) - float(c.s0)) / w
    v = (np.asarray(t, dtype=float) - float(c.t0)) / h
    _, fids, patches = pieces(space, [cid])
    fids = fids.tolist()
    vals = np.zeros((len(derivs), len(fids), u.size))
    if fids:
        for d, (a, b) in enumerate(derivs):
            bu = bezier.bernstein_row(u, a)
            bv = bezier.bernstein_row(v, b)
            vals[d] = np.einsum("fij,jn,in->fn", patches, bu, bv) / (w ** a * h ** b)
    cf = field.coefficients[list(fids)] if fids else np.zeros((0,) + field.coefficients.shape[1:])
    return np.einsum("dfn,f...->dn...", vals, cf)


def _reference_field_errors(field, pset):
    err = np.empty(len(pset))
    cell_max = {}
    for cid, idx in _by_cell(pset).items():
        got = _reference_eval_on_cell(field, cid, pset.params[idx, 0], pset.params[idx, 1],
                                      ((0, 0),))[0]
        err[idx] = np.linalg.norm(got - pset.points[idx], axis=1)
        cell_max[cid] = float(err[idx].max())
    return err, cell_max


def _reference_directional_curvatures(field, cid, u, v):
    d = _reference_eval_on_cell(field, cid, u, v, ((1, 0), (0, 1), (2, 0), (0, 2)))
    s1, t1, s2, t2 = d
    if field.arity is None:
        s1, t1, s2, t2 = (x[:, None] for x in (s1, t1, s2, t2))

    def curvature(first, second):
        if first.shape[1] == 1:
            num = np.abs(second[:, 0])
            den = (1.0 + first[:, 0] ** 2) ** 1.5
            speed = np.ones(len(first))
        elif first.shape[1] == 2:
            # the z component of the plane cross product
            num = np.abs(first[:, 0] * second[:, 1] - first[:, 1] * second[:, 0])
            speed = np.linalg.norm(first, axis=1)
            den = speed ** 3
        else:
            num = np.linalg.norm(np.cross(first, second), axis=1)
            speed = np.linalg.norm(first, axis=1)
            den = speed ** 3
        good = speed > 1e-12
        return num, den, good

    return curvature(s1, s2), curvature(t1, t2)


def _reference_label_by_curvature(field, cells, delta):
    # the 3 x 3 interior grid at ticks 1/4, 1/2, 3/4, u-major
    ticks = np.array([0.25, 0.5, 0.75])
    u, v = (g.ravel() for g in np.meshgrid(ticks, ticks, indexing="ij"))
    labels, curvatures = {}, {}
    for cid in cells:
        c = field.space.mesh.cell(cid)
        s = float(c.s0) + float(c.width) * u
        t = float(c.t0) + float(c.height) * v
        (num_s, den_s, ok_s), (num_t, den_t, ok_t) = \
            _reference_directional_curvatures(field, cid, s, t)
        k_s = float(np.mean(num_s[ok_s] / den_s[ok_s])) if ok_s.any() else 0.0
        k_t = float(np.mean(num_t[ok_t] / den_t[ok_t])) if ok_t.any() else 0.0
        tiny = 1e-12 * max(k_s, k_t, 1.0)
        if not ok_s.any() and not ok_t.any():
            label = "C"
        elif k_t <= tiny:
            label = "C" if k_s <= tiny else "V"
        elif k_s <= tiny:
            label = "H"
        else:
            rho = k_s / k_t
            label = "V" if rho > delta else ("H" if rho < 1.0 / delta else "C")
        labels[cid] = label
        curvatures[cid] = (k_s, k_t)
    return labels, curvatures


def _refined_space(seed, start, rounds=3):
    """A space after `rounds` random H/V/C refinement rounds."""
    rng = random.Random(seed)
    mesh = create_tensor_mesh(*start)
    space = build_initial_space(mesh)
    for level in range(rounds):
        cells = mesh.cells_of_level(level)
        marks = rng.sample(cells, rng.randint(1, min(6, len(cells))))
        mesh, report = refine(mesh, RefinementRequest({c: rng.choice("HVC") for c in marks}))
        space = advance_level(space, report)
    return space


def _close(got, want, rel=1e-12):
    """Agreement to `rel` of the largest reference magnitude."""
    return np.max(np.abs(got - want), initial=0.0) <= rel * max(np.max(np.abs(want)), 1e-300)


# (10, 10) holds more cells than one kernel block
_ORACLE_SPACES = [(0, (2, 2)), (3, (3, 2)), (5, (4, 4)), (7, (10, 10))]


@pytest.mark.parametrize("seed, start", _ORACLE_SPACES)
@pytest.mark.parametrize("arity", [None, 3])
def test_evaluation_matches_per_cell_reference(seed, start, arity):
    space = _refined_space(seed, start)
    rng = np.random.default_rng(seed)
    shape = (space.dim,) if arity is None else (space.dim, arity)
    field = SplineField(space, rng.standard_normal(shape))
    s, t = rng.uniform(0, 1, 2500), rng.uniform(0, 1, 2500)     # more than one chunk
    got = field.eval_many(s, t, DERIV_ORDERS)
    want = np.empty_like(got)
    cells = space.mesh.locate_many(s, t)
    for cid in set(cells.tolist()):
        idx = cells == cid
        want[:, idx] = _reference_eval_on_cell(field, cid, s[idx], t[idx], DERIV_ORDERS)
        assert _close(field.eval_on_cell(cid, s[idx], t[idx], DERIV_ORDERS), want[:, idx])
    assert _close(got, want)


@pytest.mark.parametrize("arity", [None, 3])
def test_located_evaluation_matches_per_cell_reference(arity):
    # points handed in with their cells, unsorted and repeated: one cell
    # holds more than a chunk of points, and more cells than one block
    # hold points; some points lie on their cell's closing edges
    space = _refined_space(7, (10, 10))
    rng = np.random.default_rng(11)
    shape = (space.dim,) if arity is None else (space.dim, arity)
    field = SplineField(space, rng.standard_normal(shape))
    active = np.array(space.mesh.active_cells())
    cells = np.concatenate([rng.choice(active, 3000),
                            np.full(space_module._CHUNK + 200, active[5])])
    rng.shuffle(cells)
    assert len(np.unique(cells)) > space_module._BLOCK
    s0, s1, t0, t1 = space.mesh.cell_bounds()[cells].T
    u, v = rng.uniform(0, 1, (2, len(cells)))
    u[:100], v[50:150] = 1.0, 0.0
    s, t = s0 + u * (s1 - s0), t0 + v * (t1 - t0)
    got = field.eval_located(cells, s, t, DERIV_ORDERS)
    want = np.empty_like(got)
    for cid in np.unique(cells).tolist():
        idx = cells == cid
        want[:, idx] = _reference_eval_on_cell(field, cid, s[idx], t[idx], DERIV_ORDERS)
    assert _close(got, want)
    assert field.eval_located([], [], [], DERIV_ORDERS).shape == (6, 0) + shape[1:]


def _point_sets(rng):
    params = rng.uniform(0, 1, (2500, 2))
    yield "spread", params
    # the upper half of the square holds no points
    yield "lower half", params * [1.0, 0.5]
    # every point in the cell at the origin
    yield "one cell", rng.uniform(0, 1e-3, (1500, 2))


@pytest.mark.parametrize("seed, start", _ORACLE_SPACES)
def test_field_errors_match_per_cell_reference(seed, start):
    space = _refined_space(seed, start)
    rng = np.random.default_rng(seed)
    field = SplineField(space, rng.standard_normal((space.dim, 3)))
    for name, params in _point_sets(rng):
        pset = ParamPointSet(rng.standard_normal((len(params), 3)), params)
        pset.assign_cells(space.mesh)
        err, cell_max = _field_errors(field, pset)
        err_ref, cell_max_ref = _reference_field_errors(field, pset)
        assert _close(err, err_ref), name
        assert list(cell_max) == sorted(cell_max_ref), name
        assert _close(np.array([cell_max[c] for c in cell_max_ref]),
                      np.array(list(cell_max_ref.values()))), name
        if name == "one cell":
            assert len(cell_max) == 1


def test_cell_order_follows_every_assignment():
    # the order is made for a 4 x 4 grid, then `cell_of` is assigned
    # directly for a refined mesh: errors and cell factors must read the
    # new cells
    space = _refined_space(5, (4, 4))
    coarse = build_initial_space(create_tensor_mesh(4, 4))
    rng = np.random.default_rng(5)
    params = rng.uniform(0, 1, (2000, 2))
    pset = ParamPointSet(rng.standard_normal((2000, 3)), params)
    pset.assign_cells(coarse.mesh)
    _field_errors(SplineField(coarse, rng.standard_normal((coarse.dim, 3))), pset)
    pset.cell_of = space.mesh.locate_many(params[:, 0], params[:, 1])
    field = SplineField(space, rng.standard_normal((space.dim, 3)))
    err, cell_max = _field_errors(field, pset)
    err_ref, cell_max_ref = _reference_field_errors(field, pset)
    assert _close(err, err_ref)
    assert list(cell_max) == sorted(cell_max_ref)
    assert _close(np.array([cell_max[c] for c in cell_max_ref]),
                  np.array(list(cell_max_ref.values())))
    factors = fitting._CellFactors(pset, space.mesh)
    assert np.array_equal(factors.counts,
                          np.bincount(pset.cell_of, minlength=len(space.mesh.cell_bounds())))
    for cid, idx in _by_cell(pset).items():
        assert np.array_equal(factors.points.rows([cid]), idx)


@pytest.mark.parametrize("seed, start", _ORACLE_SPACES[:3])
def test_relocation_matches_locate_many_on_cut_lines(seed, start):
    # per split cell, every point of the grid of its children's bounds
    # and centers: on the H, V and C cut lines, at their ends and
    # crossings and at the cell's corners, where the half-open rule decides
    rng = random.Random(seed)
    mesh = create_tensor_mesh(*start)
    kinds = set()
    for level in range(3):
        cells = mesh.cells_of_level(level)
        marks = rng.sample(cells, rng.randint(1, min(6, len(cells))))
        after, report = refine(mesh, RefinementRequest({c: rng.choice("HVC") for c in marks}))
        grids = []
        for _, kids in report.performed.values():
            b = after.cell_bounds()[list(kids)]
            s = np.unique(np.concatenate([b[:, :2].ravel(), b[:, :2].mean(axis=1)]))
            t = np.unique(np.concatenate([b[:, 2:].ravel(), b[:, 2:].mean(axis=1)]))
            grids.append(np.stack(np.meshgrid(s, t), axis=-1).reshape(-1, 2))
        params = np.concatenate(grids)
        pset = ParamPointSet(np.zeros((len(params), 3)), params)
        pset.assign_cells(mesh)
        before = pset.cell_of
        pset.update_cells(report)
        assert np.array_equal(pset.cell_of, after.locate_many(params[:, 0], params[:, 1]))
        assert (pset.cell_of != before).any()
        kinds |= {kind for kind, _ in report.performed.values()}
        mesh = after
    assert kinds == {"H", "V", "C"}


@pytest.mark.parametrize("seed, start", _ORACLE_SPACES)
@pytest.mark.parametrize("arity", [None, 2, 3])
def test_labels_match_per_cell_reference(seed, start, arity):
    space = _refined_space(seed, start)
    rng = np.random.default_rng(seed)
    shape = (space.dim,) if arity is None else (space.dim, arity)
    cells = space.mesh.active_cells()
    for scale in (1.0, 0.1):
        field = SplineField(space, scale * rng.standard_normal(shape))
        labels_ref, curv_ref = _reference_label_by_curvature(field, cells, 2.0)
        assert label_by_curvature(field, cells, 2.0) == labels_ref
        assert _close(np.stack(_curvatures(field, cells), axis=1),
                      np.array([curv_ref[c] for c in cells]))


def test_one_graph_has_one_curvature_in_every_branch():
    # one graph f(s, t) as the scalar field f, the plane field (s, f) and
    # the point field (s, t, f): the labeler's three branches (graph, plane
    # and space curves) see the same s-curves, and the scalar and point
    # fields the same t-curves
    from anisoline.space import field_from_vertex_data
    space = _refined_space(3, (3, 2))
    cells = space.mesh.active_cells()
    data = {}
    for vid in space.mesh.basis_vertices():
        v = space.mesh.vertex(vid)
        s, t = float(v.s), float(v.t)
        # f = sin(2s) cos(1.5t) + 0.3 st and its exact Hermite data
        f = (np.sin(2 * s) * np.cos(1.5 * t) + 0.3 * s * t,
             2 * np.cos(2 * s) * np.cos(1.5 * t) + 0.3 * t,
             -1.5 * np.sin(2 * s) * np.sin(1.5 * t) + 0.3 * s,
             -3 * np.cos(2 * s) * np.sin(1.5 * t) + 0.3)
        data[vid] = np.array([[s, 1.0, 0.0, 0.0], [t, 0.0, 1.0, 0.0], f])
    coefficients = field_from_vertex_data(space, data).coefficients
    (ks, kt), (ks_plane, _), (ks_point, kt_point) = (
        _curvatures(SplineField(space, coefficients[:, cols]), cells)
        for cols in (2, [0, 2], [0, 1, 2]))
    assert np.min(ks) > 0.1 and np.min(kt) > 0
    np.testing.assert_allclose(ks_plane, ks, rtol=1e-12)
    np.testing.assert_allclose(ks_point, ks, rtol=1e-12)
    np.testing.assert_allclose(kt_point, kt, rtol=1e-12)


@pytest.mark.parametrize("seed, start", _ORACLE_SPACES[:3])
def test_rings_match_the_per_cell_oracle(seed, start):
    mesh = _refined_space(seed, start).mesh
    split = [c for c in range(len(mesh.cell_bounds())) if not mesh.cell(c).active]
    assert {mesh.cell(c).label for c in split} == {"H", "V", "C"}
    rng = np.random.default_rng(seed)
    active = mesh.active_cells()
    sets = [sorted(rng.choice(active, rng.integers(1, 9), replace=False).tolist())
            for _ in range(40)]
    # the neighbors of the cells of the sets only, then of the whole mesh,
    # which grows no further
    for sets in (sets, [active]):
        cells = np.concatenate(sets)
        sizes, cells = fitting._ring(np.array([len(c) for c in sets]), cells,
                                     fitting._edge_neighbors(mesh, cells))
        got = np.split(cells, np.cumsum(sizes)[:-1])
        assert [c.tolist() for c in got] == [sorted(ring_expand(mesh, c)) for c in sets]
    assert got[0].tolist() == active


def _peak_mib(fn, *args, **kwargs):
    gc.collect()
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_errors_and_labels_memory_is_bounded_by_chunks():
    # 10,201 points and 256 cells after three rounds.  Chunked, the peaks
    # are 1.3 and 0.7 MiB; one batch over all points and cells takes 7.1
    # and 1.5 MiB.
    pset = generate_test_model("bernstein_sum", (101, 101))
    field, report = fit_surface(pset, FitConfig(tolerance=1e-3, max_levels=3))
    assert len(report.levels) == 4 and field.space.dim == 1156
    cells = field.space.mesh.active_cells()
    assert _peak_mib(_field_errors, field, pset) <= 3.0
    assert _peak_mib(label_by_curvature, field, cells, 2.0) <= 1.1
    # the final cone field: 64 cells of about 160 points each, all in one
    # block.  Chunked, the peak is 1.3 MiB; gathering the block's points
    # at once, not a chunk at a time, takes 6.3 MiB.
    pset = generate_test_model("cone", (101, 101))
    field, report = fit_surface(pset, FitConfig(tolerance=1e-3))
    assert report.converged and len(field.space.mesh.active_cells()) == 64
    pset.cell_of = pset.cell_of            # the cell order is made inside the call
    assert _peak_mib(_field_errors, field, pset) <= 2.0


def test_control_estimation_memory_is_bounded_by_blocks():
    # all nine level-0 vertices of the 101 x 101 cone: the center's cells
    # hold all 10,201 points.  Each cell reduced once, in QRs of at most
    # 4,096 rows, the peak is 0.63 MiB; each vertex's points streamed
    # through 4,096-row pieces it was 0.75 MiB, and one vertex at a time
    # with lstsq 1.4 MiB.
    pset = generate_test_model("cone", (101, 101))
    space = build_initial_space(create_tensor_mesh(2, 2))
    pset.assign_cells(space.mesh)
    assert _peak_mib(estimate_vertex_controls, space, space.vertices, pset) <= 1.0
