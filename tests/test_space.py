"""Spline space construction, modification, evaluation, verification."""

import copy
import gc
import json
import random
import re
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from anisoline import fitting
from anisoline import space as space_module
from anisoline.fitting import FitConfig, fit_surface, generate_test_model
from anisoline.refine import RefinementRequest, refine
from anisoline.space import (
    DERIV_ORDERS, HERMITE_ORDERS, SplineField, advance_level, build_initial_space, _births,
    collocation_block, field_from_vertex_data, transfer_field,
)
from anisoline.tmesh import TMesh, create_tensor_mesh
from oracles import (
    basis_data_at_vertex, cell_entries, from_supports, functions_on_cell, interior_edge_samples,
    naive_subdivide, space_from_json, space_from_json_dict, space_to_json, space_to_json_dict,
    supports, verify_space, vertex_at,
)
from test_bezier import _reference_split_patch, _reference_zero_corner_block
from test_pinned_outputs import RUNS as PINNED_RUNS


def make_space(seed=0, start=(2, 2), depth=0, max_marks=6):
    """Randomly refined space driven through the full pipeline."""
    rng = random.Random(seed)
    mesh = create_tensor_mesh(*start)
    space = build_initial_space(mesh)
    for level in range(depth):
        cells = mesh.cells_of_level(level)
        if not cells:
            break
        k = rng.randint(1, min(max_marks, len(cells)))
        labels = {c: rng.choice("HVC") for c in rng.sample(cells, k)}
        mesh, report = refine(mesh, RefinementRequest(labels))
        space = advance_level(space, report)
    return space


def test_single_cell_space_is_bernstein():
    space = build_initial_space(create_tensor_mesh(1, 1))
    assert space.dim == 16
    # the double-end-knot construction degenerates to the Bernstein basis:
    # each patch has exactly one unit ordinate
    seen = set()
    for support in supports(space):
        (patch,) = support.values()
        nz = np.argwhere(patch != 0)
        assert len(nz) == 1
        assert patch[tuple(nz[0])] == pytest.approx(1.0)
        seen.add(tuple(nz[0]))
    assert len(seen) == 16


def test_initial_space_counts_and_unity():
    space = build_initial_space(create_tensor_mesh(2, 2))
    assert space.dim == 36
    rng = np.random.default_rng(0)
    s, t = rng.uniform(0, 1, 100), rng.uniform(0, 1, 100)
    ones = SplineField(space, np.ones(space.dim))
    assert np.max(np.abs(ones.eval_many(s, t)[0] - 1)) < 1e-12


def test_initial_space_supports_are_incident_cells():
    mesh = create_tensor_mesh(3, 3)
    space = build_initial_space(mesh)
    for fid, support in enumerate(supports(space)):
        incident = set(mesh.vertex_cells(space.vertices[fid // 4]))
        assert set(support) == incident
        assert len(support) <= 4


def test_initial_space_rejects_refined_mesh():
    mesh = create_tensor_mesh(2, 2)
    mesh.split_cell(mesh.active_cells()[0], "C")
    with pytest.raises(ValueError):
        build_initial_space(mesh)


def test_noop_report_returns_same_space():
    mesh = create_tensor_mesh(2, 2)
    space = build_initial_space(mesh)
    _, report = refine(mesh, RefinementRequest({}))
    assert advance_level(space, report) is space


def test_round_without_new_basis_vertices_keeps_the_space():
    # an H split of the middle cell leaves T-junctions only: no vertex is born
    mesh = create_tensor_mesh(3, 3)
    space = build_initial_space(mesh)
    _, report = naive_subdivide(mesh, RefinementRequest({mesh.locate_cell(0.5, 0.5): "H"}))
    assert report.new_basis_vertices == [] and report.transition_count == 0
    out = advance_level(space, report)
    assert out.vertices == space.vertices and out.factors.shape == space.factors.shape
    assert verify_space(out, n_samples=200)["max_partition_error"] <= 1e-12


def test_one_cross_on_single_cell():
    mesh = create_tensor_mesh(1, 1)
    space = build_initial_space(mesh)
    mesh2, report = refine(mesh, RefinementRequest({mesh.active_cells()[0]: "C"}))
    space2 = advance_level(space, report)
    assert space2.dim == 36
    rng = np.random.default_rng(1)
    s, t = rng.uniform(0, 1, 400), rng.uniform(0, 1, 400)
    ones = SplineField(space2, np.ones(space2.dim))
    assert np.max(np.abs(ones.eval_many(s, t)[0] - 1)) < 1e-12
    # the 16 modified functions carry zero Hermite data at every new vertex
    for vid in report.new_basis_vertices:
        for fid in range(16):
            assert np.max(np.abs(basis_data_at_vertex(space2, fid, vid))) < 1e-13


def test_functions_away_from_marks_unchanged():
    mesh = create_tensor_mesh(3, 3)
    space = build_initial_space(mesh)
    corner_cell = mesh.locate_cell(0.1, 0.1)
    far_vertex = vertex_at(mesh, 1, 1)
    mesh2, report = refine(mesh, RefinementRequest({corner_cell: "C"}))
    space2 = advance_level(space, report)
    old, new = supports(space), supports(space2)
    k = space.vertex_row[far_vertex]
    for fid in range(4 * k, 4 * k + 4):
        assert old[fid].keys() == new[fid].keys()
        # untouched cells keep their runs, so the patches are the same memory
        assert all(_same_run(space2, space, cid) for cid in old[fid])


def _same_run(a, b, cid):
    """Cell `cid` reads the same run of the same buffer in spaces a and b."""
    buffer_a, buffer_b = a.buffers[a.index[0, cid]], b.buffers[b.index[0, cid]]
    return all(x is y for x, y in zip(buffer_a, buffer_b)) and \
        np.array_equal(a.index[1:, cid], b.index[1:, cid])


def test_evaluate_sparse_and_unity():
    space = make_space(seed=3, depth=2)
    rng = np.random.default_rng(2)
    for _ in range(80):
        s, t = rng.uniform(0, 1, 2)
        c = space.mesh.cell(space.mesh.locate_cell(s, t))
        u = (s - float(c.s0)) / float(c.width)
        v = (t - float(c.t0)) / float(c.height)
        fids, vals = space.basis_on_cell(c.id, [u], [v], DERIV_ORDERS)
        assert 1 <= len(fids) < space.dim
        assert vals.shape == (6, len(fids), 1)
        assert np.sum(vals[0]) == pytest.approx(1.0, abs=1e-12)
        assert np.sum(vals[1:], axis=1) == pytest.approx(0.0, abs=1e-9)


def test_no_module_evaluates_one_cell_at_a_time():
    # every evaluation in the package goes through the block kernel;
    # `basis_on_cell` is left to the tests as a per-cell reference
    package = Path(space_module.__file__).parent
    callers = [path.name for path in sorted(package.glob("*.py"))
               if ".basis_on_cell(" in path.read_text()]
    assert callers == []


def test_only_the_space_module_expands_pieces():
    # the solver reads the corner blocks through `SplineSpace.extraction`;
    # full 4x4 pieces are left to `basis_on_cell` and the oracles
    package = Path(space_module.__file__).parent
    callers = [path.name for path in sorted(package.glob("*.py"))
               if ".pieces(" in path.read_text()]
    assert callers == ["space.py"]


def test_initial_space_sixteen_per_cell():
    # on a tensor mesh every cell carries exactly its 4 corners x 4 slots
    space = build_initial_space(create_tensor_mesh(3, 2))
    for cid in space.mesh.active_cells():
        assert len(functions_on_cell(space, cid)) == 16


def test_transition_cell_keeps_coarse_functions():
    # a child bordering the unrefined region keeps the modified functions
    # anchored at old vertices that are not among its corners, while the
    # far corner's functions die because their residue sits entirely in
    # the zeroed new-vertex block
    mesh = create_tensor_mesh(2, 2)
    space = build_initial_space(mesh)
    mesh2, report = refine(mesh, RefinementRequest({mesh.locate_cell(0.25, 0.25): "C"}))
    space2 = advance_level(space, report)
    child = mesh2.locate_cell(0.3, 0.3)  # upper-right child of the split cell
    assert mesh2.cell(child).bounds_float() == (0.25, 0.5, 0.25, 0.5)
    fids = functions_on_cell(space2, child)
    assert len(fids) == 16
    anchors = {space2.vertices[f // 4] for f in fids}
    assert anchors == {vertex_at(mesh2, 0.5, 0), vertex_at(mesh2, 0, 0.5),
                       vertex_at(mesh2, 0.5, 0.5), vertex_at(mesh2, 0.25, 0.25)}
    ones = SplineField(space2, np.ones(space2.dim))
    assert ones.value(0.3, 0.3) == pytest.approx(1.0, abs=1e-12)


def test_evaluate_rejects_outside_domain():
    space = build_initial_space(create_tensor_mesh(2, 2))
    with pytest.raises(ValueError):
        SplineField(space, np.ones(space.dim)).eval_many([0.5, 1.5], [0.5, 0.5])


def test_lop_data_vanishes_for_non_anchored():
    space = make_space(seed=5, depth=2)
    mesh = space.mesh
    finest = max(mesh.vertex(v).level for v in mesh.basis_vertices())
    vids = [v for v in mesh.basis_vertices() if mesh.vertex(v).level == finest]
    for vid in vids:
        k = space.vertex_row[vid]
        anchored = set(range(4 * k, 4 * k + 4))
        cid = mesh.vertex_cells(vid)[0]
        for fid in functions_on_cell(space, cid):
            data = basis_data_at_vertex(space, fid, vid)
            if fid not in anchored:
                assert np.max(np.abs(data)) < 1e-12


def test_collocation_dual_path_oracle():
    """B(v) from stored Bezier data equals the knot-formula prediction."""
    mesh = create_tensor_mesh(2, 2)
    space = build_initial_space(mesh)
    center = vertex_at(mesh, 0.5, 0.5)
    block = collocation_block(space, center)
    # knot construction at a symmetric interior breakpoint, spacing 1/2:
    # variant 0: value wR/(wL+wR)=1/2, slope -3/(wL+wR)=-3; variant 1 mirrored
    pairs = [(0.5, -3.0), (0.5, 3.0)]
    want = np.empty((4, 4))
    for slot in range(4):
        (vs, ds), (vt, dt) = pairs[slot % 2], pairs[slot // 2]
        want[slot] = [vs * vt, ds * vt, vs * dt, ds * dt]
    assert np.allclose(block.matrix, want, atol=1e-12)


def test_collocation_scaling():
    small = build_initial_space(create_tensor_mesh(2, 2))
    big = build_initial_space(create_tensor_mesh(2, 2, (0, 2, 0, 2)))
    bs = collocation_block(small, vertex_at(small.mesh, 0.5, 0.5)).matrix
    bb = collocation_block(big, vertex_at(big.mesh, 1, 1)).matrix
    assert np.allclose(bb[:, 0], bs[:, 0], atol=1e-13)       # values unchanged
    assert np.allclose(bb[:, 1], bs[:, 1] / 2, atol=1e-13)   # d_s halves


def test_collocation_rejects_non_basis_vertex():
    mesh = create_tensor_mesh(2, 2)
    space = build_initial_space(mesh)
    mesh2, report = refine(mesh, RefinementRequest({mesh.locate_cell(0.25, 0.25): "C"}))
    space2 = advance_level(space, report)
    tv = vertex_at(mesh2, 0.5, 0.25)  # T-junction on the shared edge
    with pytest.raises(ValueError):
        collocation_block(space2, tv)


@pytest.mark.parametrize("seed,depth", [(0, 1), (1, 2), (2, 3), (7, 3)])
def test_verify_space_randomized(seed, depth):
    space = make_space(seed=seed, start=(2, 2), depth=depth)
    rep = verify_space(space, n_samples=1500, seed=seed)
    assert rep["dim_ok"], rep
    assert rep["max_partition_error"] <= 1e-10
    assert rep["min_value"] >= -1e-12
    assert rep["c1_max_jump"] <= 1e-9
    assert rep["hermite_roundtrip_error"] <= 1e-8


def _reference_interior_edge_samples(mesh, n_per_edge=3):
    """The all-pairs scan the edge-neighbor walk replaced."""
    act = mesh.active_cells()
    out = []
    ticks = np.linspace(0.15, 0.85, n_per_edge)
    for i, a in enumerate(act):
        ca = mesh.cell(a)
        for b in act[i + 1:]:
            cb = mesh.cell(b)
            if ca.s1 == cb.s0 or cb.s1 == ca.s0:
                lo, hi = max(ca.t0, cb.t0), min(ca.t1, cb.t1)
                if hi > lo:
                    s_edge = float(ca.s1 if ca.s1 == cb.s0 else cb.s1)
                    t = float(lo) + (float(hi) - float(lo)) * ticks
                    out.append((a, b, np.full_like(t, s_edge), t))
            if ca.t1 == cb.t0 or cb.t1 == ca.t0:
                lo, hi = max(ca.s0, cb.s0), min(ca.s1, cb.s1)
                if hi > lo:
                    t_edge = float(ca.t1 if ca.t1 == cb.t0 else cb.t1)
                    s = float(lo) + (float(hi) - float(lo)) * ticks
                    out.append((a, b, s, np.full_like(s, t_edge)))
    return out


@pytest.mark.parametrize("start", [(1, 1), (2, 2), (3, 2), (4, 4)])
def test_interior_edge_samples_match_all_pairs_scan(start):
    for seed in range(6):
        mesh = make_space(seed=seed, start=start, depth=3).mesh
        got = [(a, b, tuple(s), tuple(t)) for a, b, s, t in interior_edge_samples(mesh)]
        want = [(a, b, tuple(s), tuple(t))
                for a, b, s, t in _reference_interior_edge_samples(mesh)]
        assert len(set(got)) == len(got)
        assert set(got) == set(want)


def test_nonuniform_level0_space():
    mesh = TMesh([0, 0.5, 0.75, 1], [0, 0.25, 1])
    space = build_initial_space(mesh)
    rep = verify_space(space, n_samples=800, seed=3)
    assert rep["dim_ok"]
    assert rep["max_partition_error"] <= 1e-10
    assert rep["c1_max_jump"] <= 1e-9


def test_nested_space_reproduces_old_field():
    rng = np.random.default_rng(4)
    mesh = create_tensor_mesh(2, 2)
    space = build_initial_space(mesh)
    coeffs = rng.standard_normal(space.dim)
    field = SplineField(space, coeffs)
    random_pts = rng.uniform(0, 1, size=(200, 2))
    want = field.eval_many(random_pts[:, 0], random_pts[:, 1])[0]

    r = random.Random(9)
    for level in range(3):
        cells = mesh.cells_of_level(level)
        labels = {c: r.choice("HVC") for c in r.sample(cells, min(4, len(cells)))}
        mesh, report = refine(mesh, RefinementRequest(labels))
        new_space = advance_level(field.space, report)
        field = transfer_field(field, new_space)
        got = field.eval_many(random_pts[:, 0], random_pts[:, 1])[0]
        assert np.max(np.abs(got - want)) <= 1e-10


def test_field_from_vertex_data_reproduces_bicubic():
    # Hermite data of a global bicubic; collocation must reproduce it exactly
    space = make_space(seed=11, depth=2)

    def f(s, t):
        return (1 + 2 * s - t) * (s - 0.3) * (t + 0.2)  # bicubic in each variable

    import sympy
    ss, tt = sympy.symbols("s t")
    expr = (1 + 2 * ss - tt) * (ss - sympy.Rational(3, 10)) * (tt + sympy.Rational(1, 5))
    fs = sympy.lambdify((ss, tt), sympy.diff(expr, ss))
    ft = sympy.lambdify((ss, tt), sympy.diff(expr, tt))
    fst = sympy.lambdify((ss, tt), sympy.diff(expr, ss, tt))
    data = {}
    for vid in space.vertices:
        v = space.mesh.vertex(vid)
        s, t = float(v.s), float(v.t)
        data[vid] = np.array([f(s, t), fs(s, t), ft(s, t), fst(s, t)])
    field = field_from_vertex_data(space, data)
    rng = np.random.default_rng(5)
    s, t = rng.uniform(0, 1, 100), rng.uniform(0, 1, 100)
    got = field.eval_many(s, t)[0]
    want = np.array([f(a, b) for a, b in zip(s, t)])
    assert np.max(np.abs(got - want)) < 1e-10


def test_gram_matrix_full_rank_small_spaces():
    from numpy.polynomial.legendre import leggauss
    for seed in (0, 1):
        space = make_space(seed=seed, start=(2, 2), depth=1, max_marks=3)
        if space.dim > 200:
            continue
        x, w = leggauss(4)
        x = (x + 1) / 2
        w = w / 2
        G = np.zeros((space.dim, space.dim))
        for cid in space.mesh.active_cells():
            c = space.mesh.cell(cid)
            area = float(c.width) * float(c.height)
            uu, vv = np.meshgrid(x, x, indexing="ij")
            ww = np.outer(w, w).ravel()
            fids, vals = space.basis_on_cell(cid, uu.ravel(), vv.ravel())
            ids = np.array(fids)
            local = np.einsum("fn,gn,n->fg", vals[0], vals[0], ww) * area
            G[np.ix_(ids, ids)] += local
        sv = np.linalg.svd(G, compute_uv=False)
        assert sv[-1] > 1e-10 * sv[0]


def test_support_stays_local_and_connected():
    for seed in (1, 4, 6):
        space = make_space(seed=seed, depth=3)
        mesh = space.mesh
        for f, support in enumerate(supports(space)):
            v = mesh.vertex(space.vertices[f // 4])
            cells = [mesh.cell(c) for c in support]
            assert cells, f
            # birth neighborhood: cells of the anchor's level (the function's
            # birth level) whose closure contains the anchor (the full tree is
            # retained, so these records exist even after later subdivision)
            birth = [c for c in map(mesh.cell, range(len(mesh.cell_table().lattice)))
                     if c.level == v.level and c.s0 <= v.s <= c.s1 and c.t0 <= v.t <= c.t1]
            s_lo = min(c.s0 for c in birth)
            s_hi = max(c.s1 for c in birth)
            t_lo = min(c.t0 for c in birth)
            t_hi = max(c.t1 for c in birth)
            for c in cells:
                assert (s_lo <= c.s0 and c.s1 <= s_hi and
                        t_lo <= c.t0 and c.t1 <= t_hi), (f, c)
            # support is edge-connected
            ids = list(support)
            seen = {ids[0]}
            stack = [ids[0]]
            while stack:
                cur = mesh.cell(stack.pop())
                for other in ids:
                    if other in seen:
                        continue
                    o = mesh.cell(other)
                    share_v = (cur.s1 == o.s0 or o.s1 == cur.s0) and \
                        min(cur.t1, o.t1) > max(cur.t0, o.t0)
                    share_h = (cur.t1 == o.t0 or o.t1 == cur.t0) and \
                        min(cur.s1, o.s1) > max(cur.s0, o.s0)
                    if share_v or share_h:
                        seen.add(other)
                        stack.append(other)
            assert seen == set(ids), f


def test_vertices_cover_every_basis_vertex():
    space = make_space(seed=8, depth=3)
    assert sorted(space.vertices) == space.mesh.basis_vertices()
    assert space.dim == 4 * len(space.vertices)
    assert all(space.vertices[space.vertex_row[vid]] == vid for vid in space.vertices)


def test_space_json_roundtrip():
    space = make_space(seed=2, depth=2)
    text = space_to_json(space)
    back = space_from_json(text)
    assert back.dim == space.dim
    rng = np.random.default_rng(6)
    s, t = rng.uniform(0, 1, 50), rng.uniform(0, 1, 50)
    coeffs = rng.standard_normal(space.dim)
    a = SplineField(space, coeffs).eval_many(s, t)
    b = SplineField(back, coeffs).eval_many(s, t)
    assert np.allclose(a, b, atol=1e-14)


# a 2x2 mesh after one C split, written by the per-function store that the
# cell table replaced
_CROSS_FILE = Path(__file__).parent / "data" / "space_2x2_cross.json"


def test_per_function_file_loads_bitwise():
    mesh = create_tensor_mesh(2, 2)
    _, report = refine(mesh, RefinementRequest({mesh.locate_cell(0.25, 0.25): "C"}))
    built = advance_level(build_initial_space(mesh), report)
    text = _CROSS_FILE.read_text()
    loaded = space_from_json(text)
    assert json.loads(text) == space_to_json_dict(built)
    assert space_to_json_dict(loaded)["functions"] == space_to_json_dict(built)["functions"]
    assert loaded.mesh.to_json_dict() == json.loads(text)["mesh"]
    assert loaded.mesh.same_structure(built.mesh)
    rng = np.random.default_rng(8)
    s, t = rng.uniform(0, 1, 300), rng.uniform(0, 1, 300)
    coeffs = rng.standard_normal(built.dim)
    assert np.array_equal(SplineField(loaded, coeffs).eval_many(s, t, DERIV_ORDERS),
                          SplineField(built, coeffs).eval_many(s, t, DERIV_ORDERS))


def test_file_out_of_slot_order_is_refused():
    d = json.loads(_CROSS_FILE.read_text())
    fs = d["functions"]
    fs[4], fs[5] = fs[5], fs[4]
    with pytest.raises(ValueError, match=r"function 4 is slot 1 of vertex \d+, expected slot 0 "):
        space_from_json_dict(d)
    fs[4], fs[5] = fs[5], fs[4]
    twice = fs[4]["anchor"]
    fs.extend(copy.deepcopy(fs[4:8]))
    with pytest.raises(ValueError, match=f"basis vertex {twice} is listed twice"):
        space_from_json_dict(d)
    del fs[-5:]
    with pytest.raises(ValueError, match="47 functions for 12 basis vertices"):
        space_from_json_dict(d)


@pytest.mark.parametrize("start", ["2x2", "10x10", "non-uniform"])
def test_cell_table_invariants(start):
    steps, space = _random_rounds(start, seed=6)
    for s in [step[0] for step in steps] + [space]:
        mesh = s.mesh
        entries = cell_entries(s)
        assert set(entries) == set(mesh.active_cells())
        assert set(s.vertices) == set(mesh.basis_vertices())
        assert len(s.vertices) == len(set(s.vertices))
        for fids, patches in entries.values():
            assert np.all(np.diff(fids) > 0)        # ascending, so unique
            assert patches.shape == (len(fids), 4, 4)
        # each function of vertex k has a patch on every cell at its anchor
        for k, vid in enumerate(s.vertices):
            for cid in mesh.vertex_cells(vid):
                assert set(range(4 * k, 4 * k + 4)) <= set(entries[cid][0].tolist())
        # every buffer kept holds the run of an active cell, and the runs
        # of one buffer do not overlap
        buf, lo, hi = s.index[:, mesh.active_cells()]
        assert set(buf.tolist()) == set(range(len(s.buffers)))
        for b, (fids, codes, blocks) in enumerate(s.buffers):
            runs = np.sort(np.stack([lo[buf == b], hi[buf == b]], axis=1), axis=0)
            assert np.all(runs[1:, 0] >= runs[:-1, 1])
            assert runs[-1, 1] <= len(fids) == len(codes) == len(blocks)


def test_an_advance_keeps_only_the_buffers_active_cells_read():
    # every cell splits in every round, so a space keeps only the buffers
    # of its own round's chunks
    space = build_initial_space(create_tensor_mesh(4, 4))
    for level in range(3):
        mesh = space.mesh
        _, report = refine(mesh, RefinementRequest({c: "C" for c in mesh.cells_of_level(level)}))
        space = advance_level(space, report)
        assert len(space.buffers) == -(-len(report.performed) // space_module._SPLIT_CELLS)
        buf = space.index[0, space.mesh.active_cells()]
        assert set(buf.tolist()) == set(range(len(space.buffers)))


def test_vector_field_evaluation():
    space = build_initial_space(create_tensor_mesh(2, 2))
    rng = np.random.default_rng(7)
    field = SplineField(space, rng.standard_normal((space.dim, 3)))
    out = field.eval_many([0.3], [0.7], DERIV_ORDERS)
    assert out.shape == (6, 1, 3)
    hermite = field.eval_many([0.3], [0.7], HERMITE_ORDERS)
    assert hermite.shape == (4, 1, 3)


@pytest.mark.parametrize("arity", [None, 3])
def test_eval_many_keeps_the_parameter_shape(arity):
    space = build_initial_space(create_tensor_mesh(2, 2))
    rng = np.random.default_rng(7)
    tail = () if arity is None else (arity,)
    field = SplineField(space, rng.standard_normal((space.dim,) + tail))
    s, t = rng.uniform(0, 1, (2, 2, 3))
    got = field.eval_many(s, t, DERIV_ORDERS)
    assert got.shape == (6, 2, 3) + tail
    assert np.array_equal(got.reshape((6, 6) + tail),
                          field.eval_many(s.ravel(), t.ravel(), DERIV_ORDERS))
    assert field.eval_many(0.3, 0.7).shape == (1, 1) + tail


def test_located_evaluation_refuses_mismatched_sizes():
    space = build_initial_space(create_tensor_mesh(2, 2))
    field = SplineField(space, np.ones(space.dim))
    with pytest.raises(ValueError, match="1, 3 and 3"):
        field.eval_located([0], [0.1, 0.2, 0.3], [0.1, 0.2, 0.3])
    with pytest.raises(ValueError, match="2, 2 and 1"):
        field.eval_located([0, 1], [0.1, 0.6], [0.1])


# ----------------------------------------------------------------------
# oracles of the collocation table and of the batched level advance

def _reference_collocation_block(space, vid):
    """The patch-scanning block the collocation table replaced: corner
    data of the vertex's four functions, read from their patches."""
    if not space.mesh.is_basis_vertex(vid):
        raise ValueError(f"vertex {vid} is not a basis vertex")
    k = space.vertex_row[vid]
    return np.stack([basis_data_at_vertex(space, fid, vid) for fid in range(4 * k, 4 * k + 4)])


def _reference_ordinates_toward(val, der, w, anchor_at_low):
    if anchor_at_low:
        return np.array([val, val + der * w / 3.0, 0.0, 0.0])
    return np.array([0.0, 0.0, val - der * w / 3.0, val])


def _interior_pair(w_lo, w_hi):
    a = 1.0 / (w_lo + w_hi)
    return ((w_hi * a, -3.0 * a), (w_lo * a, 3.0 * a))


def _clamped_pair(w, at_low_end):
    # quadruple end knot: first function carries the value, second the slope
    if at_low_end:
        return ((1.0, -3.0 / w), (0.0, 3.0 / w))
    return ((1.0, 3.0 / w), (0.0, -3.0 / w))


def _new_vertex_neighborhood(mesh, vid):
    """The per-vertex mesh query the batched births replaced: the
    univariate (value, slope) pairs of a new basis vertex's s and t
    functions, and its incident cells as (cell id, width, anchor at the low
    s end, height, anchor at the low t end)."""
    v = mesh.vertex(vid)
    i, j = v.i, v.j
    cells = [mesh.cell(c) for c in mesh.vertex_cells(vid)]
    sizes = [c.size_float() for c in cells]
    for c in cells:
        if i not in (c.i0, c.i1) or j not in (c.j0, c.j1):
            raise AssertionError(f"vertex {vid} is not a corner of incident cell {c.id}")
    s_lo = sorted({w for c, (w, _) in zip(cells, sizes) if c.i1 == i})
    s_hi = sorted({w for c, (w, _) in zip(cells, sizes) if c.i0 == i})
    t_lo = sorted({h for c, (_, h) in zip(cells, sizes) if c.j1 == j})
    t_hi = sorted({h for c, (_, h) in zip(cells, sizes) if c.j0 == j})
    for widths, name in ((s_lo, "left"), (s_hi, "right"), (t_lo, "below"), (t_hi, "above")):
        if len(widths) > 1:
            raise AssertionError(
                f"cells {name} of new basis vertex {vid} do not form a tensor block")

    if s_lo and s_hi:
        s_pair = _interior_pair(s_lo[0], s_hi[0])
    elif s_hi:
        s_pair = _clamped_pair(s_hi[0], True)
    else:
        s_pair = _clamped_pair(s_lo[0], False)
    if t_lo and t_hi:
        t_pair = _interior_pair(t_lo[0], t_hi[0])
    elif t_hi:
        t_pair = _clamped_pair(t_hi[0], True)
    else:
        t_pair = _clamped_pair(t_lo[0], False)

    # anchor at the cell's low s end, low t end
    support_cells = [(c.id, w, c.i0 == i, h, c.j0 == j) for c, (w, h) in zip(cells, sizes)]
    return s_pair, t_pair, support_cells


def _reference_initial_hoods(mesh):
    """The knot-index level-0 construction the birth rule replaced: the
    vertices and, per vertex, what `_new_vertex_neighborhood` returns."""
    cells = [mesh.cell(c) for c in mesh.active_cells()]
    s_knots = sorted({c.i0 for c in cells} | {c.i1 for c in cells})
    t_knots = sorted({c.j0 for c in cells} | {c.j1 for c in cells})
    s_index = {x: k for k, x in enumerate(s_knots)}
    t_index = {x: k for k, x in enumerate(t_knots)}
    grid = {(s_index[c.i0], t_index[c.j0]): c.id for c in cells}

    def direction_data(axis, knots, k):
        n = len(knots) - 1
        if k == 0:
            w = axis.length(knots[0], knots[1])
            return _clamped_pair(w, True), [(0, w, True)]
        if k == n:
            w = axis.length(knots[n - 1], knots[n])
            return _clamped_pair(w, False), [(n - 1, w, False)]
        w_lo = axis.length(knots[k - 1], knots[k])
        w_hi = axis.length(knots[k], knots[k + 1])
        return _interior_pair(w_lo, w_hi), [(k - 1, w_lo, False), (k, w_hi, True)]

    s_axis, t_axis = mesh.axes
    anchors = sorted(mesh.vertices())
    hoods = []
    for vid in anchors:
        v = mesh.vertex(vid)
        s_pair, s_cells = direction_data(s_axis, s_knots, s_index[v.i])
        t_pair, t_cells = direction_data(t_axis, t_knots, t_index[v.j])
        hoods.append((s_pair, t_pair, [(grid[(si, tj)], sw, s_low, th, t_low)
                                       for (tj, th, t_low) in t_cells
                                       for (si, sw, s_low) in s_cells]))
    return anchors, hoods


def _reference_vertex_functions(pieces, first, hoods):
    """Add to pieces ({cell id: {function id: patch}}) the four functions
    of each vertex of `hoods`, ids from `first` on, one outer product per
    function and cell."""
    for k, (s_pair, t_pair, cells) in enumerate(hoods):
        for slot in range(4):
            (val_s, der_s), (val_t, der_t) = s_pair[slot % 2], t_pair[slot // 2]
            for cid, sw, s_low, th, t_low in cells:
                pieces[cid][first + 4 * k + slot] = np.outer(
                    _reference_ordinates_toward(val_t, der_t, th, t_low),
                    _reference_ordinates_toward(val_s, der_s, sw, s_low))


def _stacked(pieces):
    """Cell-table entries of pieces ({cell id: {function id: patch}}),
    freeing each cell's pieces as its entry is stacked."""
    cells = {}
    for cid in list(pieces):
        on_kid = pieces.pop(cid)
        fids = sorted(on_kid)
        cells[cid] = (np.array(fids, dtype=np.intp),
                      np.array([on_kid[f] for f in fids]).reshape(-1, 4, 4))
    return cells


def _reference_advance_level(space, report, entries):
    """The per-patch level advance the batched one replaced, on the
    space's per-cell entries (`oracles.cell_entries`): the vertices and
    entries of the advanced space, and the set of ids of the old functions
    it touched."""
    mesh = report.mesh_after
    split_info = report.performed
    born = sorted(report.new_basis_vertices)
    pieces = {}             # child cell id -> {function id: patch}
    for cid, (kind, kids) in split_info.items():
        for kid in kids:
            pieces[kid] = {}
        fids, patches = entries[cid]
        for fid, patch in zip(fids.tolist(), patches):
            for kid, piece in zip(kids, _reference_split_patch(patch, kind)):
                pieces[kid][fid] = piece
    touched = {fid for on_kid in pieces.values() for fid in on_kid}
    for vid in born:
        v = mesh.vertex(vid)
        for cid in mesh.vertex_cells(vid):      # a new vertex touches children only
            c = mesh.cell(cid)
            corner = (0 if v.s == c.s0 else 1, 0 if v.t == c.t0 else 1)
            on_kid = pieces[cid]
            for fid, patch in on_kid.items():
                on_kid[fid] = _reference_zero_corner_block(patch, corner)
    for on_kid in pieces.values():
        for fid in [fid for fid, patch in on_kid.items() if not patch.any()]:
            del on_kid[fid]
    _reference_vertex_functions(pieces, space.dim,
                                (_new_vertex_neighborhood(mesh, vid) for vid in born))
    cells = {cid: entry for cid, entry in entries.items() if cid not in split_info}
    cells.update(_stacked(pieces))
    return space.vertices + born, cells, touched


_STARTS = {
    "2x2": lambda: create_tensor_mesh(2, 2),
    "3x2": lambda: create_tensor_mesh(3, 2),
    "4x4": lambda: create_tensor_mesh(4, 4),
    "10x10": lambda: create_tensor_mesh(10, 10),
    "non-uniform": lambda: TMesh([0, 0.1, 0.35, 0.5, 0.9, 1], [0, 0.3, 0.45, 1]),
}


def _random_rounds(start, seed, rounds=3, share=0.6):
    """(space, report) of each of `rounds` random H/V/C rounds, each
    marking `share` of the current level's cells."""
    rng = random.Random(seed)
    mesh = _STARTS[start]()
    space = build_initial_space(mesh)
    out = []
    for level in range(rounds):
        cells = mesh.cells_of_level(level)
        labels = {c: rng.choice("HVC") for c in rng.sample(cells, max(1, int(share * len(cells))))}
        mesh, report = refine(mesh, RefinementRequest(labels))
        out.append((space, report))
        space = advance_level(space, report)
    return out, space


def _assert_blocks_close(got, want):
    """Blocks agree to 1e-12 relative, each data column (f, f_s, f_t,
    f_st) on its own scale."""
    scale = np.abs(want).max(axis=0)
    assert np.all(np.abs(got - want) <= 1e-12 * scale), (got, want)


@pytest.mark.parametrize("start", list(_STARTS))
def test_advance_level_matches_per_patch_reference(start):
    crossed = False
    for seed in range(3):
        steps, _ = _random_rounds(start, seed)
        for space, report in steps:
            got = advance_level(space, report)
            vertices, want, touched = _reference_advance_level(space, report, cell_entries(space))
            assert got.vertices == vertices
            entries = cell_entries(got)
            assert entries.keys() == want.keys()
            for cid, (fids, patches) in want.items():
                assert entries[cid][0].tolist() == fids.tolist(), cid
                assert np.max(np.abs(entries[cid][1] - patches), initial=0.0) <= 1e-13
                if cid < space.index.shape[1]:
                    # an unsplit cell keeps its run, the same memory
                    assert _same_run(got, space, cid)
            assert space.functions_on_cells(report.performed) == touched
            for vid in got.vertices:
                _assert_blocks_close(collocation_block(got, vid).matrix,
                                     _reference_collocation_block(got, vid))
            crossed |= max(sum(k == kind for k, _ in report.performed.values())
                           for kind in "HVC") > space_module._SPLIT_CELLS
    if start == "10x10":
        assert crossed, "no round split more than one chunk of cells"


def _assert_births_match(births, hoods):
    """`_births`' factors are bitwise those of the per-vertex references
    `hoods`, and its incidence table, sorted by cell and then vertex,
    names the same support cells with the same extents and sides."""
    factors, (rows, cids, corner, sizes) = births
    want = np.array([h[:2] for h in hoods], dtype=float).reshape(-1, 2, 2, 2)
    assert factors.shape == want.shape and factors.tobytes() == want.tobytes()
    assert np.array_equal(np.lexsort((rows, cids)), np.arange(len(rows)))
    cells = [[] for _ in hoods]
    for r, cid, k, (w, h) in zip(rows.tolist(), cids.tolist(), corner.tolist(), sizes.tolist()):
        cells[r].append((cid, w, k & 1 == 0, h, k < 2))
    assert cells == [sorted(h[2]) for h in hoods]


@pytest.mark.parametrize("start", list(_STARTS))
def test_births_match_per_vertex_references(start):
    mesh = _STARTS[start]()
    anchors, hoods = _reference_initial_hoods(mesh)
    _assert_births_match(_births(mesh, mesh.active_cells(), anchors), hoods)
    built = build_initial_space(mesh)
    pieces = {cid: {} for cid in mesh.active_cells()}
    _reference_vertex_functions(pieces, 0, hoods)
    assert built.vertices == anchors
    assert built.factors.tobytes() == np.array([h[:2] for h in hoods]).tobytes()
    want, entries = _stacked(pieces), cell_entries(built)
    assert entries.keys() == want.keys()
    for cid, (fids, patches) in want.items():
        # bitwise but for the sign of zero ordinates, which blocks do not keep
        nonzero = patches != 0
        assert np.array_equal(entries[cid][0], fids)
        assert np.array_equal(entries[cid][1], patches)
        assert entries[cid][1][nonzero].tobytes() == patches[nonzero].tobytes()
    for seed in range(3):
        steps, _ = _random_rounds(start, seed)
        for space, report in steps:
            mesh = report.mesh_after
            born = report.new_basis_vertices
            kids = [kid for _, ks in report.performed.values() for kid in ks]
            hoods = [_new_vertex_neighborhood(mesh, vid) for vid in born]
            _assert_births_match(_births(mesh, kids, born), hoods)
            factors = advance_level(space, report).factors[len(space.vertices):]
            assert factors.tobytes() == np.array([h[:2] for h in hoods]).tobytes()


def test_births_name_a_vertex_off_the_rule():
    mesh = create_tensor_mesh(2, 2)
    center = vertex_at(mesh, Fraction(1, 2), Fraction(1, 2))
    mesh.split_cell(mesh.locate_cell(0.25, 0.25), "V")
    cells = mesh.active_cells()
    # left of the center, the cell below is half as wide as the one above
    with pytest.raises(AssertionError, match=f"around new basis vertex {center} do not form "
                                             f"a tensor block"):
        _births(mesh, cells, [center])
    below_left = mesh.locate_cell(0.4, 0.25)
    with pytest.raises(AssertionError, match=f"vertex {center} is a corner of 3 cells, expected 4"):
        _births(mesh, [c for c in cells if c != below_left], [center])
    corner, edge = vertex_at(mesh, 0, 1), vertex_at(mesh, 0, Fraction(1, 2))
    with pytest.raises(AssertionError, match=f"vertex {edge} is a corner of 1 cells, expected 2"):
        _births(mesh, [mesh.locate_cell(0.25, 0.75)], sorted([corner, edge]))


@pytest.mark.parametrize("start", list(_STARTS))
def test_stored_blocks_match_patch_scan(start):
    for seed in range(3):
        steps, space = _random_rounds(start, seed)
        for s in [step[0] for step in steps] + [space]:
            for vid in s.vertices:
                block = collocation_block(s, vid)
                want = _reference_collocation_block(s, vid)
                _assert_blocks_close(block.matrix, want)
                assert np.allclose(block.inverse @ want, np.eye(4), atol=1e-10)


@pytest.mark.parametrize("start", list(_STARTS))
def test_rebuilt_tables_match_the_source_space(start):
    # a JSON load and a hand-built permuted space fill the table from patches
    _, space = _random_rounds(start, seed=4)
    back = space_from_json(space_to_json(space))
    permuted, order = permuted_space(space, seed=5)
    for vid in space.vertices:
        want = collocation_block(space, vid).matrix
        _assert_blocks_close(collocation_block(back, vid).matrix, want)
        _assert_blocks_close(collocation_block(permuted, vid).matrix, want)
    data = {vid: np.random.default_rng(vid).standard_normal(4) for vid in space.vertices}
    want = field_from_vertex_data(space, data).coefficients
    assert np.allclose(field_from_vertex_data(permuted, data).coefficients, want[order],
                       rtol=1e-12, atol=1e-12 * np.abs(want).max())


def permuted_space(space, seed):
    """`space` rebuilt with its basis vertices in a random order, and the
    old id of each new function id."""
    rows = np.random.default_rng(seed).permutation(len(space.vertices))
    order = (4 * rows[:, None] + np.arange(4)).ravel()
    patches = supports(space)
    permuted = from_supports(space.mesh, [space.vertices[k] for k in rows],
                             [patches[f] for f in order])
    return permuted, order


def _hand_built(space, vid, edit):
    """A copy of `space` whose functions at `vid` have the patches
    edit(their patches), four {cell id: patch} in slot order."""
    patches = supports(space)
    k = space.vertex_row[vid]
    fids = range(4 * k, 4 * k + 4)
    for f, support in zip(fids, edit([patches[f] for f in fids])):
        patches[f] = support
    return from_supports(space.mesh, space.vertices, patches)


def test_singular_collocation_block_names_the_vertex():
    space = build_initial_space(create_tensor_mesh(2, 2))
    center = vertex_at(space.mesh, 0.5, 0.5)
    # slots 1 and 3 repeat slots 0 and 2: the block is kron(T, S) with a singular S
    broken = _hand_built(space, center, lambda fs: [fs[0], fs[0], fs[2], fs[2]])
    match = f"singular collocation block at vertex {center}"
    with pytest.raises(RuntimeError, match=match):
        collocation_block(broken, center)
    with pytest.raises(RuntimeError, match=match):
        field_from_vertex_data(broken, {vid: np.ones(4) for vid in broken.vertices})


def test_non_tensor_collocation_data_is_refused():
    space = build_initial_space(create_tensor_mesh(2, 2))
    center = vertex_at(space.mesh, 0.5, 0.5)
    # the collocation table is read from the patches as the space is built
    with pytest.raises(ValueError, match=f"vertex {center} is not a tensor product"):
        _hand_built(space, center, lambda fs: fs[:3] + [{c: 2 * p for c, p in fs[3].items()}])


def _peak_bytes(fn, *args):
    gc.collect()
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_advance_level_memory_stays_near_reference():
    # Splitting a whole round in one batch would hold every child patch
    # twice; chunks keep the peak at the per-patch advance's.
    steps, _ = _random_rounds("10x10", seed=0)
    for space, report in steps:
        want = _peak_bytes(_reference_advance_level, space, report, cell_entries(space))
        got = _peak_bytes(advance_level, space, report)
        assert got <= 1.10 * want, (got, want)


@pytest.fixture(scope="module")
def deep_fit_last_round():
    """(space, report) of the fourth and last round of a 101 x 101
    bernstein_sum fit, which splits all 256 cells of level 3."""
    rounds = []

    def recorded(space, report):
        rounds.append((space, report))
        return advance_level(space, report)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fitting, "advance_level", recorded)
        fit_surface(generate_test_model("bernstein_sum", (101, 101)),
                    FitConfig(tolerance=1e-3, max_levels=4))
    assert len(rounds) == 4 and len(rounds[-1][1].performed) == 256
    return rounds[-1]


def test_last_advance_of_a_deep_fit_peaks_near_what_it_keeps(deep_fit_last_round):
    # Merged per chunk of 24 cells, the advance's peak growth is 1.20
    # times the growth it leaves behind (its new buffers and index; 1.10
    # at 8 cells, 1.18 at 16, 1.33 at 32); with full patches in the
    # buffers it was 1.20 at 16 cells, and split pieces copied per child
    # and then joined per cell to a round-wide batch of newborn
    # functions, 1.80.
    space, report = deep_fit_last_round
    gc.collect()
    tracemalloc.start()
    try:
        kept = advance_level(space, report)
        grown, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept.dim > space.dim
    assert peak <= 1.3 * grown, (peak, grown)


def test_a_deep_fit_space_keeps_few_bytes_per_piece(deep_fit_last_round):
    # A full piece is a function id and a 4x4 patch, 8 + 128 bytes.  The
    # buffers hold a piece's nonzero corner blocks, almost always one, each
    # with its id and corner: 0.30 of that here, and 0.31 on the active
    # runs of the final five-level space of the benchmark's fit (2.59 MB
    # for 62,128 pieces).
    kept = advance_level(*deep_fit_last_round)
    pieces = len(kept.functions(kept.mesh.active_cells())[1])
    stored = sum(a.nbytes for arrays in kept.buffers for a in arrays)
    assert stored <= 0.4 * (8 + 128) * pieces, (stored, pieces)


def _assert_collocation_structure(space):
    """Every piece has a nonzero 2x2 corner block; at a cell corner that
    is basis vertex k the functions with a nonzero block are exactly
    4k .. 4k + 3, so other functions' blocks lie at non-basis corners
    only."""
    active = space.mesh.active_cells()
    counts, fids, patches = space.pieces(active)
    # (piece, ct, i, cs, j) -> nonzero block per corner cs + 2 ct
    nonzero = patches.reshape(-1, 2, 2, 2, 2).any(axis=(2, 4)).reshape(-1, 4)
    assert nonzero.any(axis=1).all()
    rows = np.full(len(space.mesh.vertex_table()), -1)
    rows[space.vertices] = np.arange(len(space.vertices))
    corner_rows = rows[space.mesh.cell_table().corners[active]]          # -1 off the basis
    owner = np.repeat(np.arange(len(active)), counts)
    own = fids[:, None] // 4 == corner_rows[owner]
    assert not (nonzero & (corner_rows[owner] >= 0) & ~own).any()
    assert nonzero[own].all()
    per_corner = np.zeros(corner_rows.shape, dtype=np.intp)
    np.add.at(per_corner, owner, own)
    assert np.array_equal(per_corner, 4 * (corner_rows >= 0))


@pytest.mark.parametrize("start", ["2x2", "10x10"])
def test_pieces_hold_the_collocation_structure(start):
    for seed in range(3):
        steps, space = _random_rounds(start, seed)
        for s in [step[0] for step in steps] + [space]:
            _assert_collocation_structure(s)


def _assert_whole_vertex_groups(space):
    """Every active cell's function ids come in whole vertex groups 4k ..
    4k + 3, which `SplineSpace.extraction` and the assembly rest on."""
    active = space.mesh.active_cells()
    per, ids = space.functions(active)
    for cid, got in zip(active, np.split(ids, np.cumsum(per)[:-1])):
        groups = np.unique(got // 4)
        assert got.tolist() == (4 * groups[:, None] + np.arange(4)).ravel().tolist(), cid


@pytest.mark.parametrize("start", list(_STARTS))
def test_cells_carry_whole_vertex_groups(start):
    for seed in range(3):
        steps, space = _random_rounds(start, seed)
        for s in [step[0] for step in steps] + [space]:
            _assert_whole_vertex_groups(s)


@pytest.mark.parametrize("run", ["cone_101", "bernstein_sum_101", "lshape_benchmark",
                                 "square_sin_24"])
def test_benchmark_spaces_carry_whole_vertex_groups(run):
    # the final spaces of the benchmark's four workloads
    _assert_whole_vertex_groups(PINNED_RUNS[run]("modified")[0].space)


def test_a_fit_space_holds_the_collocation_structure():
    field, _ = fit_surface(generate_test_model("bernstein_sum", (41, 41)),
                           FitConfig(tolerance=1e-3, max_levels=3))
    assert field.space.mesh.current_level == 3
    _assert_collocation_structure(field.space)


def test_only_the_space_module_reads_the_piece_table():
    # the layout of the piece table stays behind `pieces`, `functions`,
    # the contraction and the advance
    package = Path(space_module.__file__).parent
    readers = [path.name for path in sorted(package.glob("*.py"))
               if re.search(r"\.(buffers|index)\b(?!\s*\()", path.read_text())]
    assert readers == ["space.py"]


# Functions on the refinement and level-advance paths whose coordinate work
# runs on lattice ints; none of them may compare, hash or compute with a
# Fraction.
_LATTICE_ONLY = ("split_cell", "split_many", "classify_vertex", "_build_report", "_births")
_FRACTION_OPS = ("_richcmp", "__eq__", "__hash__", "__add__", "__radd__", "__sub__",
                 "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__")


def test_refinement_and_advance_do_no_fraction_work(monkeypatch):
    calls = Counter()

    def counted(op, fn):
        def wrapper(*args, **kw):
            calls["any", op] += 1
            frame = sys._getframe(1)
            while frame is not None:
                if frame.f_code.co_name in _LATTICE_ONLY and \
                        frame.f_globals["__name__"].startswith("anisoline."):
                    calls[frame.f_code.co_name, op] += 1
                    break
                frame = frame.f_back
            return fn(*args, **kw)
        return wrapper

    for op in _FRACTION_OPS:
        monkeypatch.setattr(Fraction, op, counted(op, getattr(Fraction, op)))
    # the counters see Fraction work done anywhere
    assert Fraction(1, 3) + 1 > Fraction(1, 2) and hash(Fraction(1, 3))
    assert {op for _, op in calls} >= {"_richcmp", "__hash__", "__add__"}
    steps, space = _random_rounds("10x10", seed=4)
    kinds = {kind for _, report in steps for kind, _ in report.performed.values()}
    assert kinds == set("HVC") and space.mesh.current_level == 3
    assert {key: n for key, n in calls.items() if key[0] != "any"} == {}
