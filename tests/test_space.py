"""Spline space construction, modification, evaluation, verification."""

import copy
import gc
import json
import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from anisoline import space as space_module
from anisoline.refine import RefinementRequest, refine
from anisoline.space import (
    DERIV_ORDERS, HERMITE_ORDERS, SplineField, SplineSpace, advance_level,
    build_initial_space, _interior_edge_samples, _new_vertex_neighborhood, collocation_block,
    field_from_vertex_data, transfer_field, verify_space,
)
from anisoline.tmesh import create_mesh_from_knots, create_tensor_mesh
from test_bezier import _reference_split_patch, _reference_zero_corner_block


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
    for support in space.supports():
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
    for fid, support in enumerate(space.supports()):
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
            assert np.max(np.abs(space2.basis_data_at_vertex(fid, vid))) < 1e-13


def test_functions_away_from_marks_unchanged():
    mesh = create_tensor_mesh(3, 3)
    space = build_initial_space(mesh)
    corner_cell = mesh.locate_cell(0.1, 0.1)
    far_vertex = mesh.vertex_at(1, 1)
    mesh2, report = refine(mesh, RefinementRequest({corner_cell: "C"}))
    space2 = advance_level(space, report)
    old, new = space.supports(), space2.supports()
    for fid in space.vertex_index[far_vertex]:
        assert old[fid].keys() == new[fid].keys()
        # untouched cells keep their entries, so the patches are bitwise equal
        assert all(space2.cells[cid] is space.cells[cid] for cid in old[fid])


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


def test_initial_space_sixteen_per_cell():
    # on a tensor mesh every cell carries exactly its 4 corners x 4 slots
    space = build_initial_space(create_tensor_mesh(3, 2))
    for cid in space.mesh.active_cells():
        assert len(space.functions_on_cell(cid)) == 16


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
    fids = space2.functions_on_cell(child)
    assert len(fids) == 16
    anchors = {space2.vertices[f // 4] for f in fids}
    assert anchors == {mesh2.vertex_at(0.5, 0), mesh2.vertex_at(0, 0.5),
                       mesh2.vertex_at(0.5, 0.5), mesh2.vertex_at(0.25, 0.25)}
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
        anchored = set(space.vertex_index[vid])
        cid = mesh.vertex_cells(vid)[0]
        for fid in space.functions_on_cell(cid):
            data = space.basis_data_at_vertex(fid, vid)
            if fid not in anchored:
                assert np.max(np.abs(data)) < 1e-12


def test_collocation_dual_path_oracle():
    """B(v) from stored Bezier data equals the knot-formula prediction."""
    mesh = create_tensor_mesh(2, 2)
    space = build_initial_space(mesh)
    center = mesh.vertex_at(0.5, 0.5)
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
    bs = collocation_block(small, small.mesh.vertex_at(0.5, 0.5)).matrix
    bb = collocation_block(big, big.mesh.vertex_at(1, 1)).matrix
    assert np.allclose(bb[:, 0], bs[:, 0], atol=1e-13)       # values unchanged
    assert np.allclose(bb[:, 1], bs[:, 1] / 2, atol=1e-13)   # d_s halves


def test_collocation_rejects_non_basis_vertex():
    mesh = create_tensor_mesh(2, 2)
    space = build_initial_space(mesh)
    mesh2, report = refine(mesh, RefinementRequest({mesh.locate_cell(0.25, 0.25): "C"}))
    space2 = advance_level(space, report)
    tv = mesh2.vertex_at(0.5, 0.25)  # T-junction on the shared edge
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
        got = [(a, b, tuple(s), tuple(t)) for a, b, s, t in _interior_edge_samples(mesh)]
        want = [(a, b, tuple(s), tuple(t))
                for a, b, s, t in _reference_interior_edge_samples(mesh)]
        assert len(set(got)) == len(got)
        assert set(got) == set(want)


def test_nonuniform_level0_space():
    mesh = create_mesh_from_knots([0, 0.5, 0.75, 1], [0, 0.25, 1])
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
    for vid in space.vertex_index:
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
        for f, support in enumerate(space.supports()):
            v = mesh.vertex(space.vertices[f // 4])
            cells = [mesh.cell(c) for c in support]
            assert cells, f
            # birth neighborhood: cells of the anchor's level (the function's
            # birth level) whose closure contains the anchor (the full tree is
            # retained, so these records exist even after later subdivision)
            birth = [c for c in mesh._cells.values()
                     if c.level == v.level and c.contains_point(v.s, v.t)]
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


def test_vertex_index_covers_every_basis_vertex():
    space = make_space(seed=8, depth=3)
    assert set(space.vertex_index) == set(space.mesh.basis_vertices())
    assert all(len(v) == 4 for v in space.vertex_index.values())


def test_space_json_roundtrip():
    space = make_space(seed=2, depth=2)
    text = space.to_json()
    back = SplineSpace.from_json(text)
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
    loaded = SplineSpace.from_json(text)
    assert json.loads(text) == built.to_json_dict()
    assert loaded.to_json_dict()["functions"] == built.to_json_dict()["functions"]
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
        SplineSpace.from_json_dict(d)
    fs[4], fs[5] = fs[5], fs[4]
    twice = fs[4]["anchor"]
    fs.extend(copy.deepcopy(fs[4:8]))
    with pytest.raises(ValueError, match=f"basis vertex {twice} is listed twice"):
        SplineSpace.from_json_dict(d)
    del fs[-5:]
    with pytest.raises(ValueError, match="47 functions for 12 basis vertices"):
        SplineSpace.from_json_dict(d)


@pytest.mark.parametrize("start", ["2x2", "10x10", "non-uniform"])
def test_cell_table_invariants(start):
    steps, space = _random_rounds(start, seed=6)
    for s in [step[0] for step in steps] + [space]:
        mesh = s.mesh
        assert set(s.cells) == set(mesh.active_cells())
        assert set(s.vertices) == set(mesh.basis_vertices())
        assert len(s.vertices) == len(set(s.vertices))
        for fids, patches in s.cells.values():
            assert np.all(np.diff(fids) > 0)        # ascending, so unique
            assert patches.shape == (len(fids), 4, 4)
        # each function of vertex k has a patch on every cell at its anchor
        for k, vid in enumerate(s.vertices):
            for cid in mesh.vertex_cells(vid):
                assert set(range(4 * k, 4 * k + 4)) <= set(s.functions_on_cell(cid))


def test_vector_field_evaluation():
    space = build_initial_space(create_tensor_mesh(2, 2))
    rng = np.random.default_rng(7)
    field = SplineField(space, rng.standard_normal((space.dim, 3)))
    out = field.eval_many([0.3], [0.7], DERIV_ORDERS)
    assert out.shape == (6, 1, 3)
    hermite = field.eval_many([0.3], [0.7], HERMITE_ORDERS)
    assert hermite.shape == (4, 1, 3)


# ----------------------------------------------------------------------
# oracles of the collocation table and of the batched level advance

def _reference_collocation_block(space, vid):
    """The patch-scanning block the collocation table replaced: corner
    data of the vertex's four functions, read from their patches."""
    if not space.mesh.is_basis_vertex(vid):
        raise ValueError(f"vertex {vid} is not a basis vertex")
    return np.stack([space.basis_data_at_vertex(fid, vid) for fid in space.vertex_index[vid]])


def _reference_ordinates_toward(val, der, w, anchor_at_low):
    if anchor_at_low:
        return np.array([val, val + der * w / 3.0, 0.0, 0.0])
    return np.array([0.0, 0.0, val - der * w / 3.0, val])


def _reference_advance_level(space, report):
    """The per-patch level advance the batched one replaced, and the set of
    ids of the old functions it touched."""
    mesh = report.mesh_after
    split_info = report.performed
    born = sorted(report.new_basis_vertices)
    pieces = {}             # child cell id -> {function id: patch}
    for cid, (kind, kids) in split_info.items():
        for kid in kids:
            pieces[kid] = {}
        fids, patches = space.cells[cid]
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
    for k, vid in enumerate(born):
        s_pair, t_pair, cells = _new_vertex_neighborhood(mesh, vid)
        for slot in range(4):
            (val_s, der_s), (val_t, der_t) = s_pair[slot % 2], t_pair[slot // 2]
            for cid, sw, s_low, th, t_low in cells:
                pieces[cid][space.dim + 4 * k + slot] = np.outer(
                    _reference_ordinates_toward(val_t, der_t, th, t_low),
                    _reference_ordinates_toward(val_s, der_s, sw, s_low))
    cells = {cid: entry for cid, entry in space.cells.items() if cid not in split_info}
    for cid in list(pieces):
        on_kid = pieces.pop(cid)    # free each child's pieces as its entry is stacked
        fids = sorted(on_kid)
        cells[cid] = (np.array(fids, dtype=np.intp),
                      np.array([on_kid[f] for f in fids]).reshape(-1, 4, 4))
    return SplineSpace(mesh, space.vertices + born, cells), touched


_STARTS = {
    "2x2": lambda: create_tensor_mesh(2, 2),
    "3x2": lambda: create_tensor_mesh(3, 2),
    "4x4": lambda: create_tensor_mesh(4, 4),
    "10x10": lambda: create_tensor_mesh(10, 10),
    "non-uniform": lambda: create_mesh_from_knots([0, 0.1, 0.35, 0.5, 0.9, 1],
                                                  [0, 0.3, 0.45, 1]),
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
            want, touched = _reference_advance_level(space, report)
            assert got.vertices == want.vertices
            assert got.cells.keys() == want.cells.keys()
            for cid, (fids, patches) in want.cells.items():
                assert got.cells[cid][0].tolist() == fids.tolist(), cid
                assert np.max(np.abs(got.cells[cid][1] - patches), initial=0.0) <= 1e-13
                if cid in space.cells:
                    # an unsplit cell keeps its entry, the same arrays
                    assert got.cells[cid] is space.cells[cid]
            assert space.functions_on_cells(report.performed) == touched
            for vid in got.vertices:
                _assert_blocks_close(collocation_block(got, vid).matrix,
                                     _reference_collocation_block(got, vid))
            crossed |= max(sum(k == kind for k, _ in report.performed.values())
                           for kind in "HVC") > space_module._SPLIT_CELLS
    if start == "10x10":
        assert crossed, "no round split more than one chunk of cells"


@pytest.mark.parametrize("start", list(_STARTS))
def test_stored_blocks_match_patch_scan(start):
    for seed in range(3):
        steps, space = _random_rounds(start, seed)
        for s in [step[0] for step in steps] + [space]:
            for vid in s.vertex_index:
                block = collocation_block(s, vid)
                want = _reference_collocation_block(s, vid)
                _assert_blocks_close(block.matrix, want)
                assert np.allclose(block.inverse @ want, np.eye(4), atol=1e-10)


@pytest.mark.parametrize("start", list(_STARTS))
def test_rebuilt_tables_match_the_source_space(start):
    # a JSON load and a hand-built permuted space fill the table from patches
    _, space = _random_rounds(start, seed=4)
    back = SplineSpace.from_json(space.to_json())
    permuted, order = permuted_space(space, seed=5)
    for vid in space.vertex_index:
        want = collocation_block(space, vid).matrix
        _assert_blocks_close(collocation_block(back, vid).matrix, want)
        _assert_blocks_close(collocation_block(permuted, vid).matrix, want)
    data = {vid: np.random.default_rng(vid).standard_normal(4) for vid in space.vertex_index}
    want = field_from_vertex_data(space, data).coefficients
    assert np.allclose(field_from_vertex_data(permuted, data).coefficients, want[order],
                       rtol=1e-12, atol=1e-12 * np.abs(want).max())


def permuted_space(space, seed):
    """`space` rebuilt with its basis vertices in a random order, and the
    old id of each new function id."""
    rows = np.random.default_rng(seed).permutation(len(space.vertices))
    order = (4 * rows[:, None] + np.arange(4)).ravel()
    supports = space.supports()
    permuted = SplineSpace.from_supports(space.mesh, [space.vertices[k] for k in rows],
                                         [supports[f] for f in order])
    return permuted, order


def _hand_built(space, vid, edit):
    """A copy of `space` whose functions at `vid` have the patches
    edit(their patches), four {cell id: patch} in slot order."""
    supports = space.supports()
    fids = space.vertex_index[vid]
    for f, support in zip(fids, edit([supports[f] for f in fids])):
        supports[f] = support
    return SplineSpace.from_supports(space.mesh, space.vertices, supports)


def test_singular_collocation_block_names_the_vertex():
    space = build_initial_space(create_tensor_mesh(2, 2))
    center = space.mesh.vertex_at(0.5, 0.5)
    # slots 1 and 3 repeat slots 0 and 2: the block is kron(T, S) with a singular S
    broken = _hand_built(space, center, lambda fs: [fs[0], fs[0], fs[2], fs[2]])
    match = f"singular collocation block at vertex {center}"
    with pytest.raises(RuntimeError, match=match):
        collocation_block(broken, center)
    with pytest.raises(RuntimeError, match=match):
        field_from_vertex_data(broken, {vid: np.ones(4) for vid in broken.vertex_index})


def test_non_tensor_collocation_data_is_refused():
    space = build_initial_space(create_tensor_mesh(2, 2))
    center = space.mesh.vertex_at(0.5, 0.5)
    broken = _hand_built(space, center,
                         lambda fs: fs[:3] + [{c: 2 * p for c, p in fs[3].items()}])
    with pytest.raises(ValueError, match=f"vertex {center} is not a tensor product"):
        collocation_block(broken, center)


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
        want = _peak_bytes(_reference_advance_level, space, report)
        got = _peak_bytes(advance_level, space, report)
        assert got <= 1.10 * want, (got, want)


# Functions on the refinement and level-advance paths whose coordinate work
# runs on lattice ints; none of them may compare, hash or compute with a
# Fraction.
_LATTICE_ONLY = ("split_cell", "classify_vertex", "_build_report", "_new_vertex_neighborhood")
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
