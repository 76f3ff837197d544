"""Mesh construction, classification, adjacency, dimension, splitting."""

import json
import random
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest

from anisoline.tmesh import (
    AdjacencyKind, TMesh, VertexKind, create_mesh_from_knots, create_tensor_mesh,
)


def kinds_histogram(mesh):
    hist = {k: 0 for k in VertexKind}
    for vid in mesh.vertices():
        hist[mesh.classify_vertex(vid)] += 1
    return hist


def test_create_single_cell():
    m = create_tensor_mesh(1, 1)
    assert len(m.active_cells()) == 1
    h = kinds_histogram(m)
    assert h[VertexKind.BOUNDARY] == 4
    assert h[VertexKind.CROSSING] == 0


def test_create_2x2_counts():
    m = create_tensor_mesh(2, 2)
    assert len(m.active_cells()) == 4
    assert len(m.vertices()) == 9
    h = kinds_histogram(m)
    assert h[VertexKind.BOUNDARY] == 8
    assert h[VertexKind.CROSSING] == 1
    assert h[VertexKind.T_JUNCTION] == 0


def test_create_3x3_counts():
    m = create_tensor_mesh(3, 3)
    assert len(m.vertices()) == 16
    h = kinds_histogram(m)
    assert h[VertexKind.BOUNDARY] == 12
    assert h[VertexKind.CROSSING] == 4


def test_create_rejects_bad_input():
    with pytest.raises(ValueError):
        create_tensor_mesh(0, 2)
    with pytest.raises(ValueError):
        create_tensor_mesh(2, -1)
    with pytest.raises(ValueError):
        create_tensor_mesh(2, 2, (0, 0, 0, 1))


def test_vertex_kinds_after_cross_split():
    # one cross on a 2x2 mesh: center of the split cell is a crossing,
    # interior edge midpoints become T-junctions, boundary midpoints boundary
    m = create_tensor_mesh(2, 2)
    cid = m.locate_cell(0.25, 0.25)
    m.split_cell(cid, "C")
    center = m.vertex_at(0.25, 0.25)
    assert m.classify_vertex(center) is VertexKind.CROSSING
    t1 = m.vertex_at(0.5, 0.25)
    assert m.classify_vertex(t1) is VertexKind.T_JUNCTION
    b1 = m.vertex_at(0.25, 0)
    assert m.classify_vertex(b1) is VertexKind.BOUNDARY
    assert m.classify_vertex(m.vertex_at(0, 0)) is VertexKind.BOUNDARY


def test_classify_unknown_id():
    m = create_tensor_mesh(1, 1)
    with pytest.raises(KeyError):
        m.classify_vertex(999)


def test_adjacency_kinds():
    m = create_tensor_mesh(2, 2)
    bl = m.locate_cell(0.25, 0.25)
    br = m.locate_cell(0.75, 0.25)
    tl = m.locate_cell(0.25, 0.75)
    tr = m.locate_cell(0.75, 0.75)
    assert m.adjacency(bl, br) is AdjacencyKind.HORIZONTALLY_ALIGNED
    assert m.adjacency(bl, tl) is AdjacencyKind.VERTICALLY_ALIGNED
    assert m.adjacency(bl, tr) is AdjacencyKind.NOT_ADJACENT
    # half-height neighbor shares the vertical edge only partially
    m.split_cell(br, "H")
    low = m.locate_cell(0.75, 0.1)
    assert m.adjacency(bl, low) is AdjacencyKind.ADJACENT_ONLY
    assert m.adjacency(low, bl) is AdjacencyKind.ADJACENT_ONLY


def test_adjacency_symmetry_random():
    import random
    rng = random.Random(7)
    m = create_tensor_mesh(3, 3)
    for level in range(3):
        cells = m.cells_of_level(level)
        for cid in cells:
            if rng.random() < 0.5:
                m.split_cell(cid, rng.choice("HVC"))
        m.advance_current_level()
    act = m.active_cells()
    for _ in range(200):
        a, b = rng.choice(act), rng.choice(act)
        assert m.adjacency(a, b) is m.adjacency(b, a)


def test_adjacency_rejects_inactive():
    m = create_tensor_mesh(2, 2)
    cid = m.locate_cell(0.25, 0.25)
    other = m.locate_cell(0.75, 0.25)
    m.split_cell(cid, "C")
    with pytest.raises(ValueError):
        m.adjacency(cid, other)


def test_dimension_examples():
    assert create_tensor_mesh(2, 2).dimension() == 36
    assert create_tensor_mesh(1, 1).dimension() == 16
    m = create_tensor_mesh(1, 1)
    m.split_cell(m.active_cells()[0], "C")
    # cross insertion adds 4 boundary vertices and 1 crossing
    assert m.dimension() == 36


def test_split_cell_h_on_boundary_cell():
    m = create_tensor_mesh(2, 1)
    left = m.locate_cell(0.1, 0.5)
    before = kinds_histogram(m)
    m.split_cell(left, "H")
    after = kinds_histogram(m)
    assert after[VertexKind.BOUNDARY] == before[VertexKind.BOUNDARY] + 1
    assert after[VertexKind.T_JUNCTION] == before[VertexKind.T_JUNCTION] + 1


def test_split_cell_v_then_matching_v():
    # V splits only create midpoints on horizontal edges; two matching V
    # splits on horizontally aligned cells never touch the shared edge
    m = create_tensor_mesh(2, 1)
    a = m.locate_cell(0.1, 0.5)
    b = m.locate_cell(0.9, 0.5)
    shared_top = m.vertex_at(0.5, 1)
    m.split_cell(a, "V")
    m.split_cell(b, "V")
    assert m.classify_vertex(shared_top) is VertexKind.BOUNDARY
    assert m.vertex_at(0.5, 0.5) is None
    h = kinds_histogram(m)
    assert h[VertexKind.T_JUNCTION] == 0


def test_split_rejects_inactive_and_stale():
    m = create_tensor_mesh(2, 2)
    cid = m.locate_cell(0.25, 0.25)
    m.split_cell(cid, "C")
    with pytest.raises(ValueError):
        m.split_cell(cid, "C")
    child = m.locate_cell(0.1, 0.1)
    with pytest.raises(ValueError):
        m.split_cell(child, "H")  # level 1 cell while mesh level is 0
    other = m.locate_cell(0.75, 0.75)
    m.advance_current_level()
    with pytest.raises(ValueError):
        m.split_cell(other, "C")  # level 0 cell is now frozen
    m.split_cell(child, "H")


def test_validate_constructive_meshes_clean():
    import random
    rng = random.Random(3)
    for trial in range(10):
        m = create_tensor_mesh(rng.randint(1, 3), rng.randint(1, 3))
        for level in range(rng.randint(1, 4)):
            cells = m.cells_of_level(level)
            for cid in cells:
                if rng.random() < 0.6:
                    m.split_cell(cid, rng.choice("HVC"))
            m.advance_current_level()
        assert m.validate() == []


def test_validate_flags_hanging_vertex():
    # inject a grid-line endpoint that does not land on two grid lines
    m = create_tensor_mesh(2, 2)
    vid = m._get_or_make_vertex(Fraction(1, 8), Fraction(1, 8), 0)
    m._vert_cells[vid].add(m.locate_cell(0.1, 0.1))
    problems = m.validate()
    assert any("not on two grid lines" in p for p in problems)


def test_validate_flags_overlap():
    m = create_tensor_mesh(2, 1)
    a = m.locate_cell(0.1, 0.5)
    c = m.cell(a)
    c.s1 = Fraction(3, 4)  # stretch into the neighbor
    problems = m.validate()
    assert any("overlap" in p for p in problems)


def test_generation_log_replay():
    import random
    rng = random.Random(11)
    m = create_tensor_mesh(3, 2)
    for level in range(3):
        for cid in m.cells_of_level(level):
            if rng.random() < 0.5:
                m.split_cell(cid, rng.choice("HVC"))
        m.advance_current_level()
    r = m.replay()
    assert m.same_structure(r)
    assert r.generation_log == m.generation_log


def test_json_roundtrip():
    m = create_tensor_mesh(2, 2)
    m.split_cell(m.locate_cell(0.25, 0.25), "C")
    m.advance_current_level()
    m.split_cell(m.locate_cell(0.1, 0.1), "H")
    d = m.to_json_dict()
    m2 = TMesh.from_json(json.dumps(d))
    assert m.same_structure(m2)
    # bounds serialize as exact rational strings
    assert all(isinstance(b, str) for cell in d["cells"] for b in cell["bounds"])


def test_non_uniform_knots_supported():
    m = create_mesh_from_knots([0, Fraction(1, 2), Fraction(3, 4), 1], [0, 1])
    assert len(m.active_cells()) == 3
    assert m.validate() == []
    m.split_cell(m.locate_cell(0.6, 0.5), "V")
    assert m.vertex_at(Fraction(5, 8), 0) is not None


def test_locate_cell_edges_and_errors():
    m = create_tensor_mesh(2, 2)
    assert m.locate_cell(0.5, 0.5) == m.locate_cell(0.6, 0.6)
    assert m.locate_cell(1.0, 1.0) == m.locate_cell(0.9, 0.9)
    with pytest.raises(ValueError):
        m.locate_cell(1.5, 0.5)


def reference_locate(mesh, s, t):
    """The exact rule: Fraction comparisons down the cell hierarchy, each
    cell half-open toward +s and +t, the domain's far edges closing the
    last cells."""
    s, t = Fraction(s), Fraction(t)
    _, s_far, _, t_far = mesh.domain

    def holds(c):
        return ((c.s0 <= s < c.s1 or s == c.s1 == s_far)
                and (c.t0 <= t < c.t1 or t == c.t1 == t_far))

    sk, tk = mesh._init_knots
    i = min(bisect_right(sk, s) - 1, len(sk) - 2)
    j = min(bisect_right(tk, t) - 1, len(tk) - 2)
    cell = mesh.cell(j * (len(sk) - 1) + i)
    assert holds(cell)
    while cell.children:
        (cell,) = [k for k in map(mesh.cell, cell.children) if holds(k)]
    return cell.id


def randomly_refined(mesh, levels, seed):
    rng = random.Random(seed)
    for level in range(levels):
        for cid in mesh.cells_of_level(level):
            if rng.random() < 0.6:
                mesh.split_cell(cid, rng.choice("HVC"))
        mesh.advance_current_level()
    return mesh


def probe_coordinates(lines, rng):
    """Every grid line, its two float neighbors, and a few random values."""
    out = set(rng.uniform(float(min(lines)), float(max(lines)), 6))
    for x in lines:
        f = float(x)
        out.update((np.nextafter(f, -np.inf), f, np.nextafter(f, np.inf)))
    return sorted(out)


LOCATE_MESHES = {
    "3x3": lambda: create_tensor_mesh(3, 3),
    "5x5": lambda: create_tensor_mesh(5, 5),
    "non-uniform": lambda: create_mesh_from_knots(
        [0, Fraction(1, 7), Fraction(2, 5), Fraction(3, 4), 1], [0, Fraction(1, 3), 0.6, 1]),
    "non-dyadic edges": lambda: create_mesh_from_knots(
        [Fraction(-1, 3), 0, Fraction(2, 7), Fraction(5, 3)], [Fraction(1, 10), Fraction(1, 3), Fraction(7, 5)]),
}


@pytest.mark.parametrize("name", sorted(LOCATE_MESHES))
def test_locate_many_matches_exact_rule(name):
    rng = np.random.default_rng(5)
    m = randomly_refined(LOCATE_MESHES[name](), 4 if name == "3x3" else 3, seed=7)
    cells = list(m._cells.values())
    assert {kind for _, _, kind in m.generation_log} == set("HVC")
    s0, s1, t0, t1 = m.domain
    ss = probe_coordinates({c.s0 for c in cells} | {c.s1 for c in cells}, rng)
    ts = probe_coordinates({c.t0 for c in cells} | {c.t1 for c in cells}, rng)
    s_in = [x for x in ss if s0 <= Fraction(x) <= s1]
    t_in = [x for x in ts if t0 <= Fraction(x) <= t1]
    S, T = (a.ravel() for a in np.meshgrid(s_in, t_in, indexing="ij"))
    got = m.locate_many(S, T)
    assert got.dtype == np.int64 and got.shape == S.shape
    want = [reference_locate(m, a, b) for a, b in zip(S, T)]
    assert got.tolist() == want
    assert m.locate_cell(S[7], T[7]) == want[7]
    # just past either far edge, in either direction, is outside
    for a, b in [(x, t_in[0]) for x in ss if x not in s_in] + \
                [(s_in[-1], x) for x in ts if x not in t_in]:
        with pytest.raises(ValueError, match="outside domain"):
            m.locate_many(np.array([s_in[0], a]), np.array([t_in[0], b]))


def test_locate_many_third_lines_stay_exact():
    # the float nearest 1/3 lies below 1/3: it belongs to the left cell
    m = create_tensor_mesh(3, 3)
    assert Fraction(1 / 3) < Fraction(1, 3)
    assert m.locate_many(np.array([1 / 3, np.nextafter(1 / 3, 1)]), np.array([0.5, 0.5])).tolist() == [3, 4]


def test_locate_many_rejects_nan_and_outside():
    m = create_tensor_mesh(2, 2)
    for s, t in ((np.nan, 0.5), (0.5, np.nan), (-1e-300, 0.5), (0.5, np.inf), (1.5, 0.5)):
        with pytest.raises(ValueError):
            m.locate_many(np.array([0.25, s]), np.array([0.25, t]))
        with pytest.raises(ValueError):
            m.locate_cell(s, t)
    assert m.locate_many(np.zeros(0), np.zeros(0)).shape == (0,)


def test_locate_many_not_stale_after_split_or_copy():
    m = create_tensor_mesh(2, 2)
    s, t = np.array([0.1, 0.3, 0.9]), np.array([0.1, 0.3, 0.9])
    before = m.locate_many(s, t).tolist()
    kids = m.split_cell(before[0], "C")
    assert m.locate_many(s, t).tolist() == [kids[0], kids[3], before[2]]
    c = m.copy()
    m.advance_current_level()
    c.advance_current_level()
    grandkids = c.split_cell(kids[3], "V")
    assert c.locate_many(s, t).tolist() == [kids[0], grandkids[0], before[2]]
    assert m.locate_many(s, t).tolist() == [kids[0], kids[3], before[2]]
    for mesh in (m, c):
        assert mesh.locate_many(s, t).tolist() == [reference_locate(mesh, a, b) for a, b in zip(s, t)]


def test_tensor_build_registers_corners_like_a_full_scan():
    m = create_mesh_from_knots([0, Fraction(1, 5), Fraction(1, 3), Fraction(1, 2), 0.7, 1],
                               [0, Fraction(2, 9), 0.5, 1])
    assert m.validate() == []
    for cid in m.active_cells():
        c = m.cell(cid)
        scan = [vid for vid in m.vertices() if m._on_cell_boundary(c, *m.vertex(vid).position)]
        assert m.cell_vertices(cid) == scan and len(scan) == 4
    for vid in m.vertices():
        v = m.vertex(vid)
        scan = [cid for cid in m.active_cells() if m._on_cell_boundary(m.cell(cid), v.s, v.t)]
        assert m.vertex_cells(vid) == scan


def test_dimension_against_census_oracle():
    """Eq.-style dimension must match a brute-force edge census."""
    import random
    from collections import defaultdict

    def census_dimension(mesh):
        # reconstruct vertices and edge directions from active cell bounds alone
        cells = [mesh.cell(c) for c in mesh.active_cells()]
        verts = set()
        for c in cells:
            verts.update([(c.s0, c.t0), (c.s1, c.t0), (c.s0, c.t1), (c.s1, c.t1)])
        on_v_line = defaultdict(set)   # s -> vertex t's on that vertical line
        on_h_line = defaultdict(set)
        for (s, t) in verts:
            on_v_line[s].add(t)
            on_h_line[t].add(s)
        dirs = defaultdict(set)
        for c in cells:
            for t_edge in (c.t0, c.t1):
                for (s, t) in verts:
                    if t == t_edge and c.s0 <= s <= c.s1:
                        if s < c.s1:
                            dirs[(s, t)].add("+s")
                        if s > c.s0:
                            dirs[(s, t)].add("-s")
            for s_edge in (c.s0, c.s1):
                for (s, t) in verts:
                    if s == s_edge and c.t0 <= t <= c.t1:
                        if t < c.t1:
                            dirs[(s, t)].add("+t")
                        if t > c.t0:
                            dirs[(s, t)].add("-t")
        s0, s1, t0, t1 = mesh.domain
        vb = vplus = 0
        for (s, t) in verts:
            if s in (s0, s1) or t in (t0, t1):
                vb += 1
            elif len(dirs[(s, t)]) == 4:
                vplus += 1
        return 4 * (vb + vplus)

    rng = random.Random(23)
    for trial in range(15):
        m = create_tensor_mesh(rng.randint(1, 4), rng.randint(1, 4))
        for level in range(rng.randint(1, 3)):
            for cid in m.cells_of_level(level):
                if rng.random() < 0.5:
                    m.split_cell(cid, rng.choice("HVC"))
            m.advance_current_level()
        assert m.dimension() == census_dimension(m)
