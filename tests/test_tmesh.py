"""Mesh construction, classification, adjacency, dimension, splitting."""

import json
import random
from bisect import bisect_left, bisect_right
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

from anisoline.tmesh import (
    LATTICE_DEPTH, AdjacencyKind, LatticeDepthError, TMesh, VertexKind, cut_rule,
    create_tensor_mesh,
)
from oracles import (
    Contact, adjacency, cell_vertices, corner_vertices, edge_neighbors, lattice_coordinate,
    mesh_from_json, mesh_from_json_dict, mesh_to_json, mesh_to_json_dict, replay, split_log,
    vertex_at,
)


def split_labels(mesh):
    """The labels of the subdivided cells, read from the cell table."""
    return {mesh.cell(cid).label for cid in range(len(mesh.cell_bounds()))} - {None}


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
    center = vertex_at(m, 0.25, 0.25)
    assert m.classify_vertex(center) is VertexKind.CROSSING
    t1 = vertex_at(m, 0.5, 0.25)
    assert m.classify_vertex(t1) is VertexKind.T_JUNCTION
    b1 = vertex_at(m, 0.25, 0)
    assert m.classify_vertex(b1) is VertexKind.BOUNDARY
    assert m.classify_vertex(vertex_at(m, 0, 0)) is VertexKind.BOUNDARY


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
    assert adjacency(m, bl, br) is AdjacencyKind.HORIZONTALLY_ALIGNED
    assert adjacency(m, bl, tl) is AdjacencyKind.VERTICALLY_ALIGNED
    assert adjacency(m, bl, tr) is Contact.NOT_ADJACENT
    # half-height neighbor shares the vertical edge only partially
    m.split_cell(br, "H")
    low = m.locate_cell(0.75, 0.1)
    assert adjacency(m, bl, low) is Contact.ADJACENT_ONLY
    assert adjacency(m, low, bl) is Contact.ADJACENT_ONLY


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
        assert adjacency(m, a, b) is adjacency(m, b, a)


def test_adjacency_rejects_inactive():
    m = create_tensor_mesh(2, 2)
    cid = m.locate_cell(0.25, 0.25)
    other = m.locate_cell(0.75, 0.25)
    m.split_cell(cid, "C")
    with pytest.raises(ValueError):
        adjacency(m, cid, other)


def test_cell_queries_reject_inactive_and_unknown_cells():
    # a subdivided cell has no row of its own in the derived incidence
    m = create_tensor_mesh(2, 2)
    cid = m.locate_cell(0.25, 0.25)
    m.split_cell(cid, "C")
    for query in (lambda cid: cell_vertices(m, cid), lambda cid: edge_neighbors(m, cid)):
        with pytest.raises(ValueError, match=f"cell {cid} is not active"):
            query(cid)
        with pytest.raises(KeyError, match="unknown cell id 99"):
            query(99)
    with pytest.raises(KeyError, match="unknown vertex id 99"):
        m.vertex_cells(99)


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
    shared_top = vertex_at(m, 0.5, 1)
    m.split_cell(a, "V")
    m.split_cell(b, "V")
    assert m.classify_vertex(shared_top) is VertexKind.BOUNDARY
    assert vertex_at(m, 0.5, 0.5) is None
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
    i, j = (lattice_coordinate(axis, Fraction(1, 8)) for axis in m.axes)
    vid = m._append_vertices(np.array([[i, j]]), np.array([[0.125, 0.125]]), 0)
    assert m.vertex(vid).position == (Fraction(1, 8), Fraction(1, 8))
    # the derived incidence finds the cell that holds the point
    assert m.vertex_cells(vid) == [m.locate_cell(0.1, 0.1)]
    problems = m.validate()
    assert any("not on two grid lines" in p for p in problems)


def test_validate_checks_direction_masks_against_the_cells():
    m = randomly_refined(create_tensor_mesh(3, 3), 3, seed=5)
    assert m.validate() == []
    # a T-junction whose mask claims the missing direction reads as a crossing
    vid = next(v for v in m.vertices() if m.classify_vertex(v) is VertexKind.T_JUNCTION)
    copy = m.copy()
    copy._dirs[vid] = 15
    assert copy.classify_vertex(vid) is VertexKind.CROSSING
    assert m.classify_vertex(vid) is VertexKind.T_JUNCTION
    assert [p for p in copy.validate() if "mask" in p] == \
        [f"vertex {vid}: direction mask 1111 disagrees with its incident cells "
         f"({m._dirs[vid]:04b})"]


def test_validate_flags_overlap():
    m = create_tensor_mesh(2, 1)
    c = m.cell(m.locate_cell(0.1, 0.5))
    right = m.cell(m.locate_cell(0.9, 0.5))
    m.cell_table().lattice[c.id, 1] = (right.i0 + right.i1) // 2  # stretch into the neighbor
    assert c.s1 == Fraction(3, 4)
    problems = m.validate()
    assert [p for p in problems if "overlap" in p] == [f"cells {c.id} and {right.id} overlap"]


@pytest.mark.parametrize("seed", range(4))
def test_overlaps_match_the_pairwise_check(seed):
    # ten cells with one side moved to a random lattice coordinate, against
    # the check of every pair
    rng = np.random.default_rng(seed)
    m = randomly_refined(create_tensor_mesh(3, 2), 3, seed=seed)
    lattice = m.cell_table().lattice
    act = m.active_cells()
    ends = [axis.end for axis in m.axes]
    for cid in rng.choice(act, 10, replace=False).tolist():
        side = int(rng.integers(4))
        lattice[cid, side] = rng.integers(0, lattice[cid, side | 1]) if side % 2 == 0 else \
            rng.integers(lattice[cid, side - 1] + 1, ends[side // 2] + 1)
    want = [f"cells {a} and {b} overlap" for k, a in enumerate(act) for b in act[k + 1:]
            if min(lattice[a, 1], lattice[b, 1]) > max(lattice[a, 0], lattice[b, 0])
            and min(lattice[a, 3], lattice[b, 3]) > max(lattice[a, 2], lattice[b, 2])]
    assert len(want) >= 5
    assert [p for p in m.validate() if "overlap" in p] == want


def test_generation_log_replay():
    import random
    rng = random.Random(11)
    m = create_tensor_mesh(3, 2)
    for level in range(3):
        for cid in m.cells_of_level(level):
            if rng.random() < 0.5:
                m.split_cell(cid, rng.choice("HVC"))
        m.advance_current_level()
    r = replay(m)
    assert m.same_structure(r)
    assert split_log(r) == split_log(m)


@pytest.mark.parametrize("seed", range(4))
def test_split_log_is_the_split_order(seed):
    # the log read off the cell table against the splits as made: each
    # level's cells in shuffled order, split one at a time or in batches
    rng = random.Random(seed)
    m = create_tensor_mesh(4, 4)
    made = []
    for level in range(4):
        cells = [cid for cid in m.cells_of_level(level) if rng.random() < 0.6]
        rng.shuffle(cells)
        kinds = [rng.choice("HVC") for _ in cells]
        at = 0
        while at < len(cells):
            n = rng.choice([1, rng.randint(1, len(cells))])
            if n == 1:
                m.split_cell(cells[at], kinds[at])
            else:
                m.split_many(cells[at:at + n], kinds[at:at + n])
            at += n
        made += [(level, cid, kind) for cid, kind in zip(cells, kinds)]
        m.advance_current_level()
    assert len(made) > 10 and split_labels(m) == set("HVC")
    assert split_log(m) == made
    assert split_log(m.copy()) == made
    assert mesh_to_json_dict(replay(m)) == mesh_to_json_dict(m)


def test_json_roundtrip():
    m = create_tensor_mesh(2, 2)
    m.split_cell(m.locate_cell(0.25, 0.25), "C")
    m.advance_current_level()
    m.split_cell(m.locate_cell(0.1, 0.1), "H")
    d = mesh_to_json_dict(m)
    m2 = mesh_from_json(json.dumps(d))
    assert m.same_structure(m2)
    # bounds serialize as exact rational strings
    assert all(isinstance(b, str) for cell in d["cells"] for b in cell["bounds"])


def test_non_uniform_knots_supported():
    m = TMesh([0, Fraction(1, 2), Fraction(3, 4), 1], [0, 1])
    assert len(m.active_cells()) == 3
    assert m.validate() == []
    m.split_cell(m.locate_cell(0.6, 0.5), "V")
    assert vertex_at(m, Fraction(5, 8), 0) is not None


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

    sk, tk = (axis.knots for axis in mesh.axes)
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
    "non-uniform": lambda: TMesh(
        [0, Fraction(1, 7), Fraction(2, 5), Fraction(3, 4), 1], [0, Fraction(1, 3), 0.6, 1]),
    "non-dyadic edges": lambda: TMesh(
        [Fraction(-1, 3), 0, Fraction(2, 7), Fraction(5, 3)], [Fraction(1, 10), Fraction(1, 3), Fraction(7, 5)]),
}


@pytest.mark.parametrize("name", sorted(LOCATE_MESHES))
def test_locate_many_matches_exact_rule(name):
    rng = np.random.default_rng(5)
    m = randomly_refined(LOCATE_MESHES[name](), 4 if name == "3x3" else 3, seed=7)
    cells = [m.cell(cid) for cid in range(len(m.cell_table().lattice))]
    assert split_labels(m) == set("HVC")
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


@pytest.mark.parametrize("name", sorted(LOCATE_MESHES))
def test_locate_many_descends_from_any_ancestor(name):
    # a start at each point's level-0 ancestor, at its parent or at its own
    # cell gives the cells of the full descent: on every grid line and its
    # float neighbors, where the half-open rule decides, and at random points
    rng = np.random.default_rng(9)
    m = randomly_refined(LOCATE_MESHES[name](), 3, seed=7)
    cells = [m.cell(cid) for cid in range(len(m.cell_table().lattice))]
    s0, s1, t0, t1 = m.domain
    ss = [x for x in probe_coordinates({c.s0 for c in cells} | {c.s1 for c in cells}, rng)
          if s0 <= Fraction(x) <= s1]
    ts = [x for x in probe_coordinates({c.t0 for c in cells} | {c.t1 for c in cells}, rng)
          if t0 <= Fraction(x) <= t1]
    S, T = (a.ravel() for a in np.meshgrid(ss, ts, indexing="ij"))
    S = np.concatenate([S, rng.uniform(ss[0], ss[-1], 500)])
    T = np.concatenate([T, rng.uniform(ts[0], ts[-1], 500)])
    want = m.locate_many(S, T)
    assert max(m.cell(c).level for c in want.tolist()) == 3

    def ancestor(cid, steps):
        c = m.cell(cid)
        while steps and c.level:
            c, steps = m.cell(c.parent), steps - 1
        return c.id

    for steps in (-1, 1, 0):                 # level 0, the parent, the cell itself
        start = np.array([ancestor(c, steps) for c in want.tolist()])
        assert np.array_equal(m.locate_many(S, T, start=start), want)
        grid = (len(ss), len(ts))
        assert np.array_equal(m.locate_many(S[:-500].reshape(grid), T[:-500].reshape(grid),
                                            start=start[:-500].reshape(grid)),
                              want[:-500].reshape(grid))
    with pytest.raises(ValueError, match="start"):
        m.locate_many(S, T, start=want[:-1])


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
    m = TMesh([0, Fraction(1, 5), Fraction(1, 3), Fraction(1, 2), 0.7, 1],
              [0, Fraction(2, 9), 0.5, 1])
    assert m.validate() == []
    _check_incidence_and_table(m)
    assert all(cell_vertices(m, cid) == sorted(corner_vertices(m, cid)) for cid in m.active_cells())


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


def reference_bounds(mesh):
    """Exact bounds of every cell the mesh ever made, rebuilt from its
    level-0 knots and split log by halving Fractions."""
    sk, tk = (axis.knots for axis in mesh.axes)
    bounds = [(s0, s1, t0, t1) for t0, t1 in zip(tk, tk[1:]) for s0, s1 in zip(sk, sk[1:])]
    for _, cid, kind in split_log(mesh):
        s0, s1, t0, t1 = bounds[cid]
        sm, tm = (s0 + s1) / 2, (t0 + t1) / 2
        kids = {"H": [(s0, s1, t0, tm), (s0, s1, tm, t1)],
                "V": [(s0, sm, t0, t1), (sm, s1, t0, t1)],
                "C": [(s0, sm, t0, tm), (sm, s1, t0, tm), (s0, sm, tm, t1), (sm, s1, tm, t1)]}[kind]
        assert mesh.cell(cid).children == tuple(range(len(bounds), len(bounds) + len(kids)))
        bounds += kids
    return bounds


def census_kinds(rects, domain):
    """Vertex kinds from exact active-cell rectangles alone: every corner,
    and the edge directions it sees along the cell edges through it."""
    verts = {p for (s0, s1, t0, t1) in rects for p in ((s0, t0), (s1, t0), (s0, t1), (s1, t1))}
    rows, cols = defaultdict(list), defaultdict(list)   # t -> sorted s, s -> sorted t
    for s, t in sorted(verts):
        cols[s].append(t)
    for s, t in sorted(verts, key=lambda p: (p[1], p[0])):
        rows[t].append(s)
    dirs = defaultdict(set)
    for s0, s1, t0, t1 in rects:
        for t in (t0, t1):
            line = rows[t]
            for s in line[bisect_left(line, s0):bisect_right(line, s1)]:
                dirs[s, t].update(["+s"] * (s < s1) + ["-s"] * (s > s0))
        for s in (s0, s1):
            line = cols[s]
            for t in line[bisect_left(line, t0):bisect_right(line, t1)]:
                dirs[s, t].update(["+t"] * (t < t1) + ["-t"] * (t > t0))
    ds0, ds1, dt0, dt1 = domain
    by_count = {4: VertexKind.CROSSING, 3: VertexKind.T_JUNCTION}
    return {(s, t): VertexKind.BOUNDARY if s in (ds0, ds1) or t in (dt0, dt1)
            else by_count.get(len(dirs[s, t])) for (s, t) in verts}


def float_bits(values):
    return [float(x).hex() for x in values]


LATTICE_STARTS = {
    "uniform": lambda: create_tensor_mesh(3, 2),
    "non-uniform": lambda: TMesh(
        [0, Fraction(1, 7), Fraction(2, 5), Fraction(3, 4), 1], [0, Fraction(1, 3), 0.6, 1]),
    "negative": lambda: TMesh(
        [-2, Fraction(-1, 3), 0, 0.7], [-1, Fraction(-1, 10), Fraction(5, 4)]),
    "24x24": lambda: create_tensor_mesh(24, 24),
}


@pytest.mark.parametrize("name", sorted(LATTICE_STARTS))
def test_lattice_matches_fraction_halving(name):
    m = randomly_refined(LATTICE_STARTS[name](), 2 if name == "24x24" else 5, seed=17)
    assert split_labels(m) == set("HVC")
    ref = reference_bounds(m)
    assert len(ref) == m._next_cell
    for cid, b in enumerate(ref):
        c = m.cell(cid)
        assert c.bounds == b and all(type(x) is Fraction for x in c.bounds)
        assert (c.width, c.height) == (b[1] - b[0], b[3] - b[2])
        assert float_bits(c.bounds_float()) == float_bits(b)
        assert float_bits(c.size_float()) == float_bits((b[1] - b[0], b[3] - b[2]))
    kinds = census_kinds([ref[cid] for cid in m.active_cells()], m.domain)
    got = {}
    for vid in m.vertices():
        v = m.vertex(vid)
        assert all(type(x) is Fraction for x in v.position)
        assert float_bits(v.position_float()) == float_bits(v.position)
        assert vertex_at(m, v.s, v.t) == vid
        got[v.position] = m.classify_vertex(vid)
    assert len(got) == len(m.vertices())
    assert got == kinds
    assert m.dimension() == 4 * sum(k is not VertexKind.T_JUNCTION for k in kinds.values())


def _check_incidence_and_table(m):
    """Incidence lists against a scan of every vertex over every active
    cell's closed boundary; table rows against the per-cell queries."""
    act = m.active_cells()
    vids = m.vertices()
    b = np.array([m.cell(cid).lattice_bounds for cid in act])
    p = np.array([(m.vertex(vid).i, m.vertex(vid).j) for vid in vids])
    i, j = p[:, 0, None], p[:, 1, None]
    inside = (b[:, 0] <= i) & (i <= b[:, 1]) & (b[:, 2] <= j) & (j <= b[:, 3])
    on = inside & ((i == b[:, 0]) | (i == b[:, 1]) | (j == b[:, 2]) | (j == b[:, 3]))
    for k, vid in enumerate(vids):
        assert m.vertex_cells(vid) == [act[a] for a in np.flatnonzero(on[k])], vid
    for a, cid in enumerate(act):
        assert cell_vertices(m, cid) == [vids[k] for k in np.flatnonzero(on[:, a])], cid
    assert vids == list(range(len(vids)))
    assert m.vertex_table().dtype == np.int64 and m.vertex_table().tolist() == p.tolist()
    table, bounds = m.cell_table(), m.cell_bounds()
    assert len(table.lattice) == len(table.corners) == len(table.sizes) == len(bounds) == m._next_cell
    for cid in range(m._next_cell):
        c = m.cell(cid)
        assert tuple(table.lattice[cid].tolist()) == c.lattice_bounds
        assert tuple(table.corners[cid].tolist()) == corner_vertices(m, cid)
        assert float_bits(table.sizes[cid]) == float_bits(c.size_float())
        assert float_bits(bounds[cid]) == float_bits(c.bounds_float())


def _incidence(m):
    return ([m.vertex_cells(vid) for vid in m.vertices()],
            [cell_vertices(m, cid) for cid in m.active_cells()])


@pytest.mark.parametrize("name", sorted(LATTICE_STARTS))
def test_incidence_and_cell_table_match_a_full_scan(name):
    # the incidence is derived per mesh state and the tables are built at
    # level 0 and extended, on copies that diverge
    rng = random.Random(23)
    m = LATTICE_STARTS[name]()
    _check_incidence_and_table(m)
    for level in range(2 if name == "24x24" else 4):
        fork = m.copy()
        for mesh in (fork, m):
            # the fork's splits leave what the first mesh derived untouched
            _check_incidence_and_table(m)
            for cid in mesh.cells_of_level(level):
                if rng.random() < 0.6:
                    mesh.split_cell(cid, rng.choice("HVC"))
            mesh.advance_current_level()
            _check_incidence_and_table(mesh)
    assert split_labels(m) == set("HVC")
    # a replayed log and a JSON round trip give the same ids, so the same incidence
    for twin in (replay(m), mesh_from_json_dict(mesh_to_json_dict(m))):
        assert _incidence(twin) == _incidence(m)


def _edge_neighbor_scan(m):
    """Per active cell, the active cells sharing a positive-length piece of
    its boundary, from a scan of all pairs of lattice bounds."""
    act = m.active_cells()
    i0, i1, j0, j1 = np.array([m.cell(cid).lattice_bounds for cid in act]).T
    s_touch = (i1[:, None] == i0) | (i0[:, None] == i1)
    t_touch = (j1[:, None] == j0) | (j0[:, None] == j1)
    s_overlap = np.minimum(i1[:, None], i1) > np.maximum(i0[:, None], i0)
    t_overlap = np.minimum(j1[:, None], j1) > np.maximum(j0[:, None], j0)
    shared = (s_touch & t_overlap) | (t_touch & s_overlap)
    return {cid: {act[k] for k in np.flatnonzero(shared[a])} for a, cid in enumerate(act)}


@pytest.mark.parametrize("name", sorted(LATTICE_STARTS))
def test_edge_neighbors_match_a_full_scan(name):
    m = randomly_refined(LATTICE_STARTS[name](), 2 if name == "24x24" else 4, seed=29)
    assert split_labels(m) == set("HVC")
    act = m.active_cells()
    scan = _edge_neighbor_scan(m)
    # the batched pairs over every active cell, against the scan
    low, high = m.edge_neighbor_pairs(act)
    # by low id, then high id: `flood_fill_groups` reads each cell's
    # aligned neighbors in the order these pairs fill them in
    assert np.array_equal(np.lexsort((high, low)), np.arange(len(low)))
    assert (low < high).all()
    got = {cid: set() for cid in act}
    for a, b in zip(low.tolist(), high.tolist()):
        got[a].add(b)
        got[b].add(a)
    assert got == scan
    # the per-cell references the other tests use agree with it
    rng = random.Random(29)
    for cid in act:
        assert edge_neighbors(m, cid) == scan[cid], cid
        # every neighbor is adjacent, and a sample of the rest is not
        others = act if len(act) <= 400 else rng.sample(act, 100)
        for b in scan[cid] | set(others):
            assert (adjacency(m, cid, b) is not Contact.NOT_ADJACENT) == (b in scan[cid]), (cid, b)


def test_split_past_the_lattice_depth_is_refused():
    m = TMesh([0, Fraction(1, 3)], [0, 0.6])
    cid = m.active_cells()[0]
    for _ in range(LATTICE_DEPTH):
        cid = m.split_cell(cid, "V")[0]
        m.advance_current_level()
    # the last level the lattice resolves is still exact
    c = m.cell(cid)
    assert c.i1 - c.i0 == 1
    assert c.s1 == Fraction(1, 3) / 2 ** LATTICE_DEPTH
    assert float_bits(c.size_float()) == float_bits([c.width, c.height])
    assert vertex_at(m, c.s1, 0) is not None
    for kind in "VC":
        with pytest.raises(LatticeDepthError, match="lattice depth"):
            m.split_cell(cid, kind)
    assert c.active and m.validate() == []
    # the other direction still splits
    low, high = m.split_cell(cid, "H")
    assert m.cell(high).t0 == Fraction(0.6) / 2
    assert issubclass(LatticeDepthError, ValueError)


# A mesh in the JSON format: exact bounds as str(Fraction), among them
# "1/3" and the binary expansion of the float knot 0.6.
FRACTION_JSON = """
{"cells": [
 {"bounds": ["-1", "1/3", "0", "5404319552844595/9007199254740992"], "id": 0, "label": "C", "level": 0, "state": "Subdivided"},
 {"bounds": ["1/3", "1", "0", "5404319552844595/9007199254740992"], "id": 1, "label": null, "level": 0, "state": "Active"},
 {"bounds": ["-1", "1/3", "5404319552844595/9007199254740992", "1"], "id": 2, "label": null, "level": 0, "state": "Active"},
 {"bounds": ["1/3", "1", "5404319552844595/9007199254740992", "1"], "id": 3, "label": "V", "level": 0, "state": "Subdivided"},
 {"bounds": ["-1", "-1/3", "0", "5404319552844595/18014398509481984"], "id": 4, "label": null, "level": 1, "state": "Active"},
 {"bounds": ["-1/3", "1/3", "0", "5404319552844595/18014398509481984"], "id": 5, "label": "H", "level": 1, "state": "Subdivided"},
 {"bounds": ["-1", "-1/3", "5404319552844595/18014398509481984", "5404319552844595/9007199254740992"], "id": 6, "label": null, "level": 1, "state": "Active"},
 {"bounds": ["-1/3", "1/3", "5404319552844595/18014398509481984", "5404319552844595/9007199254740992"], "id": 7, "label": null, "level": 1, "state": "Active"},
 {"bounds": ["1/3", "2/3", "5404319552844595/9007199254740992", "1"], "id": 8, "label": "C", "level": 1, "state": "Subdivided"},
 {"bounds": ["2/3", "1", "5404319552844595/9007199254740992", "1"], "id": 9, "label": null, "level": 1, "state": "Active"},
 {"bounds": ["-1/3", "1/3", "0", "5404319552844595/36028797018963968"], "id": 10, "label": null, "level": 2, "state": "Active"},
 {"bounds": ["-1/3", "1/3", "5404319552844595/36028797018963968", "5404319552844595/18014398509481984"], "id": 11, "label": null, "level": 2, "state": "Active"},
 {"bounds": ["1/3", "1/2", "5404319552844595/9007199254740992", "14411518807585587/18014398509481984"], "id": 12, "label": null, "level": 2, "state": "Active"},
 {"bounds": ["1/2", "2/3", "5404319552844595/9007199254740992", "14411518807585587/18014398509481984"], "id": 13, "label": null, "level": 2, "state": "Active"},
 {"bounds": ["1/3", "1/2", "14411518807585587/18014398509481984", "1"], "id": 14, "label": null, "level": 2, "state": "Active"},
 {"bounds": ["1/2", "2/3", "14411518807585587/18014398509481984", "1"], "id": 15, "label": null, "level": 2, "state": "Active"}],
 "current_level": 2, "domain": ["-1", "1", "0", "1"],
 "log": [[0, 0, "C"], [0, 3, "V"], [1, 5, "H"], [1, 8, "C"]],
 "s_knots": ["-1", "1/3", "1"], "t_knots": ["0", "5404319552844595/9007199254740992", "1"]}
"""


def test_fraction_json_loads_onto_the_lattice():
    built = TMesh([-1, Fraction(1, 3), 1], [0, 0.6, 1])
    built.split_cell(0, "C")
    built.split_cell(3, "V")
    built.advance_current_level()
    built.split_cell(5, "H")
    built.split_cell(8, "C")
    built.advance_current_level()
    loaded = mesh_from_json(FRACTION_JSON)
    assert loaded.same_structure(built) and built.same_structure(loaded)
    # the oracles write the file again byte for byte, in its key order
    want = json.dumps(json.loads(FRACTION_JSON), sort_keys=True)
    assert mesh_to_json(built, sort_keys=True) == mesh_to_json(loaded, sort_keys=True) == want
    # a split records its kind as the cell's label, so a replayed log restores it
    for _, cid, kind in split_log(loaded):
        assert loaded.cell(cid).label == built.cell(cid).label == kind
    assert loaded.cell(12).bounds == (Fraction(1, 3), Fraction(1, 2), Fraction(0.6),
                                      (Fraction(0.6) + 1) / 2)


def test_same_structure_compares_knots():
    # equal lattice coordinates on other knots are another mesh
    assert not create_tensor_mesh(2, 2).same_structure(create_tensor_mesh(2, 2, (0, 2, 0, 1)))
    assert create_tensor_mesh(2, 2).same_structure(create_tensor_mesh(2, 2))


# every column of a mesh, cells then vertices
_COLUMNS = ("_lattice", "_corners", "_sizes", "_bounds", "_at_least", "_level", "_parent",
            "_kids", "_label", "_vtable", "_vfloat", "_vlevel", "_dirs")


def _column_bytes(m):
    return {name: (getattr(m, name).dtype.str, getattr(m, name).tobytes()) for name in _COLUMNS}


@pytest.mark.parametrize("name", sorted(LATTICE_STARTS))
def test_split_many_matches_splits_one_at_a_time(name):
    # a round split in one batch against the same round split cell by cell
    # in ascending id; the first round crosses every cell, so neighbors cut
    # their shared midpoints in one batch
    rng = random.Random(41)
    batch = LATTICE_STARTS[name]()
    probe = np.random.default_rng(41)
    s0, s1, t0, t1 = (float(x) for x in batch.domain)
    s, t = probe.uniform(s0, s1, 400), probe.uniform(t0, t1, 400)
    shared = 0
    for level in range(2 if name == "24x24" else 4):
        cells = batch.cells_of_level(level)
        cids = cells if level == 0 else sorted(rng.sample(cells, (len(cells) * 3 + 4) // 5))
        kinds = ["C"] * len(cids) if level == 0 else [rng.choice("HVC") for _ in cids]
        one = batch.copy()
        want = [one.split_cell(cid, kind) for cid, kind in zip(cids, kinds)]
        lattice = batch.cell_table().lattice[cids]
        children, cuts = batch.split_many(cids, kinds)
        assert children == want
        assert _column_bytes(batch) == _column_bytes(one)
        assert split_log(batch) == split_log(one)
        # each cell's cut ids name the vertices at its cut points, in order
        grid, _, (owner, point, _) = cut_rule(lattice, kinds)
        ij = grid[owner[:, None], [0, 1], point]
        assert batch.vertex_table()[[v for cut in cuts for v in cut]].tolist() == ij.tolist()
        assert [len(cut) for cut in cuts] == np.bincount(owner, minlength=len(cids)).tolist()
        shared += len(ij) - len({v for cut in cuts for v in cut})
        for mesh in (batch, one):
            mesh.advance_current_level()
        assert batch.locate_many(s, t).tolist() == one.locate_many(s, t).tolist()
        assert _incidence(batch) == _incidence(one)
    assert split_labels(batch) == set("HVC")
    assert shared > 0
    assert batch.validate() == []


def _mesh_state(m, s, t):
    cells = [m.cell(cid) for cid in range(len(m.cell_table().lattice))]
    return (mesh_to_json_dict(m), [(c.children, c.active, c.label) for c in cells],
            [a.tobytes() for a in m.cell_table()], m.locate_many(s, t).tolist())


def test_splits_of_a_copy_and_of_its_original_stay_apart():
    m = randomly_refined(create_tensor_mesh(3, 3), 2, seed=3)
    s, t = np.random.default_rng(3).random((2, 500))
    cells = m.cells_of_level(m.current_level)
    half = len(cells) // 2
    original = _mesh_state(m, s, t)
    c = m.copy()
    c.split_many(cells[:half], "C" * half)
    assert _mesh_state(m, s, t) == original
    copied = _mesh_state(c, s, t)
    # the original now makes cells and vertices under the ids the copy used
    m.split_many(cells[half:], "H" * (len(cells) - half))
    assert _mesh_state(c, s, t) == copied
    assert c.validate() == [] and m.validate() == []


def _narrow_pair():
    """A 2 x 1 mesh whose two current-level cells are one lattice unit wide along s."""
    m = create_tensor_mesh(2, 1)
    cells = [0, 1]
    for _ in range(LATTICE_DEPTH):
        cells = [kids[0] for kids in m.split_many(cells, "VV")[0]]
        m.advance_current_level()
    return m, cells


def test_a_batch_with_one_bad_cell_raises_and_writes_nothing():
    m = create_tensor_mesh(3, 3)
    kids = m.split_cell(0, "C")
    m.advance_current_level()
    narrow, (a, b) = _narrow_pair()
    cases = [
        (m, [kids[0], 0, kids[1]], "HHH", ValueError, "cell 0 is already subdivided"),
        (m, [kids[0], kids[0]], "HV", ValueError, f"cell {kids[0]} is already subdivided"),
        # the second of a repeat at non-adjacent positions raises, the first
        # never: the bad cell between them is named
        (m, [kids[3], kids[1], kids[2], kids[1]], "HHHV", ValueError,
         f"cell {kids[1]} is already subdivided"),
        (m, [kids[3], kids[1], 4, kids[1]], "HHHV", ValueError,
         "cell 4 has level 0, but only cells of the current level 1"),
        (m, [kids[0], 4, 0], "HHH", ValueError, "cell 4 has level 0, but only cells of the current level 1"),
        (m, [kids[2], kids[1]], "HX", ValueError, "unknown split kind 'X'"),
        (m, [kids[1], 99], "HH", KeyError, "unknown cell id 99"),
        (narrow, [a, b], "HV", LatticeDepthError, f"cell {b} is one lattice unit wide along s"),
        (narrow, [a, b], "CH", LatticeDepthError, f"cell {a} is one lattice unit wide along s"),
    ]
    for mesh, cids, kinds, error, match in cases:
        before = (mesh_to_json_dict(mesh), _column_bytes(mesh))
        with pytest.raises(error, match=match):
            mesh.split_many(cids, kinds)
        assert (mesh_to_json_dict(mesh), _column_bytes(mesh)) == before
    # the valid cells of each batch still split
    assert len(narrow.split_many([a, b], "HH")[0]) == 2
