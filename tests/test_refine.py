"""Refinement strategy: groups, label resolution, guarantees."""

import random

import pytest

from anisoline.refine import (
    ConnectedGroup, RefinementRequest, _build_report, flood_fill_groups, refine,
    resolve_labels, simulate_new_basis_vertices,
)
from anisoline.tmesh import AdjacencyKind, VertexKind, create_tensor_mesh
from oracles import (
    Contact, adjacency, check_refinement_invariants, edge_neighbors, naive_subdivide, vertex_at,
)
from test_tmesh import LATTICE_STARTS, census_kinds


def cell_at(mesh, s, t):
    return mesh.locate_cell(s, t)


def test_flood_fill_block_is_one_group():
    m = create_tensor_mesh(2, 2)
    groups = flood_fill_groups(m, m.active_cells())
    assert len(groups) == 1
    assert len(groups[0].members) == 4


def test_flood_fill_partial_edge_separates():
    m = create_tensor_mesh(2, 1, (0, 2, 0, 1))
    x = cell_at(m, 0.5, 0.5)
    y = cell_at(m, 1.5, 0.5)
    m.split_cell(x, "H")
    m.split_cell(y, "V")
    m.advance_current_level()
    a = cell_at(m, 0.5, 0.25)   # bottom half of x
    b = cell_at(m, 1.25, 0.5)   # left half of y
    groups = flood_fill_groups(m, [a, b])
    assert len(groups) == 2
    assert all(len(g.members) == 1 for g in groups)


def test_flood_fill_three_groups():
    # an all-'H' round first, then a marked set that the aligned-adjacency
    # rules classify into exactly three connected groups
    m = create_tensor_mesh(3, 3)
    m, _ = refine(m, RefinementRequest({c: "H" for c in m.active_cells()}))
    mk = [cell_at(m, 1 / 6, 1 / 12), cell_at(m, 3 / 6, 1 / 12),   # bottom pair
          cell_at(m, 1 / 6, 5 / 12),                              # lone cell
          cell_at(m, 5 / 6, 9 / 12), cell_at(m, 5 / 6, 11 / 12)]  # stacked pair
    groups = flood_fill_groups(m, mk)
    assert len(groups) == 3
    assert sorted(len(g.members) for g in groups) == [1, 2, 2]


def _reference_flood_fill_groups(mesh, marked):
    """The per-cell flood fill the batched pair search replaced: each
    marked cell's `edge_neighbors`, classified by `adjacency`, and each
    group's neighbor table read off the finished group.  Returns the groups
    and the number of marked pairs adjacent but not aligned."""
    marked = sorted(set(marked))
    marked_set = set(marked)
    aligned = {c: {} for c in marked}
    conflict = {c: set() for c in marked}
    conflicts = 0
    for a in marked:
        for b in edge_neighbors(mesh, a):
            if b not in marked_set or b <= a:
                continue
            k = adjacency(mesh, a, b)
            if k in (AdjacencyKind.HORIZONTALLY_ALIGNED, AdjacencyKind.VERTICALLY_ALIGNED):
                aligned[a][b] = k
                aligned[b][a] = k
            elif k is Contact.ADJACENT_ONLY:
                conflict[a].add(b)
                conflict[b].add(a)
                conflicts += 1
    groups = []
    assigned = set()
    for seed in marked:
        if seed in assigned:
            continue
        members = {seed}
        queue = [seed]
        while queue:
            cur = queue.pop(0)
            for nb in sorted(aligned[cur]):
                if nb in assigned or nb in members:
                    continue
                if conflict[nb] & members:
                    continue
                members.add(nb)
                queue.append(nb)
        assigned |= members
        mem = sorted(members)
        neighbors = {a: tuple((b, aligned[a][b]) for b in sorted(aligned[a]) if b in members)
                     for a in mem}
        groups.append(ConnectedGroup(tuple(mem), neighbors))
    return groups, conflicts


@pytest.mark.parametrize("name", sorted(LATTICE_STARTS))
def test_flood_fill_matches_the_per_cell_reference(name):
    # random marks on meshes refined by random verbatim rounds, whose mixed
    # labels leave marked neighbors adjacent but not aligned
    rng = random.Random(13)
    conflicts = 0
    for trial in range(2 if name == "24x24" else 8):
        m = LATTICE_STARTS[name]()
        for level in range(3):
            cells = m.cells_of_level(level)
            marked = rng.sample(cells, rng.randint(1, len(cells)))
            low, high = m.edge_neighbor_pairs(marked)
            assert list(zip(low.tolist(), high.tolist())) == sorted(
                (a, b) for a in marked for b in edge_neighbors(m, a) if a < b and b in marked)
            want, n = _reference_flood_fill_groups(m, marked)
            got = flood_fill_groups(m, marked)
            assert [(g.members, g.neighbors) for g in got] == [(g.members, g.neighbors) for g in want]
            conflicts += n
            labels = {cid: rng.choice("HVC") for cid in rng.sample(cells, rng.randint(1, len(cells)))}
            m, _ = naive_subdivide(m, RefinementRequest(labels))
    assert conflicts > 0


def test_flood_fill_rejects_stale():
    m = create_tensor_mesh(2, 2)
    c = m.active_cells()[0]
    m.split_cell(c, "C")
    m.advance_current_level()
    with pytest.raises(ValueError):
        flood_fill_groups(m, [m.cells_of_level(0)[-1]])  # frozen level 0 cell


def test_resolve_singleton_interior_h_becomes_c():
    m = create_tensor_mesh(3, 3)
    mid = cell_at(m, 0.5, 0.5)
    (group,) = flood_fill_groups(m, [mid])
    out = resolve_labels(m, group, {mid: "H"})
    assert out == {mid: "C"}


def test_resolve_singleton_corner_h_stays():
    m = create_tensor_mesh(3, 3)
    corner = cell_at(m, 1 / 6, 1 / 6)
    (group,) = flood_fill_groups(m, [corner])
    out = resolve_labels(m, group, {corner: "H"})
    assert out == {corner: "H"}


def test_resolve_mixed_pair_takes_neighbor_direction():
    m = create_tensor_mesh(2, 1, (0, 2, 0, 1))
    a = cell_at(m, 0.5, 0.5)
    b = cell_at(m, 1.5, 0.5)
    (group,) = flood_fill_groups(m, [a, b])
    out = resolve_labels(m, group, {a: "H", b: "V"})
    assert out == {a: "H", b: "H"}


def test_resolve_mixed_lshape():
    m = create_tensor_mesh(2, 2)
    a = cell_at(m, 0.25, 0.25)
    b = cell_at(m, 0.75, 0.25)
    c = cell_at(m, 0.25, 0.75)
    (group,) = flood_fill_groups(m, [a, b, c])
    out = resolve_labels(m, group, {a: "H", b: "V", c: "H"})
    assert out[a] == "C"      # both directions present
    assert out[b] == "H"      # only a horizontal neighbor
    assert out[c] == "V"      # only a vertical neighbor


def test_resolve_missing_label():
    m = create_tensor_mesh(2, 2)
    cells = m.active_cells()
    (group,) = flood_fill_groups(m, cells)
    with pytest.raises(ValueError):
        resolve_labels(m, group, {cells[0]: "H"})


def test_resolve_all_h_column_relabeled():
    # one column of an all-'H' group has no horizontal partners and no
    # boundary midpoints: the whole column flips to 'C'
    m = create_tensor_mesh(4, 4)
    col = [cell_at(m, 3 / 8, 3 / 8), cell_at(m, 3 / 8, 5 / 8)]
    (group,) = flood_fill_groups(m, col)
    out = resolve_labels(m, group, {c: "H" for c in col})
    assert out == {c: "C" for c in col}


def test_simulate_counts_boundary_and_joint_midpoints():
    m = create_tensor_mesh(2, 1, (0, 2, 0, 1))
    a = cell_at(m, 0.5, 0.5)
    b = cell_at(m, 1.5, 0.5)
    sim = simulate_new_basis_vertices(m, {a: "H", b: "H"})
    # left midpoint of a is on the boundary, shared midpoint cut from both sides
    assert len(sim[a]) == 2 and len(sim[b]) == 2
    sim = simulate_new_basis_vertices(m, {a: "H"})
    assert len(sim[a]) == 1  # only the boundary midpoint remains


def test_refine_empty_request():
    m = create_tensor_mesh(2, 2)
    out, report = refine(m, RefinementRequest({}))
    assert out is m
    assert report.performed == {}
    assert report.new_basis_vertices == []


def test_refine_all_c_gives_uniform():
    m = create_tensor_mesh(3, 3)
    out, report = refine(m, RefinementRequest({c: "C" for c in m.active_cells()}))
    assert out.dimension() == 196
    assert len(out.active_cells()) == 36
    assert out.current_level == 1
    assert out.validate() == []
    ok, diags = check_refinement_invariants(m, out, report)
    assert ok, diags


def test_refine_all_h_gives_halved_tensor():
    m = create_tensor_mesh(3, 3)
    out, report = refine(m, RefinementRequest({c: "H" for c in m.active_cells()}))
    assert report.final_labels == {c: "H" for c in report.final_labels}
    assert len(out.active_cells()) == 18
    ref = create_tensor_mesh(3, 6)
    assert out.dimension() == ref.dimension() == 112
    # the refined mesh is exactly the 3x6 tensor grid
    got = sorted(out.cell(c).bounds_float() for c in out.active_cells())
    want = sorted(ref.cell(c).bounds_float() for c in ref.active_cells())
    assert got == want
    ok, diags = check_refinement_invariants(m, out, report)
    assert ok, diags


def test_refine_reports_new_basis_per_cell():
    m = create_tensor_mesh(2, 2)
    req = RefinementRequest({c: "C" for c in m.active_cells()})
    out, report = refine(m, req)
    assert set(report.cell_new_basis) == set(req.marked)
    assert all(len(v) >= 1 for v in report.cell_new_basis.values())
    assert report.transition_count == 0


def _naive_t_to_crossing_setup():
    """Two rounds of verbatim splitting that promote a T-vertex."""
    m = create_tensor_mesh(2, 1, (0, 2, 0, 1))
    x = m.locate_cell(0.5, 0.5)
    y = m.locate_cell(1.5, 0.5)
    m1, _ = naive_subdivide(m, RefinementRequest({x: "H", y: "V"}))
    v = vertex_at(m1, 1, 0.5)
    assert m1.classify_vertex(v) is VertexKind.T_JUNCTION
    yl = m1.locate_cell(1.25, 0.5)
    return m1, yl


def test_naive_t_to_crossing_rejected():
    m1, yl = _naive_t_to_crossing_setup()
    m2, report = naive_subdivide(m1, RefinementRequest({yl: "H"}))
    v = vertex_at(m2, 1, 0.5)
    assert m2.classify_vertex(v) is VertexKind.CROSSING
    ok, diags = check_refinement_invariants(m1, m2, report)
    assert not ok
    assert any("became a crossing" in d for d in diags)
    assert report.transition_count == 1


def test_strategy_avoids_t_to_crossing():
    # same marks the naive sequence starts from; the strategy relabels the
    # mixed pair so the shared midpoint is cut from both sides at once
    m = create_tensor_mesh(2, 1, (0, 2, 0, 1))
    x = m.locate_cell(0.5, 0.5)
    y = m.locate_cell(1.5, 0.5)
    out, report = refine(m, RefinementRequest({x: "H", y: "V"}))
    assert report.final_labels == {x: "H", y: "H"}
    v = vertex_at(out, 1, 0.5)
    assert out.classify_vertex(v) is VertexKind.CROSSING
    assert v in report.new_basis_vertices
    ok, diags = check_refinement_invariants(m, out, report)
    assert ok, diags


def test_kind_lookups_name_a_vertex_off_two_grid_lines():
    # one mask corrupted in a copy: the batched lookups of the mesh and of
    # a round's report name the vertex as `classify_vertex` does
    m = create_tensor_mesh(2, 2)
    m.split_cell(m.locate_cell(0.25, 0.25), "C")
    t = vertex_at(m, 0.5, 0.25)                      # a T-junction: -s, +t and -t
    right = m.locate_cell(0.75, 0.25)
    after = m.copy()
    (kids,), (cut,) = after.split_many([right], ["H"])          # cuts through t
    performed, cuts = {right: ("H", kids)}, {right: cut}
    match = f"vertex {t} has 2 incident edge directions"

    def corrupted(mesh):
        mesh = mesh.copy()
        mesh._dirs[t] = 0b1100                      # +t and -t only
        return mesh

    for mesh in (corrupted(m), corrupted(after)):
        for lookup in (mesh.dimension, mesh.basis_vertices, lambda: mesh.classify_vertex(t)):
            with pytest.raises(ValueError, match=match):
                lookup()
    for before, broken_after in ((corrupted(m), after), (m, corrupted(after))):
        with pytest.raises(ValueError, match=match):
            _build_report(before, broken_after, [], {}, {}, performed, cuts)
    # the originals keep their masks: t is promoted to a crossing
    assert m.dimension() == 48 and after.dimension() == 56
    report = _build_report(m, after, [], {}, {}, performed, cuts)
    assert [vid for vid, _ in report.t_to_crossing] == [t]
    assert report.cell_new_basis == {right: [vertex_at(after, 1, 0.25)]}


def test_naive_no_basis_vertex_rejected():
    m = create_tensor_mesh(3, 3)
    mid = m.locate_cell(0.5, 0.5)
    out, report = naive_subdivide(m, RefinementRequest({mid: "H"}))
    ok, diags = check_refinement_invariants(m, out, report)
    assert not ok
    assert any("no new basis vertex" in d for d in diags)


def _naive_round(m, labels, groups):
    """One verbatim round whose report names the given groups, and the
    oracle's diagnostics of it."""
    out, report = naive_subdivide(m, RefinementRequest(labels))
    report.groups = groups
    ok, diags = check_refinement_invariants(m, out, report)
    assert ok == (not diags)
    return diags


def test_oracle_rejects_a_group_whose_image_splits():
    # two far corners split as one group: their children share no edge
    m = create_tensor_mesh(3, 3)
    a, b = cell_at(m, 1 / 6, 1 / 6), cell_at(m, 5 / 6, 5 / 6)
    diags = _naive_round(m, {a: "C", b: "C"}, [ConnectedGroup((a, b))])
    assert diags == [f"image of group {(a, b)} splits into 2 groups"]


def test_oracle_rejects_a_t_vertex_inside_a_group():
    # the mixed pair split verbatim: the midpoint of the shared edge is cut
    # from the left only, a T-vertex inside the group's image
    m = create_tensor_mesh(2, 1, (0, 2, 0, 1))
    x, y = cell_at(m, 0.5, 0.5), cell_at(m, 1.5, 0.5)
    groups = flood_fill_groups(m, [x, y])
    assert [g.members for g in groups] == [(x, y)]
    diags = _naive_round(m, {x: "H", y: "V"}, groups)
    assert diags == [f"image of group {(x, y)} splits into 2 groups",
                     f"T-vertex at (1.0, 0.5) on interior edge of group {(x, y)}"]


def test_oracle_rejects_groups_that_share_an_edge():
    # an aligned pair reported as two groups: their children meet
    m = create_tensor_mesh(2, 1, (0, 2, 0, 1))
    x, y = cell_at(m, 0.5, 0.5), cell_at(m, 1.5, 0.5)
    diags = _naive_round(m, {x: "C", y: "C"}, [ConnectedGroup((x,)), ConnectedGroup((y,))])
    assert diags == [f"groups {(x,)} and {(y,)} share an edge after refinement"]


def test_refine_deterministic():
    def run():
        m = create_tensor_mesh(3, 3)
        req = RefinementRequest({c: lab for c, lab in
                                 zip(m.active_cells(), "HHVVCCHVC")})
        out, rep = refine(m, req)
        return out.to_json(), str(rep.to_json_dict())
    assert run() == run()


def random_refine_rounds(rng, depth=4, start=(3, 3), max_marks=8):
    """Drive the strategy with random marks/labels; yields every report."""
    m = create_tensor_mesh(*start)
    for level in range(depth):
        cells = m.cells_of_level(level)
        if not cells:
            break
        k = rng.randint(1, min(max_marks, len(cells)))
        marked = rng.sample(cells, k)
        labels = {c: rng.choice("HVC") for c in marked}
        before = m
        m, report = refine(m, RefinementRequest(labels))
        yield before, m, report


def test_randomized_invariants():
    rng = random.Random(99)
    for trial in range(60):
        for before, after, report in random_refine_rounds(rng):
            ok, diags = check_refinement_invariants(before, after, report)
            assert ok, (trial, diags)
            assert after.validate() == []


def test_group_images_connected_and_disjoint():
    rng = random.Random(5)
    for trial in range(20):
        for before, after, report in random_refine_rounds(rng, depth=3):
            for g in report.groups:
                kids = [k for c in g.members for k in report.performed[c][1]]
                images = flood_fill_groups(after, kids)
                assert len(images) == 1


def _census(mesh):
    return census_kinds([mesh.cell(cid).bounds for cid in mesh.active_cells()], mesh.domain)


def _value(mesh, i, j):
    return mesh.axes[0].exact(i), mesh.axes[1].exact(j)


def _in_closure(cell, positions):
    return {(s, t) for s, t in positions if cell.s0 <= s <= cell.s1 and cell.t0 <= t <= cell.t1}


@pytest.mark.parametrize("step", [refine, naive_subdivide], ids=["refine", "naive"])
@pytest.mark.parametrize("name", sorted(LATTICE_STARTS))
def test_kinds_promotions_and_predictions_match_the_census(name, step):
    # The masks, the report read off the cuts and the predicted births,
    # each against the kinds of a census of the active cells alone.
    rng = random.Random(41)
    promotions = 0
    for trial in range(2 if name == "24x24" else 10):
        m = LATTICE_STARTS[name]()
        for level in range(3):
            cells = m.cells_of_level(level)
            before, kinds = m, _census(m)
            # a random split set, predicted and then carried out on a copy
            splits = {cid: rng.choice("HVC") for cid in rng.sample(cells, rng.randint(1, len(cells)))}
            predicted = simulate_new_basis_vertices(m, splits)
            trial_mesh = m.copy()
            for cid in sorted(splits):
                trial_mesh.split_cell(cid, splits[cid])
            born = {p for p, k in _census(trial_mesh).items()
                    if p not in kinds and k is not VertexKind.T_JUNCTION}
            for cid, positions in predicted.items():
                assert {_value(m, *pos) for pos in positions} == _in_closure(m.cell(cid), born)
            # one round of the step under test
            labels = {cid: rng.choice("HVC") for cid in rng.sample(cells, rng.randint(1, min(12, len(cells))))}
            m, report = step(m, RefinementRequest(labels))
            after = _census(m)
            assert {m.vertex(vid).position: m.classify_vertex(vid) for vid in m.vertices()} == after
            promoted = sorted(p for p, k in kinds.items()
                              if k is VertexKind.T_JUNCTION and after[p] is VertexKind.CROSSING)
            assert sorted(m.vertex(vid).position for vid, _ in report.t_to_crossing) == promoted
            assert [vid for vid, _ in report.t_to_crossing] == sorted({vid for vid, _ in report.t_to_crossing})
            promotions += len(promoted)
            born = {p for p, k in after.items() if p not in kinds and k is not VertexKind.T_JUNCTION}
            assert {m.vertex(vid).position for vid in report.new_basis_vertices} == born
            for cid, vids in report.cell_new_basis.items():
                assert vids == sorted(vids)
                assert {m.vertex(vid).position for vid in vids} == _in_closure(before.cell(cid), born)
    # the strategy never promotes; verbatim splits do, on every start
    assert (promotions > 0) == (step is naive_subdivide)
