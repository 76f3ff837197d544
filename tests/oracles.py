"""Reference paths and health checks that only the tests use.

`naive_subdivide` splits marked cells as labeled, without the refinement
strategy, so that its failure modes can be reproduced and rejected, and
`check_refinement_invariants` re-derives the strategy's guarantees from
the before/after meshes.  `verify_space` is a numerical health report of a
spline space.  `ring_expand` grows a cell set by one ring of edge
neighbors, one cell at a time, for the per-vertex control estimate of the
fitting tests.

The per-item mesh queries are references for the batched ones of
:mod:`anisoline.tmesh`, kept apart from the code they check:
`adjacency` classifies two cells from their lattice bounds,
`edge_neighbors` counts the vertices a cell shares with each other cell,
and `vertex_at` and `vertices_at` find vertices by exact or lattice
position.
"""

from bisect import bisect_right
from collections import Counter
from fractions import Fraction

import numpy as np

from anisoline.refine import _check_markable, _split, flood_fill_groups
from anisoline.space import (
    DERIV_ORDERS, HERMITE_ORDERS, SplineField, _bernstein_tables, _blocks, _Cells,
    _eval_patches, field_from_vertex_data,
)
from anisoline.tmesh import LATTICE_DEPTH, AdjacencyKind, VertexKind, _unique_rows

_SPAN = 1 << LATTICE_DEPTH


def lattice_coordinate(axis, value):
    """Lattice coordinate of an exact value on `axis`, or None off the lattice."""
    value = Fraction(value)
    k = bisect_right(axis.knots, value) - 1
    if k < 0 or value > axis.knots[-1]:
        return None
    if k == len(axis.knots) - 1:
        return axis.end
    r = (value - axis.knots[k]) / (axis.knots[k + 1] - axis.knots[k]) * _SPAN
    return k * _SPAN + r.numerator if r.denominator == 1 else None


def vertex_at(mesh, s, t):
    """Vertex id at an exact position, or None."""
    i, j = (lattice_coordinate(axis, x) for axis, x in zip(mesh.axes, (s, t)))
    if i is None or j is None:
        return None
    hit = np.flatnonzero((mesh.vertex_table() == (i, j)).all(axis=1))
    return int(hit[0]) if hit.size else None


def vertices_at(mesh, ij):
    """Ids of the vertices at lattice positions ij (k, 2), -1 where
    there is none: one batched search of `vertex_table`."""
    table = mesh.vertex_table()
    both = np.concatenate([table, np.asarray(ij, dtype=np.int64).reshape(-1, 2)])
    first, inverse = _unique_rows(both)
    hit = first[inverse[len(table):]]
    return np.where(hit < len(table), hit, -1)


def adjacency(mesh, cid1, cid2):
    """Neighbor relation of two active cells."""
    c1, c2 = mesh._active_cell(cid1), mesh._active_cell(cid2)
    if cid1 == cid2:
        return AdjacencyKind.NOT_ADJACENT
    a0, a1, b0, b1 = c1.lattice_bounds
    p0, p1, q0, q1 = c2.lattice_bounds
    # a vertical common edge (side by side), then a horizontal one (stacked)
    for touch, overlap, aligned, kind in (
            (a1 == p0 or p1 == a0, min(b1, q1) > max(b0, q0), (b0, b1) == (q0, q1),
             AdjacencyKind.HORIZONTALLY_ALIGNED),
            (b1 == q0 or q1 == b0, min(a1, p1) > max(a0, p0), (a0, a1) == (p0, p1),
             AdjacencyKind.VERTICALLY_ALIGNED)):
        if touch and overlap:
            return kind if aligned else AdjacencyKind.ADJACENT_ONLY
    return AdjacencyKind.NOT_ADJACENT


def edge_neighbors(mesh, cid):
    """The set of active cells sharing a positive-length edge piece
    with the active cell `cid`: the cells holding two or more of its
    vertices (the ends of a shared piece; a corner touch shares one)."""
    shared = Counter(n for vid in mesh.cell_vertices(cid) for n in mesh.vertex_cells(vid))
    del shared[cid]
    return {n for n, k in shared.items() if k > 1}


def naive_subdivide(mesh, request):
    """Split marked cells exactly as labeled, skipping the strategy.

    This is the path the strategy exists to replace; its output can
    violate the refinement guarantees and is used to exercise
    :func:`check_refinement_invariants`.
    """
    _check_markable(mesh, request.marked)
    return _split(mesh, [], request.labels, request.labels)


def _point_interior_to_region(rects, s, t):
    """Exact test that (s, t) lies in the open interior of a rectangle union."""
    quads = [(False, False), (True, False), (False, True), (True, True)]
    for (neg_s, neg_t) in quads:
        covered = False
        for (s0, s1, t0, t1) in rects:
            ok_s = (s0 < s <= s1) if neg_s else (s0 <= s < s1)
            ok_t = (t0 < t <= t1) if neg_t else (t0 <= t < t1)
            if ok_s and ok_t:
                covered = True
                break
        if not covered:
            return False
    return True


def _rects_share_edge(a, b):
    as0, as1, at0, at1 = a
    bs0, bs1, bt0, bt1 = b
    if as1 == bs0 or bs1 == as0:
        if min(at1, bt1) > max(at0, bt0):
            return True
    if at1 == bt0 or bt1 == at0:
        if min(as1, bs1) > max(as0, bs0):
            return True
    return False


def check_refinement_invariants(before, after, report):
    """Re-derive the refinement guarantees from the meshes themselves.

    Fails when a pre-existing T-vertex became a crossing vertex, when a
    subdivided cell gained no new basis vertex on its closure, when a
    group's image is not a single connected group, when a T-vertex sits
    on a group-interior edge, or when two distinct groups ended up
    sharing an edge.  Both meshes must share their level-0 knots, so that
    positions compare on the lattice.  Returns (ok, diagnostics).
    """
    if [a.knots for a in before.axes] != [a.knots for a in after.axes]:
        raise ValueError("meshes on different level-0 knots")
    diags = []
    # the after-mesh vertex at each before-mesh vertex's position, -1 where none
    for vid, aid in enumerate(vertices_at(after, before.vertex_table()).tolist()):
        if before.classify_vertex(vid) is VertexKind.T_JUNCTION:
            if aid >= 0 and after.classify_vertex(aid) is VertexKind.CROSSING:
                s, t = before.vertex(vid).position_float()
                diags.append(f"T-vertex at ({s}, {t}) became a crossing vertex")
    after_pos = after.vertex_table()
    fresh = np.flatnonzero(vertices_at(before, after_pos) < 0)
    i, j = after_pos[fresh[after._basis_mask(fresh)]].T
    for cid in report.performed:
        i0, i1, j0, j1 = before.cell(cid).lattice_bounds
        if not ((i0 <= i) & (i <= i1) & (j0 <= j) & (j <= j1)).any():
            diags.append(f"subdivided cell {cid} gained no new basis vertex")

    group_child_rects = []
    for g in report.groups:
        kids = []
        for cid in g.members:
            if cid in report.performed:
                kids.extend(report.performed[cid][1])
        if not kids:
            continue
        rects = [after.cell(k).lattice_bounds for k in kids]
        group_child_rects.append((g, kids, rects))
        if len(kids) > 1:
            images = flood_fill_groups(after, kids)
            if len(images) != 1:
                diags.append(f"image of group {g.members} splits into {len(images)} groups")
        # no T-vertex on interior edges of the image
        for vid, (i, j) in enumerate(after_pos.tolist()):
            if not _point_interior_to_region(rects, i, j):
                continue
            on_edge = not set(after.vertex_cells(vid)).isdisjoint(kids)
            if on_edge and after.classify_vertex(vid) is VertexKind.T_JUNCTION:
                s, t = after.vertex(vid).position_float()
                diags.append(f"T-vertex at ({s}, {t}) on interior edge of group {g.members}")
    for i in range(len(group_child_rects)):
        for j in range(i + 1, len(group_child_rects)):
            ra = group_child_rects[i][2]
            rb = group_child_rects[j][2]
            if any(_rects_share_edge(a, b) for a in ra for b in rb):
                diags.append(
                    f"groups {group_child_rects[i][0].members} and "
                    f"{group_child_rects[j][0].members} share an edge after refinement")
    return (not diags), diags


def ring_expand(mesh, cells):
    """Active cells sharing an edge with the given set, and the set."""
    out = set(cells)
    for cid in cells:
        out |= edge_neighbors(mesh, cid)
    return out


def interior_edge_samples(mesh, n_per_edge=3):
    """(cell a, cell b, s array, t array) for shared interior edge pieces,
    each piece once (a < b), from the cells' edge neighbors."""
    out = []
    ticks = np.linspace(0.15, 0.85, n_per_edge)
    s_axis, t_axis = mesh.axes
    for a in mesh.active_cells():
        ca = mesh.cell(a)
        for b in sorted(edge_neighbors(mesh, a)):
            if b < a:
                continue
            cb = mesh.cell(b)
            if ca.i1 == cb.i0 or cb.i1 == ca.i0:
                lo, hi = t_axis.float(max(ca.j0, cb.j0)), t_axis.float(min(ca.j1, cb.j1))
                t = lo + (hi - lo) * ticks
                out.append((a, b, np.full_like(t, s_axis.float(max(ca.i0, cb.i0))), t))
            else:
                lo, hi = s_axis.float(max(ca.i0, cb.i0)), s_axis.float(min(ca.i1, cb.i1))
                s = lo + (hi - lo) * ticks
                out.append((a, b, s, np.full_like(s, t_axis.float(max(ca.j0, cb.j0)))))
    return out


def verify_space(space, n_samples=2000, seed=0):
    """Numerical health report of a spline space.

    Checks the dimension formula, partition of unity and nonnegativity at
    random points, C1 continuity across interior edges of a random field,
    and the Hermite round trip that underpins linear independence.
    """
    rng = np.random.default_rng(seed)
    mesh = space.mesh
    s0, s1, t0, t1 = (float(x) for x in mesh.domain)
    s = rng.uniform(s0, s1, n_samples)
    t = rng.uniform(t0, t1, n_samples)
    ones = SplineField(space, np.ones(space.dim))
    pu = ones.eval_many(s, t)[0]
    max_pu_err = float(np.max(np.abs(pu - 1.0)))

    # every basis function at 12 random local points per cell
    act = mesh.active_cells()
    u = rng.uniform(0, 1, (len(act), 12))
    v = rng.uniform(0, 1, (len(act), 12))
    min_val = np.inf
    for sl in _blocks(len(act)):
        blk = _Cells(space, act[sl])
        vals = _eval_patches(blk.patches, _bernstein_tables(u[sl], v[sl], ((0, 0),)),
                             (0, 0), blk.width, blk.height)
        min_val = min(min_val, float(vals[blk.valid].min(initial=np.inf)))

    field = SplineField(space, rng.standard_normal(space.dim))
    scale = max(abs(float(x)) for x in field.coefficients) or 1.0
    pieces = interior_edge_samples(mesh)
    c1_jump = 0.0
    if pieces:
        a, b, es, et = (np.concatenate([np.broadcast_to(p[k], p[2].shape) for p in pieces])
                        for k in range(4))
        jump = field.eval_located(a, es, et, DERIV_ORDERS[:3]) - \
            field.eval_located(b, es, et, DERIV_ORDERS[:3])
        c1_jump = float(np.max(np.abs(jump))) / scale

    # the Hermite data of the round-trip field, read in one incident cell
    vids = space.vertices
    data = {vid: rng.standard_normal(4) for vid in vids}
    rt = field_from_vertex_data(space, data)
    s, t = zip(*(mesh.vertex(vid).position_float() for vid in vids))
    got = rt.eval_located([mesh.vertex_cells(vid)[0] for vid in vids], s, t,
                          HERMITE_ORDERS)
    rt_err = float(np.max(np.abs(got.T - np.array([data[vid] for vid in vids]))))

    return {
        "dim": space.dim,
        "dim_expected": mesh.dimension(),
        "dim_ok": space.dim == mesh.dimension(),
        "max_partition_error": max_pu_err,
        "min_value": min_val,
        "c1_max_jump": c1_jump,
        "hermite_roundtrip_error": rt_err,
    }
