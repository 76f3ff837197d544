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

The per-cell and per-function views of a space, its patch-scanning
collocation table and its JSON form are read from the piece table through
`SplineSpace.pieces`: `cell_entries` gives the {cell: (function ids,
patches)} dict the table replaced, `supports` the {cell: patch} dict of
every function, and `from_supports` builds a space back, its collocation
table read from the patches' corner data (`factors_from_patches`).  The
JSON files of spaces, fields and geometries are written per function
(`space_to_json_dict` and its companions).
"""

import json
from bisect import bisect_right
from collections import Counter
from enum import Enum
from fractions import Fraction

import numpy as np

from anisoline import bezier
from anisoline.geometry import Geometry
from anisoline.refine import _check_markable, _split, flood_fill_groups
from anisoline.space import (
    DERIV_ORDERS, HERMITE_ORDERS, SplineField, SplineSpace, _bernstein_tables, _blocks,
    _Cells, _eval_patches, _kron2, _place, field_from_vertex_data,
)
from anisoline.tmesh import LATTICE_DEPTH, AdjacencyKind, TMesh, VertexKind, _unique_rows

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


class Contact(Enum):
    """The relations `adjacency` gives beside the two aligned kinds of
    `AdjacencyKind`."""
    NOT_ADJACENT = "NotAdjacent"
    ADJACENT_ONLY = "AdjacentOnly"


def adjacency(mesh, cid1, cid2):
    """Neighbor relation of two active cells: an aligned `AdjacencyKind`
    or a `Contact`."""
    c1, c2 = mesh._active_cell(cid1), mesh._active_cell(cid2)
    if cid1 == cid2:
        return Contact.NOT_ADJACENT
    a0, a1, b0, b1 = c1.lattice_bounds
    p0, p1, q0, q1 = c2.lattice_bounds
    # a vertical common edge (side by side), then a horizontal one (stacked)
    for touch, overlap, aligned, kind in (
            (a1 == p0 or p1 == a0, min(b1, q1) > max(b0, q0), (b0, b1) == (q0, q1),
             AdjacencyKind.HORIZONTALLY_ALIGNED),
            (b1 == q0 or q1 == b0, min(a1, p1) > max(a0, p0), (a0, a1) == (p0, p1),
             AdjacencyKind.VERTICALLY_ALIGNED)):
        if touch and overlap:
            return kind if aligned else Contact.ADJACENT_ONLY
    return Contact.NOT_ADJACENT


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


def _padded(counts, fids, patches):
    """Pieces of `SplineSpace.pieces` as function ids (c, F), patches (c,
    F, 4, 4) and the mask of real entries, padded to the widest cell;
    padding has id 0 and a zero patch."""
    valid = np.arange(counts.max(initial=0)) < counts[:, None]
    if valid.all():
        return fids.reshape(valid.shape), patches.reshape(valid.shape + (4, 4)), valid
    padded_fids = np.zeros(valid.shape, dtype=np.intp)
    padded_patches = np.zeros(valid.shape + (4, 4))
    padded_fids[valid] = fids
    padded_patches[valid] = patches
    return padded_fids, padded_patches, valid


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
        blk = _Cells(mesh, act[sl])
        _, patches, valid = _padded(*space.pieces(act[sl]))
        vals = _eval_patches(patches, _bernstein_tables(u[sl], v[sl], ((0, 0),)),
                             (0, 0), blk.width, blk.height)
        min_val = min(min_val, float(vals[valid].min(initial=np.inf)))

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


# ----------------------------------------------------------------------
# per-cell and per-function views of a space, and its JSON form

def functions_on_cell(space, cid):
    """The ids of the functions living on one active cell, ascending."""
    return space.pieces([cid])[1].tolist()


def cell_entries(space):
    """{active cell id: (function ids (F,), patches (F, 4, 4))}, the
    per-cell dict the piece table replaced."""
    active = space.mesh.active_cells()
    counts, fids, patches = space.pieces(active)
    cut = np.cumsum(counts)[:-1]
    return dict(zip(active, zip(np.split(fids, cut), np.split(patches, cut))))


def supports(space):
    """Per function, its patches {cell id: (4, 4) patch} in ascending cell
    order."""
    out = [{} for _ in range(space.dim)]
    for cid, (fids, patches) in cell_entries(space).items():
        for fid, patch in zip(fids.tolist(), patches):
            out[fid][cid] = patch
    return out


def from_supports(mesh, vertices, supports, factors=None):
    """The space whose function 4k + slot, at basis vertex vertices[k],
    has the patches supports[4k + slot] ({cell id: (4, 4) patch}), all
    pieces in one buffer as their nonzero corner blocks.  Without
    `factors` its collocation table is read from the patches
    (`factors_from_patches`)."""
    if len(supports) != 4 * len(vertices):
        raise ValueError(f"{len(supports)} functions for {len(vertices)} basis vertices, "
                         f"expected four per vertex")
    if len(set(vertices)) != len(vertices):
        twice = next(v for k, v in enumerate(vertices) if v in vertices[:k])
        raise ValueError(f"basis vertex {twice} is listed twice")
    pieces = sorted((cid, fid) for fid, support in enumerate(supports) for cid in support)
    patches = np.array([supports[fid][cid] for cid, fid in pieces], dtype=float).reshape(-1, 4, 4)
    # (piece, ct, i, cs, j) -> (piece, corner cs + 2 ct, i, j)
    blocks = patches.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(-1, 4, 2, 2)
    at, code = np.nonzero(blocks.any(axis=(2, 3)))
    cells = np.array([cid for cid, _ in pieces], dtype=np.intp)[at]
    order = np.lexsort((code, cells))          # by cell, corner, function
    fids = np.array([fid for _, fid in pieces], dtype=np.intp)[at]
    buffer = (fids[order], code[order].astype(np.int8), blocks[at, code][order])
    index = np.zeros((3, len(mesh.cell_bounds())), dtype=np.intp)
    _place(index, 0, np.unique(cells), cells[order])
    space = SplineSpace(mesh, list(vertices), [buffer], index,
                        np.zeros((len(vertices), 2, 2, 2)) if factors is None else factors)
    if factors is None:
        space.factors = factors_from_patches(space)
    return space


def basis_data_at_vertex(space, fid, vid):
    """(f, f_s, f_t, f_st) of one function at a vertex, zeros off-support."""
    v = space.mesh.vertex(vid)
    for cid in space.mesh.vertex_cells(vid):
        c = space.mesh.cell(cid)
        _, fids, patches = space.pieces([cid])
        k = np.searchsorted(fids, fid)
        if k < len(fids) and fids[k] == fid and \
                v.i in (c.i0, c.i1) and v.j in (c.j0, c.j1):
            corner = (0 if v.i == c.i0 else 1, 0 if v.j == c.j0 else 1)
            return bezier.corner_data(patches[k], corner, *c.size_float())
    return np.zeros(4)


def factors_from_patches(space):
    """The collocation table of a space, read from its patches' corner
    data: each vertex's block split into its Kronecker factors S and T."""
    vids = space.vertices
    B = np.array([[basis_data_at_vertex(space, 4 * k + slot, vid) for slot in range(4)]
                  for k, vid in enumerate(vids)]).reshape(-1, 4, 4)
    n = len(B)
    # B[k, 2 tv + sv, 2 dt + ds] = T[tv, dt] S[sv, ds]: a rank-one R per vertex
    R = B.reshape(n, 2, 2, 2, 2).transpose(0, 2, 4, 1, 3).reshape(n, 4, 4)
    k = np.arange(n)
    i, j = np.unravel_index(np.abs(R).reshape(n, 16).argmax(axis=1), (4, 4))
    pivot = R[k, i, j]
    S = np.divide(R[k, :, j], pivot[:, None], out=np.zeros((n, 4)), where=pivot[:, None] != 0)
    factors = np.stack([S, R[k, i, :]], axis=1).reshape(n, 2, 2, 2)
    # each data column (f, f_s, f_t, f_st) on its own scale
    gap = np.abs(_kron2(factors[:, 1], factors[:, 0]) - B)
    bad = ~(gap <= 1e-9 * np.abs(B).max(axis=1, keepdims=True)).all(axis=(1, 2))
    if bad.any():
        raise ValueError(f"collocation data at vertex {vids[int(np.argmax(bad))]} "
                         f"is not a tensor product")
    return factors


def space_to_json_dict(space):
    return {
        "mesh": space.mesh.to_json_dict(),
        "functions": [
            {"anchor": space.vertices[fid // 4], "slot": fid % 4,
             "birth_level": space.mesh.vertex(space.vertices[fid // 4]).level,
             "support": {str(cid): [float(x) for x in patch.ravel()]
                         for cid, patch in support.items()}}
            for fid, support in enumerate(supports(space))],
    }


def space_from_json_dict(d):
    """The space of `space_to_json_dict`: four functions per basis vertex,
    in slot order, or a ValueError names the first out of place."""
    mesh = TMesh.from_json_dict(d["mesh"])
    records = d["functions"]
    vertices = [fd["anchor"] for fd in records[::4]]
    for fid, fd in enumerate(records):
        if (fd["anchor"], fd["slot"]) != (vertices[fid // 4], fid % 4):
            raise ValueError(f"function {fid} is slot {fd['slot']} of vertex {fd['anchor']}, "
                             f"expected slot {fid % 4} of vertex {vertices[fid // 4]}")
    return from_supports(mesh, vertices, [{int(cid): np.array(vals, dtype=float).reshape(4, 4)
                                           for cid, vals in fd["support"].items()}
                                          for fd in records])


def space_to_json(space, **kw):
    return json.dumps(space_to_json_dict(space), **kw)


def space_from_json(text):
    return space_from_json_dict(json.loads(text))


GEOMETRY_FORMAT_VERSION = 1


def geometry_to_json(geometry, **kw):
    return json.dumps({
        "version": GEOMETRY_FORMAT_VERSION,
        "degenerate_params": [list(p) for p in geometry.degenerate_params],
        "field": {"coefficients": geometry.field.coefficients.tolist(),
                  "space": space_to_json_dict(geometry.space)},
    }, **kw)


def geometry_from_json(text):
    d = json.loads(text)
    if d.get("version") != GEOMETRY_FORMAT_VERSION:
        raise ValueError(f"unsupported geometry format version {d.get('version')!r}")
    field = SplineField(space_from_json_dict(d["field"]["space"]),
                        np.array(d["field"]["coefficients"]))
    return Geometry(field, d.get("degenerate_params", ()))
