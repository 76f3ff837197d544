"""Anisotropic refinement of modified hierarchical T-meshes.

Marked cells of the current level come with a proposed split label 'H',
'V' or 'C'.  Splitting them verbatim can (i) promote an old T-vertex into
a crossing vertex and (ii) leave a subdivided cell without any new basis
vertex, both of which break the spline-space bookkeeping.  The strategy
implemented here avoids both:

1. classify the marked set into connected groups by flood fill through
   aligned-adjacency: the marked pairs that share an edge piece come from
   one batched pass over the mesh's incidence
   (:meth:`anisoline.tmesh.TMesh.edge_neighbor_pairs`), each classified
   as aligned or adjacent only from the cells' lattice bounds, and a cell
   adjacent but not aligned to a member of a group is kept out of it, so
   the fill is a search with a conflict rule, not the connected
   components of the aligned pairs;
2. inside a group with identical labels, relabel to 'C' the chain of
   cells that would gain no new basis vertex; inside a mixed group,
   relabel every cell from its in-group aligned neighbors (only
   horizontal -> 'H', only vertical -> 'V', both or none -> 'C');
3. split every cell by its final label in one batch
   (:meth:`anisoline.tmesh.TMesh.split_many` on a copy of the mesh), which
   appends the children and the new cut vertices to the mesh's tables and
   returns each cell's children and the vertex ids at its cut points.

A split adds edges only at the lattice points it cuts through, with the
edge directions :func:`anisoline.tmesh.cut_rule` states, so vertex kinds
change only there.  :func:`simulate_new_basis_vertices` ORs the cuts of a
split set over the positions that are not yet vertices, and a round's
report reads its new basis vertices and its T-to-crossing promotions off
the cut vertex ids the batch returned, with kinds read in one batched
lookup of the meshes' edge-direction masks.

:func:`check_refinement_invariants` re-derives the guarantees from the
before/after meshes and is used as the oracle in randomized tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tmesh import AdjacencyKind, TMesh, VertexKind, _unique_rows, cut_rule

__all__ = [
    "ConnectedGroup", "RefinementRequest", "RefinementReport",
    "flood_fill_groups", "resolve_labels", "refine",
    "check_refinement_invariants", "simulate_new_basis_vertices",
]

@dataclass(frozen=True)
class ConnectedGroup:
    """A maximal set of marked cells closed under aligned-adjacency chains."""
    members: tuple
    edges: dict = field(compare=False, default_factory=dict)
    # cell id -> [(neighbor, kind)] sorted by neighbor, built from `edges`
    _adjacent: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        adjacent = {}
        for (a, b), k in self.edges.items():
            adjacent.setdefault(a, []).append((b, k))
            adjacent.setdefault(b, []).append((a, k))
        for links in adjacent.values():
            links.sort(key=lambda link: link[0])
        object.__setattr__(self, "_adjacent", adjacent)

    def aligned_neighbors(self, cid, kind=None):
        return [nb for nb, k in self._adjacent.get(cid, ())
                if kind is None or k is kind]


@dataclass
class RefinementRequest:
    """Marked cell ids plus one proposed label per marked cell."""
    marked: tuple
    labels: dict

    def __init__(self, labels):
        self.labels = dict(labels)
        self.marked = tuple(sorted(self.labels))
        for cid, lab in self.labels.items():
            if lab not in ("H", "V", "C"):
                raise ValueError(f"cell {cid}: invalid label {lab!r}")


@dataclass
class RefinementReport:
    """Everything one refinement round did, plus before/after mesh values.

    A mesh hands out vertex ids in order, so the round's new vertices are
    the ids from the before-mesh's next one on; `new_basis_vertices` are
    the basis vertices among them, ascending.
    """
    level: int
    groups: list
    proposed_labels: dict
    final_labels: dict
    performed: dict                 # cell id -> (kind, child ids)
    new_basis_vertices: list        # ids in the after-mesh
    cell_new_basis: dict            # subdivided cell id -> new basis vertex ids
    t_to_crossing: list             # (vertex id, position) promotions by id, must be empty
    mesh_before: TMesh = field(repr=False, default=None)
    mesh_after: TMesh = field(repr=False, default=None)

    @property
    def transition_count(self):
        return len(self.t_to_crossing)

    def to_json_dict(self):
        after = self.mesh_after
        return {
            "level": self.level,
            "groups": [list(g.members) for g in self.groups],
            "proposed_labels": {str(k): v for k, v in sorted(self.proposed_labels.items())},
            "final_labels": {str(k): v for k, v in sorted(self.final_labels.items())},
            "performed": {str(k): {"kind": kind, "children": list(kids)}
                          for k, (kind, kids) in sorted(self.performed.items())},
            "new_basis_vertices": [
                {"id": vid, "position": list(after.vertex(vid).position_float())}
                for vid in self.new_basis_vertices],
            "cell_new_basis": {str(k): list(v) for k, v in sorted(self.cell_new_basis.items())},
            "t_to_crossing_count": self.transition_count,
        }


def _check_markable(mesh, marked):
    cids = np.asarray(marked, dtype=np.int64)
    markable = mesh._open(cids)
    if markable.all():
        return
    cid = int(cids[np.argmin(markable)])
    c = mesh.cell(cid)
    if not c.active:
        raise ValueError(f"marked cell {cid} is not active")
    raise ValueError(
        f"marked cell {cid} has level {c.level}; only cells of the "
        f"current level {mesh.current_level} may be marked")


def flood_fill_groups(mesh, marked):
    """Partition marked current-level cells into connected groups.

    Cells join a group through aligned-adjacent links; a cell that is
    adjacent-but-not-aligned to any cell already in the group is kept out
    and seeds (or joins) another group.  Cells are processed in ascending
    id, so the partition is deterministic.
    """
    marked = sorted(set(marked))
    _check_markable(mesh, marked)
    aligned = {c: {} for c in marked}
    conflict = {c: set() for c in marked}
    low, high = mesh.edge_neighbor_pairs(marked)
    lattice = mesh.cell_table().lattice
    la, lb = lattice[low], lattice[high]
    # a pair side by side shares a vertical edge piece, else a horizontal one
    side = (la[:, 1] == lb[:, 0]) | (lb[:, 1] == la[:, 0])
    horizontal = side & (la[:, 2:] == lb[:, 2:]).all(axis=1)
    vertical = ~side & (la[:, :2] == lb[:, :2]).all(axis=1)
    for x, y, h, v in zip(low.tolist(), high.tolist(), horizontal.tolist(), vertical.tolist()):
        if h or v:
            aligned[x][y] = aligned[y][x] = (AdjacencyKind.HORIZONTALLY_ALIGNED if h
                                             else AdjacencyKind.VERTICALLY_ALIGNED)
        else:
            conflict[x].add(y)
            conflict[y].add(x)
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
        edges = {}
        mem = sorted(members)
        for a in mem:
            for b in sorted(aligned[a]):
                if b > a and b in members:
                    edges[(a, b)] = aligned[a][b]
        groups.append(ConnectedGroup(tuple(mem), edges))
    return groups


def simulate_new_basis_vertices(mesh, splits):
    """Predict, per cell, the new basis vertices a joint split set creates.

    `splits` maps cell id -> kind.  The edge directions all cuts add are
    ORed per position; a position that is not yet a vertex becomes a basis
    vertex on the domain boundary or with all four directions (a cross
    center, or an edge midpoint cut from both sides).  Existing vertices
    never count: promoting one is what the strategy forbids.  Returns dict
    cell id -> set of lattice positions (i, j).
    """
    cids = list(splits)
    grid, _, (owner, point, bits) = cut_rule(mesh.cell_table().lattice[cids],
                                             [splits[cid] for cid in cids])
    ij = grid[owner[:, None], [0, 1], point]
    fresh = np.flatnonzero(mesh._vertices_at_cuts(ij, point) < 0)
    first, inverse = _unique_rows(ij[fresh])
    pos = ij[fresh[first]]
    joint = np.zeros(len(pos), dtype=np.int64)
    np.bitwise_or.at(joint, inverse, bits[fresh])
    basis = (joint == 0b1111) | ((pos == 0) | (pos == [a.end for a in mesh.axes])).any(axis=1)
    out = {cid: set() for cid in cids}
    for k in fresh[basis[inverse]].tolist():
        out[cids[owner[k]]].add(tuple(ij[k].tolist()))
    return out


def resolve_labels(mesh, group, labels):
    """Final labels of one connected group.

    Identical labels: every cell that would gain no new basis vertex is
    relabeled 'C' together with the cells reachable from it through
    in-group aligned chains orthogonal to the split direction (vertical
    chains for 'H', horizontal for 'V').  Mixed labels: each cell is
    relabeled purely from its in-group aligned neighbors.
    """
    try:
        current = {cid: labels[cid] for cid in group.members}
    except KeyError as e:
        raise ValueError(f"label missing for group member {e.args[0]}") from None
    distinct = set(current.values())
    if len(distinct) == 1:
        lab = distinct.pop()
        if lab == "C":
            return current
        sim = simulate_new_basis_vertices(mesh, current)
        failing = [cid for cid in group.members if not sim[cid]]
        if not failing:
            return current
        chain_kind = (AdjacencyKind.VERTICALLY_ALIGNED if lab == "H"
                      else AdjacencyKind.HORIZONTALLY_ALIGNED)
        relabel = set()
        for cid in failing:
            if cid in relabel:
                continue
            stack = [cid]
            while stack:
                cur = stack.pop()
                if cur in relabel:
                    continue
                relabel.add(cur)
                stack.extend(group.aligned_neighbors(cur, chain_kind))
        for cid in relabel:
            current[cid] = "C"
        return current
    out = {}
    for cid in group.members:
        has_h = bool(group.aligned_neighbors(cid, AdjacencyKind.HORIZONTALLY_ALIGNED))
        has_v = bool(group.aligned_neighbors(cid, AdjacencyKind.VERTICALLY_ALIGNED))
        if has_h and not has_v:
            out[cid] = "H"
        elif has_v and not has_h:
            out[cid] = "V"
        else:
            out[cid] = "C"
    return out


def _build_report(before, after, groups, proposed, final, performed, cuts):
    # `cuts` maps each split cell to the vertex ids at its cut points, the
    # only places a split makes vertices and changes kinds; a new basis
    # vertex on a split cell's closure is one of its own cuts (a neighbor's
    # cut on its edge stays a T-junction).  Ids below `born` name the same
    # vertex in both meshes, so an old one was promoted exactly when it is
    # a basis vertex after the round and was none before.
    born = len(before.vertex_table())
    vids = np.array([vid for cut in cuts.values() for vid in cut], dtype=np.intp)
    basis = after._basis_mask(vids)
    old = vids < born
    promoted = old & basis
    promoted[old] &= ~before._basis_mask(vids[old])
    new_basis = set(vids[~old & basis].tolist())
    cell_new = {cid: sorted(new_basis.intersection(cut)) for cid, cut in cuts.items()}
    promotions = [(vid, after.vertex(vid).position_float())
                  for vid in sorted(set(vids[promoted].tolist()))]
    return RefinementReport(
        level=before.current_level,
        groups=groups,
        proposed_labels=dict(proposed),
        final_labels=dict(final),
        performed=performed,
        new_basis_vertices=sorted(new_basis),
        cell_new_basis=cell_new,
        t_to_crossing=promotions,
        mesh_before=before,
        mesh_after=after,
    )


def _split(before, groups, proposed, final):
    """Split the cells of `final` by their labels, in one batch on a copy
    of `before`, and report the round; with nothing to split, `before` is
    returned as is."""
    if not final:
        return before, _build_report(before, before, groups, proposed, final, {}, {})
    after = before.copy()
    cids = sorted(final)
    children, cuts = after.split_many(cids, [final[cid] for cid in cids])
    after.advance_current_level()
    performed = {cid: (final[cid], kids) for cid, kids in zip(cids, children)}
    return after, _build_report(before, after, groups, proposed, final, performed,
                                dict(zip(cids, cuts)))


def refine(mesh, request):
    """One round of the refinement strategy.  Returns (new mesh, report).

    The input mesh is left untouched; an empty request returns it as is
    with an empty report.
    """
    _check_markable(mesh, request.marked)
    groups = flood_fill_groups(mesh, request.marked)
    final = {}
    for g in groups:
        final.update(resolve_labels(mesh, g, request.labels))
    return _split(mesh, groups, request.labels, final)


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
    for vid, aid in enumerate(after.vertices_at(before.vertex_table()).tolist()):
        if before.classify_vertex(vid) is VertexKind.T_JUNCTION:
            if aid >= 0 and after.classify_vertex(aid) is VertexKind.CROSSING:
                s, t = before.vertex(vid).position_float()
                diags.append(f"T-vertex at ({s}, {t}) became a crossing vertex")
    after_pos = after.vertex_table()
    fresh = np.flatnonzero(before.vertices_at(after_pos) < 0)
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
