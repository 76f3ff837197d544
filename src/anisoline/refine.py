"""Anisotropic refinement of modified hierarchical T-meshes.

Marked cells of the current level come with a proposed split label 'H',
'V' or 'C'.  Splitting them verbatim can (i) promote an old T-vertex into
a crossing vertex and (ii) leave a subdivided cell without any new basis
vertex, both of which break the spline-space bookkeeping.  The strategy
implemented here avoids both:

1. classify the marked set into connected groups by flood fill through
   aligned-adjacency (adjacent marked cells that are *not* aligned are
   kept in different groups);
2. inside a group with identical labels, relabel to 'C' the chain of
   cells that would gain no new basis vertex; inside a mixed group,
   relabel every cell from its in-group aligned neighbors (only
   horizontal -> 'H', only vertical -> 'V', both or none -> 'C');
3. split according to the final labels.

:func:`check_refinement_invariants` re-derives the guarantees from the
before/after meshes and is used as the oracle in randomized tests.
:func:`naive_subdivide` bypasses step 2 so the failure modes can be
reproduced and rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .tmesh import AdjacencyKind, TMesh, VertexKind

__all__ = [
    "ConnectedGroup", "RefinementRequest", "RefinementReport",
    "flood_fill_groups", "resolve_labels", "refine", "naive_subdivide",
    "check_refinement_invariants", "simulate_new_basis_vertices",
]

_ALIGNED = (AdjacencyKind.HORIZONTALLY_ALIGNED, AdjacencyKind.VERTICALLY_ALIGNED)


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
    """Everything one refinement round did, plus before/after mesh values."""
    level: int
    groups: list
    proposed_labels: dict
    final_labels: dict
    performed: dict                 # cell id -> (kind, child ids)
    new_vertices: list              # ids in the after-mesh
    new_basis_vertices: list        # ids in the after-mesh
    cell_new_basis: dict            # subdivided cell id -> new basis vertex ids
    t_to_crossing: list             # (vertex id, position) promotions, must be empty
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
                {"id": vid,
                 "position": [float(after.vertex(vid).s), float(after.vertex(vid).t)]}
                for vid in self.new_basis_vertices],
            "cell_new_basis": {str(k): list(v) for k, v in sorted(self.cell_new_basis.items())},
            "t_to_crossing_count": self.transition_count,
        }


def _check_markable(mesh, marked):
    for cid in marked:
        c = mesh.cell(cid)
        if not c.active:
            raise ValueError(f"marked cell {cid} is not active")
        if c.level != mesh.current_level:
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
    marked_set = set(marked)
    aligned = {c: {} for c in marked}
    conflict = {c: set() for c in marked}
    for a in marked:
        for b in mesh.edge_neighbors(a):
            if b not in marked_set or b <= a:
                continue
            k = mesh.adjacency(a, b)
            if k in _ALIGNED:
                aligned[a][b] = k
                aligned[b][a] = k
            elif k is AdjacencyKind.ADJACENT_ONLY:
                conflict[a].add(b)
                conflict[b].add(a)
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
        for i, a in enumerate(mem):
            for b in mem[i + 1:]:
                k = aligned[a].get(b)
                if k is not None:
                    edges[(a, b)] = k
        groups.append(ConnectedGroup(tuple(mem), edges))
    return groups


def _split_candidates(cell, kind):
    """(side, position) midpoints the split cuts into, plus center for 'C'."""
    s0, s1, t0, t1 = cell.bounds
    sm = (s0 + s1) / 2
    tm = (t0 + t1) / 2
    if kind == "H":
        sides = [("left", (s0, tm)), ("right", (s1, tm))]
    elif kind == "V":
        sides = [("bottom", (sm, t0)), ("top", (sm, t1))]
    else:
        sides = [("left", (s0, tm)), ("right", (s1, tm)),
                 ("bottom", (sm, t0)), ("top", (sm, t1))]
    center = (sm, tm) if kind == "C" else None
    return sides, center


_HITS_VERTICAL_EDGE = ("H", "C")     # cuts arriving at a left/right edge midpoint
_HITS_HORIZONTAL_EDGE = ("V", "C")   # cuts arriving at a bottom/top edge midpoint


def simulate_new_basis_vertices(mesh, splits):
    """Predict, per cell, the new basis vertices a joint split set creates.

    `splits` maps cell id -> kind.  A genuinely new position becomes a
    basis vertex when it lies on the domain boundary, at a cross center,
    or at an edge midpoint cut from both sides.  Existing vertices are
    never counted (promoting one is exactly what the strategy forbids).
    Returns dict cell id -> set of positions.
    """
    out = {}
    for cid, kind in splits.items():
        cell = mesh.cell(cid)
        sides, center = _split_candidates(cell, kind)
        found = set()
        if center is not None:
            found.add(center)
        for side, pos in sides:
            if mesh.vertex_at(*pos) is not None:
                continue
            if mesh.is_boundary_position(*pos):
                found.add(pos)
                continue
            nb = mesh.aligned_neighbor(cid, side)
            if nb is None or nb not in splits:
                continue
            hits = _HITS_VERTICAL_EDGE if side in ("left", "right") else _HITS_HORIZONTAL_EDGE
            if splits[nb] in hits:
                found.add(pos)
        out[cid] = found
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


def _build_report(before, after, groups, proposed, final, performed):
    old_pos = set(before._vpos)
    new_ids = sorted(vid for (pos, vid) in after._vpos.items() if pos not in old_pos)
    new_basis = [vid for vid in new_ids if after.is_basis_vertex(vid)]
    cell_new = {cid: [] for cid in performed}
    for vid in new_basis:
        parents = {after.cell(ch).parent for ch in after.vertex_cells(vid)}
        for p in parents:
            if p in cell_new:
                cell_new[p].append(vid)
    # only vertices on the closure of a subdivided cell can change kind
    promotions = []
    seen = set()
    for cid in performed:
        for vid in before.cell_vertices(cid):
            if vid in seen:
                continue
            seen.add(vid)
            if before.classify_vertex(vid) is VertexKind.T_JUNCTION:
                pos = before.vertex(vid).position
                aid = after._vpos.get(pos)
                if aid is not None and after.classify_vertex(aid) is VertexKind.CROSSING:
                    promotions.append((aid, (float(pos[0]), float(pos[1]))))
    return RefinementReport(
        level=before.current_level,
        groups=groups,
        proposed_labels=dict(proposed),
        final_labels=dict(final),
        performed=performed,
        new_vertices=new_ids,
        new_basis_vertices=new_basis,
        cell_new_basis=cell_new,
        t_to_crossing=promotions,
        mesh_before=before,
        mesh_after=after,
    )


def refine(mesh, request):
    """One round of the refinement strategy.  Returns (new mesh, report).

    The input mesh is left untouched; an empty request returns it as is
    with an empty report.
    """
    if not request.marked:
        return mesh, _build_report(mesh, mesh, [], {}, {}, {})
    _check_markable(mesh, request.marked)
    groups = flood_fill_groups(mesh, request.marked)
    final = {}
    for g in groups:
        final.update(resolve_labels(mesh, g, request.labels))
    after = mesh.copy()
    performed = {}
    for cid in sorted(final):
        kids = after.split_cell(cid, final[cid])
        after.cell(cid).label = final[cid]
        performed[cid] = (final[cid], kids)
    after.advance_current_level()
    return after, _build_report(mesh, after, groups, request.labels, final, performed)


def naive_subdivide(mesh, request):
    """Split marked cells exactly as labeled, skipping the strategy.

    This is the path the strategy exists to replace; its output can
    violate the refinement guarantees and is used to exercise
    :func:`check_refinement_invariants`.
    """
    if not request.marked:
        return mesh, _build_report(mesh, mesh, [], {}, {}, {})
    _check_markable(mesh, request.marked)
    after = mesh.copy()
    performed = {}
    for cid in sorted(request.marked):
        kind = request.labels[cid]
        kids = after.split_cell(cid, kind)
        after.cell(cid).label = kind
        performed[cid] = (kind, kids)
    after.advance_current_level()
    return after, _build_report(mesh, after, [], dict(request.labels), dict(request.labels), performed)


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
    sharing an edge.  Returns (ok, diagnostics).
    """
    diags = []
    for pos, vid in before._vpos.items():
        if before.classify_vertex(vid) is VertexKind.T_JUNCTION:
            aid = after._vpos.get(pos)
            if aid is not None and after.classify_vertex(aid) is VertexKind.CROSSING:
                diags.append(
                    f"T-vertex at ({float(pos[0])}, {float(pos[1])}) became a crossing vertex")
    old_pos = set(before._vpos)
    new_basis_pos = {after.vertex(vid).position
                     for (pos, vid) in after._vpos.items()
                     if pos not in old_pos and after.is_basis_vertex(vid)}
    for cid, (kind, kids) in report.performed.items():
        cell = before.cell(cid)
        if not any(cell.contains_point(s, t) for (s, t) in new_basis_pos):
            diags.append(f"subdivided cell {cid} gained no new basis vertex")

    group_child_rects = []
    for g in report.groups:
        kids = []
        for cid in g.members:
            if cid in report.performed:
                kids.extend(report.performed[cid][1])
        if not kids:
            continue
        rects = [after.cell(k).bounds for k in kids]
        group_child_rects.append((g, kids, rects))
        if len(kids) > 1:
            images = flood_fill_groups(after, kids)
            if len(images) != 1:
                diags.append(f"image of group {g.members} splits into {len(images)} groups")
        # no T-vertex on interior edges of the image
        for vid in after.vertices():
            v = after.vertex(vid)
            if not _point_interior_to_region(rects, v.s, v.t):
                continue
            on_edge = any(TMesh._on_cell_boundary(after.cell(k), v.s, v.t) for k in kids)
            if on_edge and after.classify_vertex(vid) is VertexKind.T_JUNCTION:
                diags.append(
                    f"T-vertex at ({float(v.s)}, {float(v.t)}) on interior edge of group {g.members}")
    for i in range(len(group_child_rects)):
        for j in range(i + 1, len(group_child_rects)):
            ra = group_child_rects[i][2]
            rb = group_child_rects[j][2]
            if any(_rects_share_edge(a, b) for a in ra for b in rb):
                diags.append(
                    f"groups {group_child_rects[i][0].members} and "
                    f"{group_child_rects[j][0].members} share an edge after refinement")
    return (not diags), diags
