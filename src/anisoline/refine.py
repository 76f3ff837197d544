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
   components of the aligned pairs.  Each group keeps its members'
   in-group aligned neighbors as the fill finds them;
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
lookup of the meshes' edge-direction masks.  The test suite's oracle
(`check_refinement_invariants` in `tests/oracles.py`) re-derives these
guarantees from the before/after meshes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tmesh import AdjacencyKind, TMesh, _unique_rows, cut_rule

__all__ = [
    "ConnectedGroup", "RefinementRequest", "RefinementReport",
    "flood_fill_groups", "resolve_labels", "refine", "simulate_new_basis_vertices",
]


@dataclass(frozen=True)
class ConnectedGroup:
    """A maximal set of marked cells closed under aligned-adjacency chains."""
    members: tuple
    # member -> its in-group aligned neighbors as (id, AdjacencyKind), ascending
    neighbors: dict = field(compare=False, default_factory=dict)

    def aligned_neighbors(self, cid, kind=None):
        return [nb for nb, k in self.neighbors.get(cid, ()) if kind is None or k is kind]


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
        members, queue, neighbors = {seed}, [seed], {}
        # breadth first: the queue grows while it is read.  A neighbor kept
        # out conflicts with a member and stays out, so a member's in-group
        # neighbors are known when it is read.
        for cur in queue:
            links = []
            # ascending: the pairs come by low id, then high id, so each
            # cell's lower neighbors were filled in first, then its higher
            for nb, kind in aligned[cur].items():
                if nb not in members:
                    if nb in assigned or not conflict[nb].isdisjoint(members):
                        continue
                    members.add(nb)
                    queue.append(nb)
                links.append((nb, kind))
            neighbors[cur] = tuple(links)
        assigned |= members
        groups.append(ConnectedGroup(tuple(sorted(members)), neighbors))
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
    basis = (joint == 0b1111) | mesh.at_domain_ends(pos).any(axis=1)
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
    groups = flood_fill_groups(mesh, request.marked)
    final = {}
    for g in groups:
        final.update(resolve_labels(mesh, g, request.labels))
    return _split(mesh, groups, request.labels, final)

