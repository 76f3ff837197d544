"""T-meshes and modified hierarchical T-meshes on an axis-aligned rectangle.

A T-mesh is a rectangular grid that admits T-junctions: every grid-line
endpoint lies on the domain boundary or on two other grid lines, and every
cell is an axis-aligned rectangle.  The meshes built here are *leveled*:
starting from a tensor-product grid (level 0), cells are subdivided either
by a half split ('H' horizontal cut, 'V' vertical cut) or by a cross
insertion ('C'), producing children one level deeper.  Only cells whose
level equals the mesh's current level may be subdivided; a cell skipped at
its own level is frozen forever.

All vertex coordinates are stored as :class:`fractions.Fraction`.  Every
split happens at an interval midpoint, so coordinates stay exact dyadic
rationals and aligned-adjacency tests never suffer float round-off.

Point location (:meth:`TMesh.locate_many`) takes float parameters and
compares them against float thresholds only: every level-0 knot and every
split midpoint is stored as the smallest float >= its exact value.  For a
float s and a rational m, ``s >= m`` holds exactly when s is at least the
smallest float >= m, because s is itself a float; so the float comparison
reproduces the exact half-open rule on any knots, dyadic or not (on a
three-cell grid the float nearest 1/3 lies below 1/3 and stays in the
left cell).  The domain's far edges are stored as the largest float <=
each edge, for the same reason.
"""

from __future__ import annotations

import json
import math
from enum import Enum
from fractions import Fraction

import numpy as np

__all__ = [
    "VertexKind", "AdjacencyKind", "Vertex", "Cell", "TMesh",
    "create_tensor_mesh", "create_mesh_from_knots", "group_by_cell",
]

SPLIT_KINDS = ("H", "V", "C")


class VertexKind(Enum):
    BOUNDARY = "Boundary"
    CROSSING = "Crossing"
    T_JUNCTION = "TJunction"


class AdjacencyKind(Enum):
    NOT_ADJACENT = "NotAdjacent"
    ADJACENT_ONLY = "AdjacentOnly"
    HORIZONTALLY_ALIGNED = "HorizontallyAligned"
    VERTICALLY_ALIGNED = "VerticallyAligned"


def _frac(x):
    """Exact conversion; floats are binary rationals so this never rounds."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def _float_at_least(x):
    """Smallest float >= the exact rational x."""
    f = float(x)
    return f if Fraction(f) >= x else math.nextafter(f, math.inf)


def _float_at_most(x):
    """Largest float <= the exact rational x."""
    f = float(x)
    return f if Fraction(f) <= x else math.nextafter(f, -math.inf)


def group_by_cell(cell_ids):
    """Map each cell id to the ascending positions holding it in `cell_ids`."""
    cell_ids = np.asarray(cell_ids)
    order = np.argsort(cell_ids, kind="stable")
    ids, starts = np.unique(cell_ids[order], return_index=True)
    return {int(cid): idx for cid, idx in zip(ids, np.split(order, starts[1:]))}


class Vertex:
    """A grid point.  `level` is the level at which it first appeared."""

    __slots__ = ("id", "s", "t", "level")

    def __init__(self, vid, s, t, level):
        self.id = vid
        self.s = s
        self.t = t
        self.level = level

    @property
    def position(self):
        return (self.s, self.t)

    def __repr__(self):
        return f"Vertex({self.id}, s={self.s}, t={self.t}, level={self.level})"


class Cell:
    """A rectangular cell.  Active cells have no children."""

    __slots__ = ("id", "s0", "s1", "t0", "t1", "level", "parent", "children", "label")

    def __init__(self, cid, s0, s1, t0, t1, level, parent=None):
        self.id = cid
        self.s0 = s0
        self.s1 = s1
        self.t0 = t0
        self.t1 = t1
        self.level = level
        self.parent = parent
        self.children = ()
        self.label = None

    @property
    def active(self):
        return not self.children

    @property
    def bounds(self):
        return (self.s0, self.s1, self.t0, self.t1)

    def bounds_float(self):
        return (float(self.s0), float(self.s1), float(self.t0), float(self.t1))

    @property
    def width(self):
        return self.s1 - self.s0

    @property
    def height(self):
        return self.t1 - self.t0

    def area(self):
        return self.width * self.height

    def contains_point(self, s, t):
        return self.s0 <= s <= self.s1 and self.t0 <= t <= self.t1

    def copy(self):
        c = Cell(self.id, self.s0, self.s1, self.t0, self.t1, self.level, self.parent)
        c.children = self.children
        c.label = self.label
        return c

    def __repr__(self):
        b = self.bounds_float()
        state = "Subdivided" if self.children else "Active"
        return f"Cell({self.id}, {b}, level={self.level}, {state})"


class TMesh:
    """Leveled T-mesh with exact coordinates and full subdivision history.

    The mesh is a value: reading is safe from any number of threads, while
    :meth:`split_cell` requires exclusive access.  Use :meth:`copy` to build
    a modified version without touching the original.
    """

    def __init__(self, s_knots, t_knots):
        s_knots = [_frac(x) for x in s_knots]
        t_knots = [_frac(x) for x in t_knots]
        if len(s_knots) < 2 or len(t_knots) < 2:
            raise ValueError("need at least one cell in each direction")
        if any(b <= a for a, b in zip(s_knots, s_knots[1:])) or \
           any(b <= a for a, b in zip(t_knots, t_knots[1:])):
            raise ValueError("knot lines must be strictly increasing (degenerate domain)")
        self._init_knots = (list(s_knots), list(t_knots))
        self.domain = (s_knots[0], s_knots[-1], t_knots[0], t_knots[-1])
        self.current_level = 0
        self.generation_log = []

        self._cells = {}
        self._active = set()
        self._verts = {}
        self._vpos = {}
        self._vert_cells = {}
        self._cell_verts = {}
        self._s_line_cells = {}
        self._t_line_cells = {}
        self._next_cell = 0
        self._next_vert = 0
        self._locator = None

        for t0, t1 in zip(t_knots, t_knots[1:]):
            for s0, s1 in zip(s_knots, s_knots[1:]):
                self._new_cell(s0, s1, t0, t1, 0, None)
        for t in t_knots:
            for s in s_knots:
                self._get_or_make_vertex(s, t, 0)
        # a level-0 cell's boundary holds exactly its four corners
        for cid in range(self._next_cell):
            c = self._cells[cid]
            for s in (c.s0, c.s1):
                self._s_line_cells.setdefault(s, set()).add(cid)
            for t in (c.t0, c.t1):
                self._t_line_cells.setdefault(t, set()).add(cid)
            for vid in sorted(self._vpos[p] for p in
                              ((c.s0, c.t0), (c.s1, c.t0), (c.s0, c.t1), (c.s1, c.t1))):
                self._cell_verts[cid].add(vid)
                self._vert_cells[vid].add(cid)

    # ------------------------------------------------------------------
    # construction internals

    def _new_cell(self, s0, s1, t0, t1, level, parent):
        cid = self._next_cell
        self._next_cell += 1
        self._cells[cid] = Cell(cid, s0, s1, t0, t1, level, parent)
        self._active.add(cid)
        self._cell_verts[cid] = set()
        return cid

    def _get_or_make_vertex(self, s, t, level):
        key = (s, t)
        vid = self._vpos.get(key)
        if vid is None:
            vid = self._next_vert
            self._next_vert += 1
            self._verts[vid] = Vertex(vid, s, t, level)
            self._vpos[key] = vid
            self._vert_cells[vid] = set()
        return vid

    @staticmethod
    def _on_cell_boundary(c, s, t):
        if not (c.s0 <= s <= c.s1 and c.t0 <= t <= c.t1):
            return False
        return s == c.s0 or s == c.s1 or t == c.t0 or t == c.t1

    def _active_cells_at_point(self, s, t):
        """Active cells whose closed boundary contains (s, t)."""
        out = set()
        for cid in self._s_line_cells.get(s, ()):
            c = self._cells[cid]
            if c.t0 <= t <= c.t1:
                out.add(cid)
        for cid in self._t_line_cells.get(t, ()):
            c = self._cells[cid]
            if c.s0 <= s <= c.s1:
                out.add(cid)
        return out

    # ------------------------------------------------------------------
    # value semantics

    def copy(self):
        m = object.__new__(TMesh)
        m._init_knots = (list(self._init_knots[0]), list(self._init_knots[1]))
        m.domain = self.domain
        m.current_level = self.current_level
        m.generation_log = list(self.generation_log)
        m._cells = {cid: c.copy() for cid, c in self._cells.items()}
        m._active = set(self._active)
        m._verts = {vid: Vertex(v.id, v.s, v.t, v.level) for vid, v in self._verts.items()}
        m._vpos = dict(self._vpos)
        m._vert_cells = {vid: set(cs) for vid, cs in self._vert_cells.items()}
        m._cell_verts = {cid: set(vs) for cid, vs in self._cell_verts.items()}
        m._s_line_cells = {k: set(v) for k, v in self._s_line_cells.items()}
        m._t_line_cells = {k: set(v) for k, v in self._t_line_cells.items()}
        m._next_cell = self._next_cell
        m._next_vert = self._next_vert
        m._locator = None
        return m

    # ------------------------------------------------------------------
    # queries

    def cell(self, cid):
        try:
            return self._cells[cid]
        except KeyError:
            raise KeyError(f"unknown cell id {cid}") from None

    def vertex(self, vid):
        try:
            return self._verts[vid]
        except KeyError:
            raise KeyError(f"unknown vertex id {vid}") from None

    def vertex_at(self, s, t):
        """Vertex id at an exact position, or None."""
        return self._vpos.get((_frac(s), _frac(t)))

    def active_cells(self):
        return sorted(self._active)

    def cells_of_level(self, level):
        return sorted(cid for cid in self._active if self._cells[cid].level == level)

    def vertices(self):
        return sorted(self._verts)

    def vertex_cells(self, vid):
        """Ids of active cells whose closed boundary contains the vertex."""
        self.vertex(vid)
        return sorted(self._vert_cells[vid])

    def cell_vertices(self, cid):
        """Ids of vertices on the closed boundary of an active cell."""
        self.cell(cid)
        return sorted(self._cell_verts[cid])

    def is_boundary_position(self, s, t):
        s0, s1, t0, t1 = self.domain
        return s == s0 or s == s1 or t == t0 or t == t1

    def vertex_directions(self, vid):
        """Edge directions incident to a vertex, subset of {+s,-s,+t,-t}."""
        v = self.vertex(vid)
        dirs = set()
        for cid in self._vert_cells[vid]:
            c = self._cells[cid]
            if v.t == c.t0 or v.t == c.t1:
                if v.s < c.s1:
                    dirs.add("+s")
                if v.s > c.s0:
                    dirs.add("-s")
            if v.s == c.s0 or v.s == c.s1:
                if v.t < c.t1:
                    dirs.add("+t")
                if v.t > c.t0:
                    dirs.add("-t")
        return dirs

    def classify_vertex(self, vid):
        """Kind of a vertex, derived from its incident edges."""
        v = self.vertex(vid)
        if self.is_boundary_position(v.s, v.t):
            return VertexKind.BOUNDARY
        n = len(self.vertex_directions(vid))
        if n == 4:
            return VertexKind.CROSSING
        if n == 3:
            return VertexKind.T_JUNCTION
        raise ValueError(f"vertex {vid} has {n} incident edge directions; not a valid T-mesh vertex")

    def is_basis_vertex(self, vid):
        """Boundary vertices and interior crossing vertices carry basis functions."""
        return self.classify_vertex(vid) in (VertexKind.BOUNDARY, VertexKind.CROSSING)

    def adjacency(self, cid1, cid2):
        """Neighbor relation of two active cells."""
        c1, c2 = self.cell(cid1), self.cell(cid2)
        for cid, c in ((cid1, c1), (cid2, c2)):
            if not c.active:
                raise ValueError(f"cell {cid} is not active")
        if cid1 == cid2:
            return AdjacencyKind.NOT_ADJACENT
        # vertical common edge (side-by-side)
        if c1.s1 == c2.s0 or c2.s1 == c1.s0:
            lo, hi = max(c1.t0, c2.t0), min(c1.t1, c2.t1)
            if hi > lo:
                if c1.t0 == c2.t0 and c1.t1 == c2.t1:
                    return AdjacencyKind.HORIZONTALLY_ALIGNED
                return AdjacencyKind.ADJACENT_ONLY
        # horizontal common edge (stacked)
        if c1.t1 == c2.t0 or c2.t1 == c1.t0:
            lo, hi = max(c1.s0, c2.s0), min(c1.s1, c2.s1)
            if hi > lo:
                if c1.s0 == c2.s0 and c1.s1 == c2.s1:
                    return AdjacencyKind.VERTICALLY_ALIGNED
                return AdjacencyKind.ADJACENT_ONLY
        return AdjacencyKind.NOT_ADJACENT

    def edge_neighbors(self, cid):
        """Active cells sharing a positive-length edge piece with `cid`.

        Any such neighbor contains a vertex of this cell's boundary (the
        shared segment ends at a corner of one of the two cells), so the
        boundary-vertex incidence lists cover all candidates.
        """
        c = self.cell(cid)
        out = set()
        for vid in self._cell_verts[cid]:
            out |= self._vert_cells[vid]
        out.discard(cid)
        good = set()
        for nid in out:
            n = self._cells[nid]
            if (n.s1 == c.s0 or c.s1 == n.s0) and min(c.t1, n.t1) > max(c.t0, n.t0):
                good.add(nid)
            elif (n.t1 == c.t0 or c.t1 == n.t0) and min(c.s1, n.s1) > max(c.s0, n.s0):
                good.add(nid)
        return good

    def aligned_neighbor(self, cid, side):
        """Active cell sharing the full `side` edge ('left','right','bottom','top')
        with extents matching in the edge direction, or None."""
        c = self.cell(cid)
        if side == "left":
            p1, p2 = (c.s0, c.t0), (c.s0, c.t1)
        elif side == "right":
            p1, p2 = (c.s1, c.t0), (c.s1, c.t1)
        elif side == "bottom":
            p1, p2 = (c.s0, c.t0), (c.s1, c.t0)
        else:
            p1, p2 = (c.s0, c.t1), (c.s1, c.t1)
        v1, v2 = self._vpos.get(p1), self._vpos.get(p2)
        if v1 is None or v2 is None:
            return None
        # an aligned neighbor shares both edge-end vertices
        for nid in self._vert_cells[v1] & self._vert_cells[v2]:
            if nid == cid:
                continue
            n = self._cells[nid]
            if side == "left" and n.s1 == c.s0 and n.t0 == c.t0 and n.t1 == c.t1:
                return nid
            if side == "right" and n.s0 == c.s1 and n.t0 == c.t0 and n.t1 == c.t1:
                return nid
            if side == "bottom" and n.t1 == c.t0 and n.s0 == c.s0 and n.s1 == c.s1:
                return nid
            if side == "top" and n.t0 == c.t1 and n.s0 == c.s0 and n.s1 == c.s1:
                return nid
        return None

    def dimension(self):
        """Spline-space dimension 4*(boundary vertices + interior crossings)."""
        vb = vp = 0
        for vid in self._verts:
            kind = self.classify_vertex(vid)
            if kind is VertexKind.BOUNDARY:
                vb += 1
            elif kind is VertexKind.CROSSING:
                vp += 1
        return 4 * (vb + vp)

    def basis_vertices(self):
        return sorted(vid for vid in self._verts if self.is_basis_vertex(vid))

    def locate_cell(self, s, t):
        """Active cell containing one parameter point; see :meth:`locate_many`."""
        return int(self.locate_many(s, t))

    def locate_many(self, s, t):
        """Active cells containing a batch of parameter points.

        `s` and `t` are float arrays of one shape; returns an int64 array of
        cell ids of that shape.  Points on interior grid lines resolve to the
        cell on the +side (half-open convention); the domain's far edges
        close the last cells.  Points outside the domain, and NaN points,
        raise ValueError.
        """
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        if s.shape != t.shape:
            raise ValueError(f"s and t differ in shape: {s.shape} vs {t.shape}")
        (s_lo, s_hi, t_lo, t_hi), s_cuts, t_cuts, kids, s_mid, t_mid = self._location_tables()
        inside = (s >= s_lo) & (s <= s_hi) & (t >= t_lo) & (t <= t_hi)
        if not inside.all():
            k = np.flatnonzero(~inside)[0]
            raise ValueError(f"point ({s.flat[k]}, {t.flat[k]}) outside domain")
        shape = s.shape
        s, t = s.ravel(), t.ravel()
        # level-0 cells are numbered row by row, s fastest
        cid = (np.searchsorted(t_cuts, t, side="right") * (len(s_cuts) + 1)
               + np.searchsorted(s_cuts, s, side="right"))
        todo = np.flatnonzero(kids[cid, 0] >= 0)
        while todo.size:
            c = cid[todo]
            c = kids[c, (s[todo] >= s_mid[c]) + 2 * (t[todo] >= t_mid[c])]
            cid[todo] = c
            todo = todo[kids[c, 0] >= 0]
        return cid.reshape(shape)

    def _location_tables(self):
        """Float tables of the cell hierarchy for :meth:`locate_many`.

        Built on first use and dropped by :meth:`split_cell`.  Row `cid` of
        `kids` holds the children by (s side, t side) as
        [low-low, high-low, low-high, high-high], -1 where absent (all -1
        for an active cell); a cell not cut across s (t) has an infinite
        s (t) midpoint, so the point always takes the low side.
        """
        if self._locator is None:
            n = self._next_cell
            kids = np.full((n, 4), -1, dtype=np.int64)
            s_mid = np.full(n, np.inf)
            t_mid = np.full(n, np.inf)
            for _, cid, kind in self.generation_log:
                k = self._cells[cid].children
                if kind == "H":
                    kids[cid, [0, 2]] = k
                else:
                    kids[cid, :len(k)] = k
                    s_mid[cid] = _float_at_least(self._cells[k[1]].s0)
                if kind != "V":
                    t_mid[cid] = _float_at_least(self._cells[k[-1]].t0)
            s0, s1, t0, t1 = self.domain
            bounds = (_float_at_least(s0), _float_at_most(s1),
                      _float_at_least(t0), _float_at_most(t1))
            s_cuts, t_cuts = (np.array([_float_at_least(x) for x in knots[1:-1]])
                              for knots in self._init_knots)
            self._locator = (bounds, s_cuts, t_cuts, kids, s_mid, t_mid)
        return self._locator

    # ------------------------------------------------------------------
    # mutation

    def advance_current_level(self):
        self.current_level += 1

    def split_cell(self, cid, kind):
        """Subdivide an active, current-level cell in place.

        kind 'H' inserts a horizontal mid edge (2 stacked children,
        bottom first), 'V' a vertical mid edge (2 children, left first),
        'C' a cross (4 children: bottom-left, bottom-right, top-left,
        top-right).  Returns the tuple of child ids.
        """
        c = self.cell(cid)
        if not c.active:
            raise ValueError(f"cell {cid} is already subdivided")
        if c.level != self.current_level:
            raise ValueError(
                f"cell {cid} has level {c.level}, but only cells of the current "
                f"level {self.current_level} may be subdivided (cells skipped at "
                f"their own level are frozen)")
        if kind not in SPLIT_KINDS:
            raise ValueError(f"unknown split kind {kind!r}")

        s0, s1, t0, t1 = c.bounds
        sm = (s0 + s1) / 2
        tm = (t0 + t1) / 2
        lvl = c.level + 1
        if kind == "H":
            child_bounds = [(s0, s1, t0, tm), (s0, s1, tm, t1)]
            new_pos = [(s0, tm), (s1, tm)]
        elif kind == "V":
            child_bounds = [(s0, sm, t0, t1), (sm, s1, t0, t1)]
            new_pos = [(sm, t0), (sm, t1)]
        else:
            child_bounds = [(s0, sm, t0, tm), (sm, s1, t0, tm),
                            (s0, sm, tm, t1), (sm, s1, tm, t1)]
            new_pos = [(s0, tm), (s1, tm), (sm, t0), (sm, t1), (sm, tm)]

        # retire the parent from all indexes
        self._locator = None
        self._active.discard(cid)
        for s in (s0, s1):
            self._s_line_cells[s].discard(cid)
        for t in (t0, t1):
            self._t_line_cells[t].discard(cid)
        parent_verts = self._cell_verts.pop(cid)
        for vid in parent_verts:
            self._vert_cells[vid].discard(cid)

        kids = []
        for b in child_bounds:
            kid = self._new_cell(*b, lvl, cid)
            kids.append(kid)
            k = self._cells[kid]
            for s in (k.s0, k.s1):
                self._s_line_cells.setdefault(s, set()).add(kid)
            for t in (k.t0, k.t1):
                self._t_line_cells.setdefault(t, set()).add(kid)
        c.children = tuple(kids)

        # vertices inherited from the parent boundary
        for vid in parent_verts:
            v = self._verts[vid]
            for kid in kids:
                k = self._cells[kid]
                if self._on_cell_boundary(k, v.s, v.t):
                    self._cell_verts[kid].add(vid)
                    self._vert_cells[vid].add(kid)
        # new vertices (may already exist if a neighbor split created them).
        # Any active cell whose boundary contains a split midpoint either is
        # a child or spans the parent's edge, hence carries a parent corner
        # vertex: the corner incidence lists cover all candidates.
        corner_ids = [self._vpos[p] for p in
                      ((s0, t0), (s1, t0), (s0, t1), (s1, t1))]
        candidates = set(kids)
        for cvid in corner_ids:
            candidates |= self._vert_cells[cvid]
        for (s, t) in new_pos:
            vid = self._get_or_make_vertex(s, t, lvl)
            for nid in candidates:
                if self._on_cell_boundary(self._cells[nid], s, t):
                    self._cell_verts[nid].add(vid)
                    self._vert_cells[vid].add(nid)

        self.generation_log.append((c.level, cid, kind))
        return tuple(kids)

    # ------------------------------------------------------------------
    # diagnostics

    def validate(self):
        """Check all mesh invariants; returns a list of violation strings."""
        out = []
        s0, s1, t0, t1 = self.domain
        dom_area = (s1 - s0) * (t1 - t0)
        area = Fraction(0)
        act = [self._cells[cid] for cid in sorted(self._active)]
        for c in act:
            if c.s1 <= c.s0 or c.t1 <= c.t0:
                out.append(f"cell {c.id}: degenerate rectangle")
            if not (s0 <= c.s0 and c.s1 <= s1 and t0 <= c.t0 and c.t1 <= t1):
                out.append(f"cell {c.id}: outside domain")
            area += c.area()
        if area != dom_area:
            out.append(f"active cells cover area {area}, domain has {dom_area}")
        for i, a in enumerate(act):
            for b in act[i + 1:]:
                if min(a.s1, b.s1) > max(a.s0, b.s0) and min(a.t1, b.t1) > max(a.t0, b.t0):
                    out.append(f"cells {a.id} and {b.id} overlap")
        for cid, c in self._cells.items():
            if c.children:
                kid_area = Fraction(0)
                for k in c.children:
                    kc = self._cells[k]
                    kid_area += kc.area()
                    if kc.level != c.level + 1:
                        out.append(f"cell {k}: level {kc.level} != parent level + 1")
                    if not (c.s0 <= kc.s0 and kc.s1 <= c.s1 and c.t0 <= kc.t0 and kc.t1 <= c.t1):
                        out.append(f"cell {k}: not inside parent {cid}")
                if kid_area != c.area():
                    out.append(f"cell {cid}: children do not tile it")
        for vid, v in self._verts.items():
            dirs = self.vertex_directions(vid)
            if self.is_boundary_position(v.s, v.t):
                if len(dirs) < 2:
                    out.append(f"vertex {vid}: grid-line endpoint not on two grid lines")
            elif len(dirs) < 3:
                out.append(f"vertex {vid}: grid-line endpoint not on two grid lines")
            if not self._vert_cells[vid]:
                out.append(f"vertex {vid}: not on any active cell boundary")
        last = 0
        for (lvl, cid, kind) in self.generation_log:
            if lvl < last:
                out.append("generation log levels decrease")
            last = max(last, lvl)
            if cid in self._cells and self._cells[cid].level != lvl:
                out.append(f"log entry for cell {cid}: level mismatch")
        return out

    def replay(self):
        """Rebuild this mesh from its initial grid and generation log."""
        m = TMesh(*self._init_knots)
        for (lvl, cid, kind) in self.generation_log:
            while m.current_level < lvl:
                m.advance_current_level()
            m.split_cell(cid, kind)
        while m.current_level < self.current_level:
            m.advance_current_level()
        return m

    def same_structure(self, other):
        """True when both meshes have identical cell and vertex sets."""
        mine = {(c.bounds, c.level, c.active) for c in self._cells.values()}
        theirs = {(c.bounds, c.level, c.active) for c in other._cells.values()}
        if mine != theirs:
            return False
        return set(self._vpos) == set(other._vpos)

    # ------------------------------------------------------------------
    # serialization

    def to_json_dict(self):
        s0, s1, t0, t1 = self.domain
        cells = []
        for cid in sorted(self._cells):
            c = self._cells[cid]
            cells.append({
                "id": cid,
                "bounds": [str(c.s0), str(c.s1), str(c.t0), str(c.t1)],
                "level": c.level,
                "state": "Active" if c.active else "Subdivided",
                "label": c.label,
            })
        return {
            "domain": [str(s0), str(s1), str(t0), str(t1)],
            "s_knots": [str(x) for x in self._init_knots[0]],
            "t_knots": [str(x) for x in self._init_knots[1]],
            "current_level": self.current_level,
            "cells": cells,
            "log": [[lvl, cid, kind] for (lvl, cid, kind) in self.generation_log],
        }

    def to_json(self, **kw):
        return json.dumps(self.to_json_dict(), **kw)

    @classmethod
    def from_json_dict(cls, d):
        m = cls([Fraction(x) for x in d["s_knots"]], [Fraction(x) for x in d["t_knots"]])
        for (lvl, cid, kind) in d["log"]:
            while m.current_level < lvl:
                m.advance_current_level()
            m.split_cell(cid, kind)
        while m.current_level < d.get("current_level", m.current_level):
            m.advance_current_level()
        return m

    @classmethod
    def from_json(cls, text):
        return cls.from_json_dict(json.loads(text))


def create_tensor_mesh(ns, nt, domain=(0.0, 1.0, 0.0, 1.0)):
    """Uniform ns x nt tensor-product mesh over `domain` = (s0, s1, t0, t1)."""
    if ns < 1 or nt < 1:
        raise ValueError(f"cell counts must be positive, got ({ns}, {nt})")
    s0, s1, t0, t1 = (_frac(x) for x in domain)
    if s1 <= s0 or t1 <= t0:
        raise ValueError(f"degenerate domain {tuple(float(_frac(x)) for x in domain)}")
    s_knots = [s0 + (s1 - s0) * Fraction(i, ns) for i in range(ns + 1)]
    t_knots = [t0 + (t1 - t0) * Fraction(j, nt) for j in range(nt + 1)]
    return TMesh(s_knots, t_knots)


def create_mesh_from_knots(s_knots, t_knots):
    """Tensor-product mesh with explicit (possibly non-uniform) level-0 knot lines."""
    return TMesh(s_knots, t_knots)
