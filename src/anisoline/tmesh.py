"""T-meshes and modified hierarchical T-meshes on an axis-aligned rectangle.

A T-mesh is a rectangular grid that admits T-junctions: every grid-line
endpoint lies on the domain boundary or on two other grid lines, and every
cell is an axis-aligned rectangle.  The meshes built here are *leveled*:
starting from a tensor-product grid (level 0), cells are subdivided either
by a half split ('H' horizontal cut, 'V' vertical cut) or by a cross
insertion ('C'), producing children one level deeper.  Only cells whose
level equals the mesh's current level may be subdivided; a cell skipped at
its own level is frozen forever.

Every split halves an interval, so each coordinate is a dyadic point of a
level-0 knot span.  Cells and vertices store it as an integer *lattice
coordinate* per axis: X = k * 2**LATTICE_DEPTH + j is the point j / 2**D of
the way through span k (the last knot is n * 2**D), and a split cuts at
(X0 + X1) >> 1.  The map from lattice coordinates to values is strictly
increasing, so equality, ordering and hashing of coordinates (adjacency,
vertex kinds, the position index) run on plain ints.  A split
that would halve a cell one lattice unit wide raises
:class:`LatticeDepthError`; the D-th halving of a span is still exact.

One rule states the geometry of a split (:func:`cut_rule`): a cell's
children by s and t side, and the lattice points its new edges cut
through, with the edge directions they add at each.  Every vertex carries
a mask of its incident edge directions (+s, -s, +t, -t); the level-0 grid
sets it and :meth:`TMesh.split_cell` ORs in the bits of each cut, since
a split only adds edges and only at its cut points.  Vertex kinds are
lookups in the mask, and basis vertices and the dimension one batched
lookup over every vertex's mask and position; :meth:`TMesh.validate`
re-derives every mask from the incident cells as an independent check.

Vertex-cell incidence is derived, not stored: one batched pass per mesh
state, on the first query after a split.  Cells have integer bounds, so the
active cells whose closure holds vertex (i, j) are the cells that hold the
lattice points (i - a, j - b), a, b in {0, 1}, inside the domain, under the
half-open rule.  The pass finds them with the descent of point location on
exact integers and keeps CSR in both orders (:meth:`TMesh.vertex_cells`,
:meth:`TMesh.cell_vertices`).

Data that never changes sits in numpy tables, built on first use and
extended as cells and vertices are made, for the evaluation kernel and the
level advance to read by slicing: per cell id the lattice bounds, corner
vertex ids, float sizes (:meth:`TMesh.cell_table`) and float bounds
(:meth:`TMesh.cell_bounds`), per vertex id the lattice position
(:meth:`TMesh.vertex_table`).

The level-0 knots stay exact :class:`fractions.Fraction` values, in one
axis table per direction (:class:`Axis`) shared by a mesh and its copies.
The table derives the exact value and the float of a lattice coordinate
once, on first request, and caches both; `Cell.s0 .. t1`, `Vertex.s`,
`Vertex.t` and the JSON format read exact values through it.  A cell's
width is a power-of-two fraction of its span's, so its float is the
span's float width times that power of two, with no rounding.

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
from bisect import bisect_right
from collections import Counter
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

import numpy as np

__all__ = [
    "VertexKind", "AdjacencyKind", "Vertex", "Cell", "CellTable", "TMesh", "Axis",
    "LatticeDepthError", "LATTICE_DEPTH", "cut_rule",
    "create_tensor_mesh", "create_mesh_from_knots",
]

SPLIT_KINDS = ("H", "V", "C")

# halvings of a level-0 span the lattice resolves
LATTICE_DEPTH = 32
_SPAN = 1 << LATTICE_DEPTH


class LatticeDepthError(ValueError):
    """A split would halve a cell one lattice unit wide."""


# bits of a vertex's edge-direction mask: +s, -s, +t, -t
_PLUS_S, _MINUS_S, _PLUS_T, _MINUS_T = 1, 2, 4, 8
_ALONG_S, _ALONG_T, _ALL = _PLUS_S | _MINUS_S, _PLUS_T | _MINUS_T, 15
# the number of directions in each mask
_DIRECTION_COUNT = np.array([m.bit_count() for m in range(16)], dtype=np.int8)


def cut_rule(bounds, kind):
    """Geometry of splitting the lattice rectangle `bounds` = (i0, i1, j0, j1).

    Returns (children, cuts).  `children` holds (slot, child bounds) in
    child order; slot is s side + 2 * t side, 0 low and 1 high.  `cuts`
    holds ((i, j), bits) for each lattice point the new edges cut through,
    with the edge directions they add there: a side midpoint gets both
    directions along the side and the inward one, the centre of a 'C'
    split all four.
    """
    i0, i1, j0, j1 = bounds
    im, jm = (i0 + i1) >> 1, (j0 + j1) >> 1
    s_sides = ((i0, i1),) if kind == "H" else ((i0, im), (im, i1))
    t_sides = ((j0, j1),) if kind == "V" else ((j0, jm), (jm, j1))
    children = [(a + 2 * b, (s0, s1, t0, t1))
                for b, (t0, t1) in enumerate(t_sides)
                for a, (s0, s1) in enumerate(s_sides)]
    cuts = []
    if kind != "V":
        cuts += (((i0, jm), _ALONG_T | _PLUS_S), ((i1, jm), _ALONG_T | _MINUS_S))
    if kind != "H":
        cuts += (((im, j0), _ALONG_S | _PLUS_T), ((im, j1), _ALONG_S | _MINUS_T))
    if kind == "C":
        cuts.append(((im, jm), _ALL))
    return children, cuts


# the slots of each split kind's children, in child order
_CHILD_SLOTS = {kind: [slot for slot, _ in cut_rule((0, 2, 0, 2), kind)[0]] for kind in SPLIT_KINDS}


class VertexKind(Enum):
    BOUNDARY = "Boundary"
    CROSSING = "Crossing"
    T_JUNCTION = "TJunction"


class AdjacencyKind(Enum):
    NOT_ADJACENT = "NotAdjacent"
    ADJACENT_ONLY = "AdjacentOnly"
    HORIZONTALLY_ALIGNED = "HorizontallyAligned"
    VERTICALLY_ALIGNED = "VerticallyAligned"


class Axis:
    """The exact level-0 knots of one direction and the values of lattice
    coordinates on them.

    `end` is the lattice coordinate of the last knot.  Exact values, floats
    and location thresholds are derived once per coordinate and cached.
    """

    def __init__(self, knots):
        self.knots = knots
        self.end = (len(knots) - 1) * _SPAN
        self._span_float = np.array([float(b - a) for a, b in zip(knots, knots[1:])])
        self._exact = {}
        self._float = {}
        self._at_least = {}

    def exact(self, x):
        """Exact Fraction value of lattice coordinate x."""
        v = self._exact.get(x)
        if v is None:
            k, j = divmod(x, _SPAN)
            v = self.knots[k]
            if j:
                v += (self.knots[k + 1] - v) * Fraction(j, _SPAN)
            self._exact[x] = v
        return v

    def float(self, x):
        """float() of the exact value of x."""
        f = self._float.get(x)
        if f is None:
            f = self._float[x] = float(self.exact(x))
        return f

    def length(self, x0, x1):
        """float() of the exact length from x0 to x1, for x0 < x1 in one
        span with x1 - x0 a power of two (the extent of a cell): the span's
        float width times a power of two, so no rounding.  x0 and x1 are
        ints or int64 arrays of one shape."""
        return self._span_float[x0 >> LATTICE_DEPTH] * ((x1 - x0) / _SPAN)

    def float_at_least(self, x):
        """Smallest float >= the exact value of x."""
        f = self._at_least.get(x)
        if f is None:
            f = self.float(x)
            if f < self.exact(x):
                f = math.nextafter(f, math.inf)
            self._at_least[x] = f
        return f

    def float_at_most(self, x):
        """Largest float <= the exact value of x."""
        f = self.float(x)
        return f if f <= self.exact(x) else math.nextafter(f, -math.inf)

    def coordinate(self, value):
        """Lattice coordinate of an exact value, or None off the lattice."""
        value = Fraction(value)
        k = bisect_right(self.knots, value) - 1
        if k < 0 or value > self.knots[-1]:
            return None
        if k == len(self.knots) - 1:
            return self.end
        r = (value - self.knots[k]) / (self.knots[k + 1] - self.knots[k]) * _SPAN
        return k * _SPAN + r.numerator if r.denominator == 1 else None


class Vertex:
    """A grid point at lattice coordinates (i, j).  `level` is the level at
    which it first appeared; `axes` are the mesh's axis tables."""

    __slots__ = ("id", "i", "j", "level", "axes")

    def __init__(self, vid, i, j, level, axes):
        self.id = vid
        self.i = i
        self.j = j
        self.level = level
        self.axes = axes

    @property
    def s(self):
        return self.axes[0].exact(self.i)

    @property
    def t(self):
        return self.axes[1].exact(self.j)

    @property
    def position(self):
        return (self.s, self.t)

    def position_float(self):
        return (self.axes[0].float(self.i), self.axes[1].float(self.j))

    def __repr__(self):
        return f"Vertex({self.id}, s={self.s}, t={self.t}, level={self.level})"


class Cell:
    """A rectangular cell.  Active cells have no children.

    The bounds are lattice coordinates i0 < i1 along s and j0 < j1 along
    t; `s0`, `s1`, `t0`, `t1`, `width` and `height` are their exact values,
    read through the mesh's axis tables `axes`.
    """

    __slots__ = ("id", "i0", "i1", "j0", "j1", "level", "parent", "children", "label", "axes")

    def __init__(self, cid, i0, i1, j0, j1, level, parent, axes):
        self.id = cid
        self.i0 = i0
        self.i1 = i1
        self.j0 = j0
        self.j1 = j1
        self.level = level
        self.parent = parent
        self.children = ()
        self.label = None
        self.axes = axes

    @property
    def active(self):
        return not self.children

    @property
    def s0(self):
        return self.axes[0].exact(self.i0)

    @property
    def s1(self):
        return self.axes[0].exact(self.i1)

    @property
    def t0(self):
        return self.axes[1].exact(self.j0)

    @property
    def t1(self):
        return self.axes[1].exact(self.j1)

    @property
    def bounds(self):
        return (self.s0, self.s1, self.t0, self.t1)

    @property
    def lattice_bounds(self):
        return (self.i0, self.i1, self.j0, self.j1)

    def bounds_float(self):
        sa, ta = self.axes
        return (sa.float(self.i0), sa.float(self.i1), ta.float(self.j0), ta.float(self.j1))

    def size_float(self):
        """float() of the exact width and height."""
        return (float(self.axes[0].length(self.i0, self.i1)),
                float(self.axes[1].length(self.j0, self.j1)))

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
        c = Cell(self.id, self.i0, self.i1, self.j0, self.j1, self.level, self.parent, self.axes)
        c.children = self.children
        c.label = self.label
        return c

    def __repr__(self):
        b = self.bounds_float()
        state = "Subdivided" if self.children else "Active"
        return f"Cell({self.id}, {b}, level={self.level}, {state})"


class CellTable(NamedTuple):
    """Per-cell columns of a mesh, row `cid` for cell `cid`, over every
    cell made so far (active or not)."""
    lattice: np.ndarray              # (n, 4) int64: i0, i1, j0, j1
    corners: np.ndarray              # (n, 4) vertex ids, as `TMesh.corner_vertices`
    sizes: np.ndarray                # (n, 2) float width and height, as `Cell.size_float`


_NO_CELLS = CellTable(np.zeros((0, 4), dtype=np.int64), np.zeros((0, 4), dtype=np.intp),
                      np.zeros((0, 2)))
# an s (t) midpoint that no point reaches, for a cell not cut across s (t)
_NEVER = np.iinfo(np.int64).max


def _ranges(lo, hi):
    """range(lo[k], hi[k]) for every k, concatenated into one int array."""
    n = hi - lo
    return np.arange(n.sum()) + np.repeat(lo - np.cumsum(n) + n, n)


def _descend(kids, s, t, s_cuts, t_cuts, s_mid, t_mid):
    """Active cells holding the points (s, t) under the half-open rule:
    the level-0 cell from the cuts between spans, then down `kids`, taking
    the high side of each midpoint a point reaches."""
    # level-0 cells are numbered row by row, s fastest
    cid = (np.searchsorted(t_cuts, t, side="right") * (len(s_cuts) + 1)
           + np.searchsorted(s_cuts, s, side="right"))
    todo = np.flatnonzero(kids[cid, 0] >= 0)
    while todo.size:
        c = cid[todo]
        c = kids[c, (s[todo] >= s_mid[c]) + 2 * (t[todo] >= t_mid[c])]
        cid[todo] = c
        todo = todo[kids[c, 0] >= 0]
    return cid


class TMesh:
    """Leveled T-mesh with exact coordinates and full subdivision history.

    The mesh is a value: reading is safe from any number of threads, while
    :meth:`split_cell` requires exclusive access.  Use :meth:`copy` to build
    a modified version without touching the original.
    """

    def __init__(self, s_knots, t_knots):
        s_knots = [Fraction(x) for x in s_knots]
        t_knots = [Fraction(x) for x in t_knots]
        if len(s_knots) < 2 or len(t_knots) < 2:
            raise ValueError("need at least one cell in each direction")
        if any(b <= a for a, b in zip(s_knots, s_knots[1:])) or \
           any(b <= a for a, b in zip(t_knots, t_knots[1:])):
            raise ValueError("knot lines must be strictly increasing (degenerate domain)")
        self.axes = (Axis(s_knots), Axis(t_knots))
        self.domain = (s_knots[0], s_knots[-1], t_knots[0], t_knots[-1])
        self.current_level = 0
        self.generation_log = []

        self._cells = {}
        self._active = set()
        self._verts = {}
        self._vpos = {}
        # vertex id -> edge-direction mask; not a Vertex field, because
        # copies of a mesh share its Vertex objects
        self._dirs = bytearray()
        self._next_cell = 0
        self._next_vert = 0
        self._locator = None
        self._incidence = None
        self._table = _NO_CELLS
        self._bounds = np.zeros((0, 4))
        self._vtable = np.zeros((0, 2), dtype=np.int64)

        s_lines = [k * _SPAN for k in range(len(s_knots))]
        t_lines = [k * _SPAN for k in range(len(t_knots))]
        for j0, j1 in zip(t_lines, t_lines[1:]):
            for i0, i1 in zip(s_lines, s_lines[1:]):
                self._new_cell(i0, i1, j0, j1, 0, None)
        s_end, t_end = s_lines[-1], t_lines[-1]
        for j in t_lines:
            for i in s_lines:
                vid = self._get_or_make_vertex(i, j, 0)
                self._dirs[vid] = (_PLUS_S * (i < s_end) | _MINUS_S * (i > 0)
                                   | _PLUS_T * (j < t_end) | _MINUS_T * (j > 0))

    # ------------------------------------------------------------------
    # construction internals

    def _new_cell(self, i0, i1, j0, j1, level, parent):
        cid = self._next_cell
        self._next_cell += 1
        self._cells[cid] = Cell(cid, i0, i1, j0, j1, level, parent, self.axes)
        self._active.add(cid)
        return cid

    def _get_or_make_vertex(self, i, j, level):
        key = (i, j)
        vid = self._vpos.get(key)
        if vid is None:
            vid = self._next_vert
            self._next_vert += 1
            self._verts[vid] = Vertex(vid, i, j, level, self.axes)
            self._vpos[key] = vid
            self._dirs.append(0)
        return vid

    def _on_domain_boundary(self, i, j):
        return i == 0 or j == 0 or i == self.axes[0].end or j == self.axes[1].end

    # ------------------------------------------------------------------
    # value semantics

    def copy(self):
        m = object.__new__(TMesh)
        m.axes = self.axes
        m.domain = self.domain
        m.current_level = self.current_level
        m.generation_log = list(self.generation_log)
        m._cells = {cid: c.copy() for cid, c in self._cells.items()}
        m._active = set(self._active)
        m._verts = self._verts.copy()
        m._vpos = dict(self._vpos)
        m._dirs = bytearray(self._dirs)
        m._next_cell = self._next_cell
        m._next_vert = self._next_vert
        m._locator = m._incidence = None
        # rows are never written, only appended to a new array: share them
        m._table = self._table
        m._bounds = self._bounds
        m._vtable = self._vtable
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
        i, j = self.axes[0].coordinate(s), self.axes[1].coordinate(t)
        if i is None or j is None:
            return None
        return self._vpos.get((i, j))

    def corner_vertices(self, cid):
        """Vertex ids at a cell's corners: (s0, t0), (s1, t0), (s0, t1), (s1, t1)."""
        c = self.cell(cid)
        vpos = self._vpos
        return (vpos[c.i0, c.j0], vpos[c.i1, c.j0], vpos[c.i0, c.j1], vpos[c.i1, c.j1])

    def cell_table(self):
        """The `CellTable` of every cell made so far.

        Built on first use and extended by the cells made since, never
        rebuilt: a cell's bounds and corners do not change.  Copies share
        the rows they have in common.
        """
        table = self._table
        first = len(table.lattice)
        if first < self._next_cell:
            lattice = np.array([self._cells[cid].lattice_bounds
                                for cid in range(first, self._next_cell)], dtype=np.int64)
            vpos = self._vpos
            corners = np.array([(vpos[i0, j0], vpos[i1, j0], vpos[i0, j1], vpos[i1, j1])
                                for i0, i1, j0, j1 in lattice.tolist()], dtype=np.intp)
            sa, ta = self.axes
            sizes = np.stack([sa.length(lattice[:, 0], lattice[:, 1]),
                              ta.length(lattice[:, 2], lattice[:, 3])], axis=1)
            table = self._table = CellTable(*(np.concatenate(pair) for pair in
                                              zip(table, (lattice, corners, sizes))))
        return table

    def cell_bounds(self):
        """Float bounds (n, 4), as `Cell.bounds_float`, of every cell made
        so far, by id; built and extended as `cell_table`."""
        bounds = self._bounds
        if len(bounds) < self._next_cell:
            sa, ta = self.axes
            fresh = [(sa.float(i0), sa.float(i1), ta.float(j0), ta.float(j1))
                     for i0, i1, j0, j1 in self.cell_table().lattice[len(bounds):].tolist()]
            bounds = self._bounds = np.concatenate([bounds, fresh])
        return bounds

    def vertex_table(self):
        """Lattice positions (n, 2) int64, (i, j), of every vertex made so
        far, by id; built and extended as `cell_table`."""
        table = self._vtable
        if len(table) < self._next_vert:
            fresh = [(v.i, v.j) for v in map(self._verts.get, range(len(table), self._next_vert))]
            table = self._vtable = np.concatenate([table, np.array(fresh, dtype=np.int64)])
        return table

    def active_cells(self):
        return sorted(self._active)

    def cells_of_level(self, level):
        return sorted(cid for cid in self._active if self._cells[cid].level == level)

    def vertices(self):
        return sorted(self._verts)

    def vertex_cells(self, vid):
        """Ids of active cells whose closed boundary contains the vertex, ascending."""
        self.vertex(vid)
        start, cells, _, _ = self._incidences()
        return cells[start[vid]:start[vid + 1]]

    def cell_vertices(self, cid):
        """Ids of vertices on the closed boundary of an active cell, ascending."""
        self._active_cell(cid)
        _, _, start, verts = self._incidences()
        return verts[start[cid]:start[cid + 1]]

    def _active_cell(self, cid):
        c = self.cell(cid)
        if c.children:
            raise ValueError(f"cell {cid} is not active")
        return c

    def _incidences(self):
        """(cell_start, cells, vert_start, verts): the incidence CSR of this
        mesh state in both orders, vertex v's cells at
        cells[cell_start[v]:cell_start[v + 1]] and cell c's vertices at
        verts[vert_start[c]:vert_start[c + 1]], ascending, as lists (faster
        to slice per item than arrays).  Built on first use, next to the
        same CSR as arrays for batched queries, and dropped by
        :meth:`split_cell`."""
        return self._incidence_tables()[0]

    def _incidence_tables(self):
        """The incidence CSR of :meth:`_incidences` as (lists, arrays)."""
        if self._incidence is None:
            _, kids, _, lattice = self._location_tables()
            vij = self.vertex_table()
            n = self._next_cell
            # the lattice points below and left of each vertex, in the domain
            i = (vij[:, :1] - [0, 1, 0, 1]).ravel()
            j = (vij[:, 1:] - [0, 0, 1, 1]).ravel()
            inside = np.flatnonzero((i >= 0) & (i < self.axes[0].end)
                                    & (j >= 0) & (j < self.axes[1].end))
            cids = _descend(kids, i[inside], j[inside], *lattice)
            # the distinct (vertex, cell) pairs, by vertex and then cell
            vids, cids = np.divmod(np.unique((inside >> 2) * n + cids), n)
            by_cell = np.argsort(cids, kind="stable")
            csr = (np.searchsorted(vids, np.arange(len(vij) + 1)), cids,
                   np.searchsorted(cids[by_cell], np.arange(n + 1)), vids[by_cell])
            self._incidence = (tuple(a.tolist() for a in csr), csr)
        return self._incidence

    def classify_vertex(self, vid):
        """Kind of a vertex, read from its edge-direction mask."""
        v = self.vertex(vid)
        if self._on_domain_boundary(v.i, v.j):
            return VertexKind.BOUNDARY
        n = self._dirs[vid].bit_count()
        if n == 4:
            return VertexKind.CROSSING
        if n == 3:
            return VertexKind.T_JUNCTION
        raise ValueError(f"vertex {vid} has {n} incident edge directions; not a valid T-mesh vertex")

    def is_basis_vertex(self, vid):
        """Boundary vertices and interior crossing vertices carry basis functions."""
        return self.classify_vertex(vid) in (VertexKind.BOUNDARY, VertexKind.CROSSING)

    def _basis_mask(self, vids=None):
        """`is_basis_vertex` of the vertices `vids` (an int array; every
        vertex if None) as one bool array, read off the edge-direction masks
        and `vertex_table` in one pass.  An interior vertex with fewer than
        three directions raises the ValueError of `classify_vertex`."""
        count = _DIRECTION_COUNT[np.frombuffer(self._dirs, dtype=np.uint8)]
        pos = self.vertex_table()
        if vids is None:
            vids = np.arange(len(pos))
        else:
            count, pos = count[vids], pos[vids]
        boundary = ((pos == 0) | (pos == [axis.end for axis in self.axes])).any(axis=1)
        bad = ~boundary & (count < 3)
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(f"vertex {vids[k]} has {count[k]} incident edge directions; "
                             f"not a valid T-mesh vertex")
        return boundary | (count == 4)

    def adjacency(self, cid1, cid2):
        """Neighbor relation of two active cells."""
        c1, c2 = self._active_cell(cid1), self._active_cell(cid2)
        if cid1 == cid2:
            return AdjacencyKind.NOT_ADJACENT
        # vertical common edge (side-by-side)
        if c1.i1 == c2.i0 or c2.i1 == c1.i0:
            if min(c1.j1, c2.j1) > max(c1.j0, c2.j0):
                if c1.j0 == c2.j0 and c1.j1 == c2.j1:
                    return AdjacencyKind.HORIZONTALLY_ALIGNED
                return AdjacencyKind.ADJACENT_ONLY
        # horizontal common edge (stacked)
        if c1.j1 == c2.j0 or c2.j1 == c1.j0:
            if min(c1.i1, c2.i1) > max(c1.i0, c2.i0):
                if c1.i0 == c2.i0 and c1.i1 == c2.i1:
                    return AdjacencyKind.VERTICALLY_ALIGNED
                return AdjacencyKind.ADJACENT_ONLY
        return AdjacencyKind.NOT_ADJACENT

    def edge_neighbors(self, cid):
        """The set of active cells sharing a positive-length edge piece
        with the active cell `cid`.

        The ends of a shared piece are corners of one cell or the other, so
        vertices on both closures, while cells that touch at a corner share
        that vertex alone: the neighbors are the cells holding two or more
        vertices of `cid`, counted off the incidence CSR.
        """
        vids = self.cell_vertices(cid)
        start, cells, _, _ = self._incidences()
        shared = Counter(n for vid in vids for n in cells[start[vid]:start[vid + 1]])
        del shared[cid]
        return {n for n, k in shared.items() if k > 1}

    def edge_neighbor_pairs(self, cids):
        """The pairs (a, b), a < b, of the active cells `cids` that share a
        positive-length edge piece, as two int arrays ordered by a and then
        b: :meth:`edge_neighbors` within the set, in one batched pass that
        counts the vertices each pair holds off the incidence CSR."""
        cids = np.unique(np.asarray(cids, dtype=np.intp))
        inactive = set(cids.tolist()) - self._active
        if inactive:
            self._active_cell(min(inactive))
        cell_start, cells, vert_start, verts = self._incidence_tables()[1]
        lo, hi = vert_start[cids], vert_start[cids + 1]
        a, vids = np.repeat(cids, hi - lo), verts[_ranges(lo, hi)]
        lo, hi = cell_start[vids], cell_start[vids + 1]
        a, b = np.repeat(a, hi - lo), cells[_ranges(lo, hi)]
        n = self._next_cell
        wanted = np.zeros(n, dtype=bool)
        wanted[cids] = True
        keep = (a < b) & wanted[b]
        pairs, shared = np.unique(a[keep] * n + b[keep], return_counts=True)
        return np.divmod(pairs[shared > 1], n)

    def dimension(self):
        """Spline-space dimension 4*(boundary vertices + interior crossings)."""
        return 4 * int(np.count_nonzero(self._basis_mask()))

    def basis_vertices(self):
        return np.flatnonzero(self._basis_mask()).tolist()

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
        (s_lo, s_hi, t_lo, t_hi), kids, floats, _ = self._location_tables()
        inside = (s >= s_lo) & (s <= s_hi) & (t >= t_lo) & (t <= t_hi)
        if not inside.all():
            k = np.flatnonzero(~inside)[0]
            raise ValueError(f"point ({s.flat[k]}, {t.flat[k]}) outside domain")
        return _descend(kids, s.ravel(), t.ravel(), *floats).reshape(s.shape)

    def _location_tables(self):
        """Tables of the cell hierarchy for :func:`_descend`, (bounds, kids,
        floats, lattice), built on first use and dropped by :meth:`split_cell`.

        `bounds` are the closed float domain bounds.  Row `cid` of `kids`
        holds the children by (s side, t side) as
        [low-low, high-low, low-high, high-high], -1 where absent (all -1
        for an active cell).  `floats` and `lattice` each hold the level-0
        knots between spans and the s and t split midpoints by cell, as the
        smallest float >= the exact value and as lattice coordinates; a
        cell not cut across s (t) has an s (t) midpoint no point reaches
        (inf, `_NEVER`), so the point always takes the low side.
        """
        if self._locator is None:
            n = self._next_cell
            kids = np.full((n, 4), -1, dtype=np.int64)
            rows, slots, children = [], [], []
            for _, cid, kind in self.generation_log:
                k = self._cells[cid].children
                rows += [cid] * len(k)
                slots += _CHILD_SLOTS[kind]
                children += k
            kids[rows, slots] = children
            # a cut's midpoint is the low bound of the child on its high side
            lattice = self.cell_table().lattice
            mids = [np.where(kids[:, slot] >= 0, lattice[kids[:, slot], col], _NEVER)
                    for slot, col in ((1, 0), (2, 2))]
            cuts = [np.arange(_SPAN, a.end, _SPAN, dtype=np.int64) for a in self.axes]
            floats = [np.array([a.float_at_least(x) if x != _NEVER else np.inf
                                for x in c.tolist()]) for a, c in zip(self.axes * 2, cuts + mids)]
            sa, ta = self.axes
            bounds = (sa.float_at_least(0), sa.float_at_most(sa.end),
                      ta.float_at_least(0), ta.float_at_most(ta.end))
            self._locator = (bounds, kids, floats, cuts + mids)
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
        top-right).  Records the kind as the cell's `label` and returns
        the tuple of child ids.  Raises LatticeDepthError when a cut would
        halve an extent of one lattice unit.
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

        children, cuts = cut_rule(c.lattice_bounds, kind)
        # halving one lattice unit leaves a child of zero extent
        for _, (i0, i1, j0, j1) in children:
            if i0 == i1 or j0 == j1:
                raise LatticeDepthError(
                    f"cell {cid} is one lattice unit wide along {'t' if j0 == j1 else 's'}; a "
                    f"'{kind}' split would go past the lattice depth of {LATTICE_DEPTH} halvings per span")
        lvl = c.level + 1
        self._locator = self._incidence = None
        self._active.discard(cid)
        c.children = tuple(self._new_cell(*b, lvl, cid) for _, b in children)
        c.label = kind
        for (i, j), bits in cuts:
            self._dirs[self._get_or_make_vertex(i, j, lvl)] |= bits
        self.generation_log.append((c.level, cid, kind))
        return c.children

    # ------------------------------------------------------------------
    # diagnostics

    def validate(self):
        """Check all mesh invariants; returns a list of violation strings.

        The vertex checks read the derived incidence: the edge directions
        the cells whose closure holds a vertex show there must equal its
        mask and put it on two grid lines.  A vertex inside a cell's open
        interior shows none.
        """
        out = []
        s0, s1, t0, t1 = self.domain
        dom_area = (s1 - s0) * (t1 - t0)
        area = Fraction(0)
        si_end, tj_end = self.axes[0].end, self.axes[1].end
        act = [self._cells[cid] for cid in sorted(self._active)]
        for c in act:
            if c.i1 <= c.i0 or c.j1 <= c.j0:
                out.append(f"cell {c.id}: degenerate rectangle")
            if not (0 <= c.i0 and c.i1 <= si_end and 0 <= c.j0 and c.j1 <= tj_end):
                out.append(f"cell {c.id}: outside domain")
            area += c.area()
        if area != dom_area:
            out.append(f"active cells cover area {area}, domain has {dom_area}")
        for i, a in enumerate(act):
            for b in act[i + 1:]:
                if min(a.i1, b.i1) > max(a.i0, b.i0) and min(a.j1, b.j1) > max(a.j0, b.j0):
                    out.append(f"cells {a.id} and {b.id} overlap")
        for cid, c in self._cells.items():
            if c.children:
                kid_area = Fraction(0)
                for k in c.children:
                    kc = self._cells[k]
                    kid_area += kc.area()
                    if kc.level != c.level + 1:
                        out.append(f"cell {k}: level {kc.level} != parent level + 1")
                    if not (c.i0 <= kc.i0 and kc.i1 <= c.i1 and c.j0 <= kc.j0 and kc.j1 <= c.j1):
                        out.append(f"cell {k}: not inside parent {cid}")
                if kid_area != c.area():
                    out.append(f"cell {cid}: children do not tile it")
        for vid, v in self._verts.items():
            # the edge directions the incident cells show, independent of the mask
            i, j = v.i, v.j
            dirs = 0
            for cid in self.vertex_cells(vid):
                c = self._cells[cid]
                if j == c.j0 or j == c.j1:
                    dirs |= _PLUS_S * (i < c.i1) | _MINUS_S * (i > c.i0)
                if i == c.i0 or i == c.i1:
                    dirs |= _PLUS_T * (j < c.j1) | _MINUS_T * (j > c.j0)
            if dirs != self._dirs[vid]:
                out.append(f"vertex {vid}: direction mask {self._dirs[vid]:04b} "
                           f"disagrees with its incident cells ({dirs:04b})")
            if dirs.bit_count() < (2 if self._on_domain_boundary(i, j) else 3):
                out.append(f"vertex {vid}: grid-line endpoint not on two grid lines")
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
        return self._replayed(self.axes[0].knots, self.axes[1].knots,
                              self.generation_log, self.current_level)

    @classmethod
    def _replayed(cls, s_knots, t_knots, log, level):
        """The grid on the knots after the (level, cell id, kind) splits of
        `log`, advanced to `level`."""
        m = cls(s_knots, t_knots)
        for (lvl, cid, kind) in log:
            while m.current_level < lvl:
                m.advance_current_level()
            m.split_cell(cid, kind)
        while m.current_level < level:
            m.advance_current_level()
        return m

    def same_structure(self, other):
        """True when both meshes have identical cell and vertex sets."""
        # the level-0 cells are the knot spans: other knots, other cells
        if self.axes is not other.axes and \
           [a.knots for a in self.axes] != [a.knots for a in other.axes]:
            return False
        mine = {(c.lattice_bounds, c.level, c.active) for c in self._cells.values()}
        theirs = {(c.lattice_bounds, c.level, c.active) for c in other._cells.values()}
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
                "bounds": [str(x) for x in c.bounds],
                "level": c.level,
                "state": "Active" if c.active else "Subdivided",
                "label": c.label,
            })
        return {
            "domain": [str(s0), str(s1), str(t0), str(t1)],
            "s_knots": [str(x) for x in self.axes[0].knots],
            "t_knots": [str(x) for x in self.axes[1].knots],
            "current_level": self.current_level,
            "cells": cells,
            "log": [[lvl, cid, kind] for (lvl, cid, kind) in self.generation_log],
        }

    def to_json(self, **kw):
        return json.dumps(self.to_json_dict(), **kw)

    @classmethod
    def from_json_dict(cls, d):
        return cls._replayed([Fraction(x) for x in d["s_knots"]], [Fraction(x) for x in d["t_knots"]],
                             d["log"], d.get("current_level", 0))

    @classmethod
    def from_json(cls, text):
        return cls.from_json_dict(json.loads(text))


def create_tensor_mesh(ns, nt, domain=(0.0, 1.0, 0.0, 1.0)):
    """Uniform ns x nt tensor-product mesh over `domain` = (s0, s1, t0, t1)."""
    if ns < 1 or nt < 1:
        raise ValueError(f"cell counts must be positive, got ({ns}, {nt})")
    s0, s1, t0, t1 = (Fraction(x) for x in domain)
    if s1 <= s0 or t1 <= t0:
        raise ValueError(f"degenerate domain {tuple(float(x) for x in domain)}")
    s_knots = [s0 + (s1 - s0) * Fraction(i, ns) for i in range(ns + 1)]
    t_knots = [t0 + (t1 - t0) * Fraction(j, nt) for j in range(nt + 1)]
    return TMesh(s_knots, t_knots)


def create_mesh_from_knots(s_knots, t_knots):
    """Tensor-product mesh with explicit (possibly non-uniform) level-0 knot lines."""
    return TMesh(s_knots, t_knots)
