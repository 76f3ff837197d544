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
increasing, so equality and ordering of coordinates (adjacency, vertex
kinds, the cut lookup) run on plain ints.  A split that would halve a cell
one lattice unit wide raises :class:`LatticeDepthError`; the D-th halving
of a span is still exact.

One rule states the geometry of a split (:func:`cut_rule`), for a batch of
cells: children by s and t side, and the lattice points the new edges cut
through, with the edge directions they add at each.  Every vertex
carries a mask of its incident edge directions (+s, -s, +t, -t); the
level-0 grid sets it and :meth:`TMesh.split_many` ORs in the bits of each
cut, since a split only adds edges and only at its cut points.  Vertex
kinds are one batched lookup in the masks and the lattice ends
(:meth:`TMesh._kinds`), which every kind query reads; :meth:`TMesh.validate`
re-derives every mask from the incident cells as an independent check.

The mesh is its tables.  A cell is a row of numpy columns by id: lattice
bounds, corner vertex ids, float sizes and bounds, the smallest floats >=
its low bounds, level, parent, children by slot and split label.  A vertex
is one row: lattice position, float position, level and direction mask.
A split appends the rows of the cells and vertices it makes into new
arrays, so a copy shares every column but the three a split writes in
place (children, labels, masks); :meth:`TMesh.cell` and
:meth:`TMesh.vertex` return views of one row.  Positions live in the
vertex table only: a cut point on a cell's side is a vertex already
exactly when it is a corner of the active cell just across that side,
which the descent of point location finds.  Vertex-cell incidence is
derived in one batched pass per mesh state, on the first query after a
split: the active cells whose closure holds vertex (i, j) are those that
hold the lattice points (i - a, j - b), a, b in {0, 1}, inside the domain,
found by the same descent, kept as CSR in both orders, which
:meth:`TMesh.edge_neighbor_pairs` reads in one batch.

The level-0 knots stay exact :class:`fractions.Fraction` values, in one
axis table per direction (:class:`Axis`) shared by a mesh and its copies.
It caches the exact value of each lattice coordinate the views read, and
derives floats and location thresholds in integer arithmetic: a split,
once per distinct new coordinate, never from float midpoints.  A cell's
float width is its span's times a power of two.

Point location (:meth:`TMesh.locate_many`) compares float parameters
against the smallest float >= each level-0 knot and split midpoint: for a
float s and a rational m, ``s >= m`` exactly when s is at least the
smallest float >= m, so the exact half-open rule holds on any knots (the
float nearest 1/3 lies below 1/3 and stays in the left cell).  The far
edges are the largest floats <= them, for the same reason.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import islice
from typing import NamedTuple

import numpy as np

__all__ = [
    "VertexKind", "AdjacencyKind", "Vertex", "Cell", "CellTable", "TMesh", "Axis",
    "LatticeDepthError", "LATTICE_DEPTH", "cut_rule", "create_tensor_mesh",
]

SPLIT_KINDS = ("H", "V", "C")
_KIND_CODE = {kind: code for code, kind in enumerate(SPLIT_KINDS)}
# the label column: 0 for a cell never split, else the kind's code + 1
_LABELS = (None,) + SPLIT_KINDS

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

# each split kind on a cell's grid (see `cut_rule`): its children (slot,
# s0, s1, t0, t1) in child order and its cut points (column, row, bits)
_H_CUTS = ((0, 1, _ALONG_T | _PLUS_S), (2, 1, _ALONG_T | _MINUS_S))
_V_CUTS = ((1, 0, _ALONG_S | _PLUS_T), (1, 2, _ALONG_S | _MINUS_T))
_RULE = {
    "H": (((0, 0, 2, 0, 1), (2, 0, 2, 1, 2)), _H_CUTS),
    "V": (((0, 0, 1, 0, 2), (1, 1, 2, 0, 2)), _V_CUTS),
    "C": (((0, 0, 1, 0, 1), (1, 1, 2, 0, 1), (2, 0, 1, 1, 2), (3, 1, 2, 1, 2)),
          _H_CUTS + _V_CUTS + ((1, 1, _ALL),)),
}
_CHILD_RULE, _CUT_RULE = ([np.array(_RULE[kind][part], dtype=np.int64) for kind in SPLIT_KINDS]
                          for part in (0, 1))


def _ranges(lo, hi):
    """range(lo[k], hi[k]) for every k, concatenated into one int array."""
    n = hi - lo
    return np.arange(n.sum()) + np.repeat(lo - np.cumsum(n) + n, n)


def _run_starts(keys):
    """Whether each of the sorted `keys` differs from the one before it:
    the first of each run of equal keys, as `np.unique` would find it
    without its sort."""
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


def _rows_by_kind(rule, codes):
    """(owner, rows): the rows of `rule` (one array per split kind) for
    each kind code of `codes` in turn, owner the position in `codes`."""
    sizes = np.array([len(r) for r in rule])
    start, n = (np.cumsum(sizes) - sizes)[codes], sizes[codes]
    return np.repeat(np.arange(len(codes)), n), np.concatenate(rule)[_ranges(start, start + n)]


def cut_rule(bounds, kinds):
    """Geometry of splitting the lattice rectangles `bounds` (n, 4), rows
    (i0, i1, j0, j1), row k by split kind kinds[k] ('H', 'V' or 'C').

    Returns (grid, children, cuts), rectangle by rectangle.  grid (n, 2,
    3) holds the grid columns i0, (i0 + i1) >> 1, i1 and rows j0, (j0 +
    j1) >> 1, j1.  children = (owner, slot, box): the rectangle's row, s
    side + 2 * t side (0 low, 1 high), and (s0, s1, t0, t1) as grid
    indices, in child order.  cuts = (owner, point, bits): the grid points
    (column, row) the new edges cut through and the edge directions they
    add there, both along the side and inward at a side midpoint, all four
    at the centre of a 'C' split.
    """
    b = np.asarray(bounds, dtype=np.int64).reshape(-1, 4)
    lo, hi = b[:, ::2], b[:, 1::2]
    grid = np.stack([lo, (lo + hi) >> 1, hi], axis=-1)
    codes = np.array([_KIND_CODE[kind] for kind in kinds], dtype=np.intp)
    owner, rows = _rows_by_kind(_CHILD_RULE, codes)
    cut_owner, cut_rows = _rows_by_kind(_CUT_RULE, codes)
    return grid, (owner, rows[:, 0], rows[:, 1:]), (cut_owner, cut_rows[:, :2], cut_rows[:, 2])


def _unique_rows(rows):
    """(first, inverse) of the distinct rows of an int array (k, 2), as
    np.unique(axis=0) gives them; its stable lexsort is about 4x faster."""
    order = np.lexsort(rows.T[::-1])
    head = np.ones(len(rows), dtype=bool)
    head[1:] = (rows[order[1:]] != rows[order[:-1]]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(head) - 1
    return order[head], inverse


def _area(i0, i1, j0, j1):
    """Area of a lattice rectangle in lattice units."""
    return (i1 - i0) * (j1 - j0)


def _per_owner(values, owner, n):
    """Tuples of `values` (grouped by `owner`, ascending) for owners 0 .. n-1."""
    it = iter(values.tolist())
    return [tuple(islice(it, k)) for k in np.bincount(owner, minlength=n).tolist()]


class VertexKind(Enum):
    BOUNDARY = "Boundary"
    CROSSING = "Crossing"
    T_JUNCTION = "TJunction"


# the order of the kind codes of `TMesh._kinds`
_VERTEX_KINDS = (VertexKind.BOUNDARY, VertexKind.CROSSING, VertexKind.T_JUNCTION)


class AdjacencyKind(Enum):
    HORIZONTALLY_ALIGNED = "HorizontallyAligned"
    VERTICALLY_ALIGNED = "VerticallyAligned"


class Axis:
    """The exact level-0 knots of one direction and the values of lattice
    coordinates on them; `end` is the lattice coordinate of the last knot.
    Exact values are cached; floats come from integer arithmetic."""

    def __init__(self, knots):
        self.knots = knots
        self.end = (len(knots) - 1) * _SPAN
        self._span_float = np.array([float(b - a) for a, b in zip(knots, knots[1:])])
        self._exact = {}

    def exact(self, x):
        """Exact Fraction value of lattice coordinate x."""
        v = self._exact.get(x)
        if v is None:
            v = self._exact[x] = Fraction(*self._ratio(x))
        return v

    def _ratio(self, x):
        """(numerator, denominator > 0) of the exact value of x, unreduced."""
        k, j = divmod(x, _SPAN)
        a = self.knots[k]
        if not j:
            return a.numerator, a.denominator
        b = self.knots[k + 1]
        num = a.numerator * b.denominator
        return (num * _SPAN + (b.numerator * a.denominator - num) * j,
                a.denominator * b.denominator * _SPAN)

    def float(self, x):
        """float() of the exact value of x (int true division rounds
        correctly)."""
        num, den = self._ratio(x)
        return num / den

    def _rounded(self, x, toward):
        """The float of x if it lies on the side `toward` (+-inf) of the
        exact value, else its neighbor there."""
        num, den = self._ratio(x)
        f = num / den
        p, q = f.as_integer_ratio()
        above = p * den - num * q        # the sign of f - x
        return f if above == 0 or (above > 0) == (toward > 0) else math.nextafter(f, toward)

    def float_at_least(self, x):
        """Smallest float >= the exact value of x."""
        return self._rounded(x, math.inf)

    def float_at_most(self, x):
        """Largest float <= the exact value of x."""
        return self._rounded(x, -math.inf)

    @cached_property
    def location_floats(self):
        """(lo, hi, knots, cuts) for point location, made once per axis,
        which a mesh and its copies share: the smallest float >= the first
        knot, the largest float <= the last, and the smallest floats >= the
        knots between spans, at the lattice coordinates `cuts`."""
        cuts = np.arange(_SPAN, self.end, _SPAN, dtype=np.int64)
        return (self.float_at_least(0), self.float_at_most(self.end),
                np.array([self.float_at_least(x) for x in cuts.tolist()], dtype=float), cuts)

    def length(self, x0, x1):
        """float() of the exact extent from x0 to x1 of a cell (ints or int64
        arrays): the span's float width times a power of two, no rounding."""
        return self._span_float[x0 >> LATTICE_DEPTH] * ((x1 - x0) / _SPAN)


def _floats(axis, x):
    """`Axis.float` and `Axis.float_at_least` of the lattice coordinates
    x (an int array), each distinct coordinate derived once."""
    order = x.argsort()
    x = x[order]
    first = _run_starts(x)
    inverse = np.empty(len(x), dtype=np.intp)
    inverse[order] = first.cumsum() - 1
    values = x[first].tolist()
    return (np.array([axis.float(v) for v in values], dtype=float)[inverse],
            np.array([axis.float_at_least(v) for v in values], dtype=float)[inverse])


class Vertex:
    """A view of one row of a mesh's vertex columns: the grid point at
    lattice coordinates (i, j), made at level `level`."""

    __slots__ = ("mesh", "id")

    def __init__(self, mesh, vid):
        self.mesh, self.id = mesh, vid

    axes = property(lambda self: self.mesh.axes)
    i = property(lambda self: int(self.mesh._vtable[self.id, 0]))
    j = property(lambda self: int(self.mesh._vtable[self.id, 1]))
    level = property(lambda self: int(self.mesh._vlevel[self.id]))
    s = property(lambda self: self.axes[0].exact(self.i))
    t = property(lambda self: self.axes[1].exact(self.j))
    position = property(lambda self: (self.s, self.t))

    def position_float(self):
        return tuple(self.mesh._vfloat[self.id].tolist())

    def __repr__(self):
        return f"Vertex({self.id}, s={self.s}, t={self.t}, level={self.level})"


class Cell:
    """A view of one row of a mesh's cell columns: a rectangle with lattice
    bounds i0 < i1 along s and j0 < j1 along t, whose exact values are `s0`,
    `s1`, `t0`, `t1`, `width` and `height`.  Active cells have no children."""

    __slots__ = ("mesh", "id")

    def __init__(self, mesh, cid):
        self.mesh, self.id = mesh, cid

    axes = property(lambda self: self.mesh.axes)
    lattice_bounds = property(lambda self: tuple(self.mesh._lattice[self.id].tolist()))
    i0 = property(lambda self: int(self.mesh._lattice[self.id, 0]))
    i1 = property(lambda self: int(self.mesh._lattice[self.id, 1]))
    j0 = property(lambda self: int(self.mesh._lattice[self.id, 2]))
    j1 = property(lambda self: int(self.mesh._lattice[self.id, 3]))
    level = property(lambda self: int(self.mesh._level[self.id]))
    parent = property(lambda self: int(self.mesh._parent[self.id]) if self.level else None)
    label = property(lambda self: _LABELS[self.mesh._label[self.id]])
    active = property(lambda self: bool(self.mesh._kids[self.id, 0] < 0))
    s0 = property(lambda self: self.axes[0].exact(self.i0))
    s1 = property(lambda self: self.axes[0].exact(self.i1))
    t0 = property(lambda self: self.axes[1].exact(self.j0))
    t1 = property(lambda self: self.axes[1].exact(self.j1))
    bounds = property(lambda self: (self.s0, self.s1, self.t0, self.t1))
    width = property(lambda self: self.s1 - self.s0)
    height = property(lambda self: self.t1 - self.t0)

    @property
    def children(self):
        """Child ids in child order; () for an active cell."""
        code = self.mesh._label[self.id]
        return tuple(self.mesh._kids[self.id, _CHILD_RULE[code - 1][:, 0]].tolist()) if code else ()

    def bounds_float(self):
        return tuple(self.mesh._bounds[self.id].tolist())

    def size_float(self):
        """float() of the exact width and height."""
        return tuple(self.mesh._sizes[self.id].tolist())

    def __repr__(self):
        state = "Active" if self.active else "Subdivided"
        return f"Cell({self.id}, {self.bounds_float()}, level={self.level}, {state})"


class CellTable(NamedTuple):
    """Per-cell columns of a mesh, row `cid` for cell `cid`, over every
    cell made so far (active or not)."""
    lattice: np.ndarray              # (n, 4) int64: i0, i1, j0, j1
    corners: np.ndarray              # (n, 4) vertex ids at (s0, t0), (s1, t0), (s0, t1), (s1, t1)
    sizes: np.ndarray                # (n, 2) float width and height, as `Cell.size_float`


# an s (t) midpoint that no point reaches, for a cell not cut across s (t)
_NEVER = np.iinfo(np.int64).max


def _descend(kids, s, t, s_cuts, t_cuts, s_mid, t_mid, start=None):
    """Active cells holding the points (s, t) under the half-open rule:
    from the cells `start` when given (each the point's cell or one of its
    ancestors), else from the level-0 cells found by the cuts between
    spans, down `kids`, taking the high side of each midpoint a point
    reaches."""
    if start is None:
        # level-0 cells are numbered row by row, s fastest
        start = (np.searchsorted(t_cuts, t, side="right") * (len(s_cuts) + 1)
                 + np.searchsorted(s_cuts, s, side="right"))
    cid = np.array(start, dtype=np.int64).ravel()
    todo = np.flatnonzero(kids[cid, 0] >= 0)
    while todo.size:
        c = cid[todo]
        c = kids[c, (s[todo] >= s_mid[c]) + 2 * (t[todo] >= t_mid[c])]
        cid[todo] = c
        todo = todo[kids[c, 0] >= 0]
    return cid


class TMesh:
    """Leveled T-mesh with exact coordinates.  The cell table is the
    subdivision history: each subdivided cell keeps its level and its split
    label, and the children of a split take the next ids, so the splits in
    order are the subdivided cells by their first child's id.  Reading is
    safe from any number of threads, while :meth:`split_many` needs
    exclusive access; :meth:`copy` leaves the original untouched."""

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
        self._locator = self._incidence = None

        # cells row by row and vertices line by line, s fastest: cell
        # (a, b) has the corner vertex b * (ns + 1) + a at its low end
        ns, nt = len(s_knots) - 1, len(t_knots) - 1
        a, b = np.tile(np.arange(ns), nt), np.repeat(np.arange(nt), ns)
        sf, tf, s_least, t_least = (
            np.array([fn(axis, x) for x in range(0, axis.end + 1, _SPAN)])
            for fn in (Axis.float, Axis.float_at_least) for axis in self.axes)
        self._append_cells(np.stack([a, a + 1, b, b + 1], axis=1) * _SPAN,
                           (b * (ns + 1) + a)[:, None] + np.array([0, 1, ns + 1, ns + 2]),
                           np.stack([sf[a], sf[a + 1], tf[b], tf[b + 1]], axis=1),
                           np.stack([s_least[a], t_least[b]], axis=1), 0, np.full(len(a), -1))
        i, j = np.tile(np.arange(ns + 1), nt + 1), np.repeat(np.arange(nt + 1), ns + 1)
        self._append_vertices(np.stack([i, j], axis=1) * _SPAN, np.stack([sf[i], tf[j]], axis=1), 0)
        self._dirs[:] = (_PLUS_S * (i < ns) | _MINUS_S * (i > 0)
                         | _PLUS_T * (j < nt) | _MINUS_T * (j > 0))

    # ------------------------------------------------------------------
    # construction internals

    _next_cell = property(lambda self: len(self._level))
    _next_vert = property(lambda self: len(self._vlevel))

    def _grow(self, **rows):
        """Append rows to the named columns (or make them), each into a new
        array, so a copy that shares a column keeps it as it was."""
        for name, new in rows.items():
            old = self.__dict__.get(name)
            setattr(self, name, new if old is None else np.concatenate([old, new]))

    def _append_cells(self, lattice, corners, bounds, at_least, level, parent):
        """Append active cells, their columns as in the module docstring."""
        n, (sa, ta) = len(lattice), self.axes
        sizes = np.stack([sa.length(lattice[:, 0], lattice[:, 1]),
                          ta.length(lattice[:, 2], lattice[:, 3])], axis=1)
        self._grow(_lattice=lattice, _corners=corners, _sizes=sizes, _bounds=bounds,
                   _at_least=at_least, _level=np.full(n, level, dtype=np.int64), _parent=parent,
                   _kids=np.full((n, 4), -1, dtype=np.int64), _label=np.zeros(n, dtype=np.int8))

    def _append_vertices(self, ij, xy, level):
        """Append vertices at lattice positions ij (k, 2) and float
        positions xy (k, 2), with empty masks; returns the first new id."""
        self._grow(_vtable=ij, _vfloat=xy, _vlevel=np.full(len(ij), level, dtype=np.int64),
                   _dirs=np.zeros(len(ij), dtype=np.uint8))
        return self._next_vert - len(ij)

    def at_domain_ends(self, ij):
        """Mask (..., 2) of the lattice positions ij (..., 2) whose s (t)
        coordinate is the first or last knot: a position lies on the domain
        boundary where either column is True."""
        return (ij == 0) | (ij == [axis.end for axis in self.axes])

    # ------------------------------------------------------------------
    # value semantics

    def copy(self):
        m = object.__new__(TMesh)
        m.__dict__.update(self.__dict__)
        # a split writes these in place; the others grow into new arrays
        m._kids, m._label, m._dirs = self._kids.copy(), self._label.copy(), self._dirs.copy()
        m._locator = m._incidence = None
        return m

    # ------------------------------------------------------------------
    # queries

    def cell(self, cid):
        if not 0 <= cid < self._next_cell:
            raise KeyError(f"unknown cell id {cid}")
        return Cell(self, int(cid))

    def vertex(self, vid):
        if not 0 <= vid < self._next_vert:
            raise KeyError(f"unknown vertex id {vid}")
        return Vertex(self, int(vid))

    def cell_table(self):
        """The `CellTable` of every cell made so far.  Its rows never
        change, so copies share the rows they have in common."""
        return CellTable(self._lattice, self._corners, self._sizes)

    def cell_bounds(self):
        """Float bounds (n, 4) of every cell made so far, as `Cell.bounds_float`."""
        return self._bounds

    def vertex_table(self):
        """Lattice positions (n, 2) int64, (i, j), of every vertex made so far."""
        return self._vtable

    def vertex_floats(self):
        """Float positions (n, 2) of every vertex made so far, as `Vertex.position_float`."""
        return self._vfloat

    def active_cells(self):
        return np.flatnonzero(self._kids[:, 0] < 0).tolist()

    def cells_of_level(self, level):
        return np.flatnonzero((self._kids[:, 0] < 0) & (self._level == level)).tolist()

    def vertices(self):
        return list(range(self._next_vert))

    def vertex_cells(self, vid):
        """Ids of active cells whose closed boundary contains the vertex, ascending."""
        start, cells, _, _ = self._incidence_tables()
        if not 0 <= vid < len(start) - 1:
            self.vertex(vid)                    # raises the KeyError
        return cells[start[vid]:start[vid + 1]].tolist()

    def _active_cell(self, cid):
        c = self.cell(cid)
        if not c.active:
            raise ValueError(f"cell {cid} is not active")
        return c

    def _incidence_tables(self):
        """(cell_start, cells, vert_start, verts): the incidence CSR, vertex
        v's cells at cells[cell_start[v]:cell_start[v + 1]] and cell c's
        vertices likewise, ascending, built on first use and dropped by a
        split."""
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
            keys = np.sort((inside >> 2) * n + cids)
            vids, cids = np.divmod(keys[_run_starts(keys)], n)
            by_cell = np.argsort(cids, kind="stable")
            csr = (np.searchsorted(vids, np.arange(len(vij) + 1)), cids,
                   np.searchsorted(cids[by_cell], np.arange(n + 1)), vids[by_cell])
            self._incidence = csr
        return self._incidence

    def _kinds(self, vids=None):
        """Kind codes (indices into `_VERTEX_KINDS`) of the vertices `vids`
        (an int array; all if None), read from the edge-direction masks in
        one pass.  A vertex off the boundary with fewer than three
        directions raises ValueError."""
        count = _DIRECTION_COUNT[self._dirs]
        pos = self._vtable
        if vids is None:
            vids = np.arange(len(pos))
        else:
            count, pos = count[vids], pos[vids]
        boundary = self.at_domain_ends(pos).any(axis=-1)
        bad = ~boundary & (count < 3)
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(f"vertex {vids[k]} has {count[k]} incident edge directions; "
                             f"not a valid T-mesh vertex")
        return np.where(boundary, 0, np.where(count == 4, 1, 2))

    def classify_vertex(self, vid):
        """Kind of a vertex, read from its edge-direction mask."""
        return _VERTEX_KINDS[self._kinds(np.array([self.vertex(vid).id]))[0]]

    def is_basis_vertex(self, vid):
        """Boundary vertices and interior crossing vertices carry basis functions."""
        return self.classify_vertex(vid) is not VertexKind.T_JUNCTION

    def _basis_mask(self, vids=None):
        """`is_basis_vertex` of the vertices `vids` (an int array; all if
        None) in one pass, raising the ValueError of `classify_vertex`."""
        return self._kinds(vids) < 2

    def edge_neighbor_pairs(self, cids):
        """The pairs (a, b), a < b, of the active cells `cids` that share a
        positive-length edge piece, as two int arrays by a and then b, in
        one batched pass over the incidence CSR: the cells holding two or
        more of the same vertices (the ends of a shared piece; a corner
        touch shares one)."""
        cids = np.sort(np.asarray(cids, dtype=np.intp), axis=None)
        cids = cids[_run_starts(cids)]
        n = self._next_cell
        known = (cids >= 0) & (cids < n)
        bad = ~known | (self._kids[np.where(known, cids, 0), 0] >= 0)
        if bad.any():
            self._active_cell(int(cids[np.argmax(bad)]))
        cell_start, cells, vert_start, verts = self._incidence_tables()
        lo, hi = vert_start[cids], vert_start[cids + 1]
        a, vids = np.repeat(cids, hi - lo), verts[_ranges(lo, hi)]
        lo, hi = cell_start[vids], cell_start[vids + 1]
        a, b = np.repeat(a, hi - lo), cells[_ranges(lo, hi)]
        wanted = np.zeros(n, dtype=bool)
        wanted[cids] = True
        keep = (a < b) & wanted[b]
        # the pairs met more than once: runs of more than one equal key
        keys = np.sort(a[keep] * n + b[keep])
        start = np.flatnonzero(np.append(_run_starts(keys), True))
        return np.divmod(keys[start[:-1]][np.diff(start) > 1], n)

    def dimension(self):
        """Spline-space dimension 4*(boundary vertices + interior crossings)."""
        return 4 * int(np.count_nonzero(self._basis_mask()))

    def basis_vertices(self):
        return np.flatnonzero(self._basis_mask()).tolist()

    def locate_cell(self, s, t):
        """Active cell containing one parameter point; see :meth:`locate_many`."""
        return int(self.locate_many(s, t))

    def locate_many(self, s, t, start=None):
        """Active cells (an int64 array) containing the points of the float
        arrays `s` and `t`, of one shape.  Points on interior grid lines go
        to the cell on the +side (half-open); the domain's far edges close
        the last cells.  Points outside the domain, and NaN, raise ValueError.

        `start`, of the same shape, names a cell that holds each point (its
        cell on an earlier mesh of this history, or any ancestor of it); the
        descent begins there instead of at level 0, with the same result.
        """
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        if s.shape != t.shape:
            raise ValueError(f"s and t differ in shape: {s.shape} vs {t.shape}")
        if start is not None and np.shape(start) != s.shape:
            raise ValueError(f"start and the points differ in shape: {np.shape(start)} vs {s.shape}")
        (s_lo, s_hi, t_lo, t_hi), kids, floats, _ = self._location_tables()
        inside = (s >= s_lo) & (s <= s_hi) & (t >= t_lo) & (t <= t_hi)
        if not inside.all():
            k = np.flatnonzero(~inside)[0]
            raise ValueError(f"point ({s.flat[k]}, {t.flat[k]}) outside domain")
        return _descend(kids, s.ravel(), t.ravel(), *floats, start).reshape(s.shape)

    def _location_tables(self):
        """(bounds, kids, floats, lattice) for :func:`_descend`, built on
        first use and dropped by a split: the closed float domain bounds,
        the children column by slot (-1 where none), and the level-0 knots
        between spans and each cell's s and t split midpoints, as smallest
        floats >= and as lattice coordinates; an uncut direction has a
        midpoint no point reaches (inf, `_NEVER`).  The bounds and the knots
        come from the axes (`Axis.location_floats`)."""
        if self._locator is None:
            # a cut's midpoint is the low bound of the child on its high side
            high = self._kids[:, [1, 2]]
            cut = high >= 0
            mids = np.where(cut, self._lattice[high, [0, 2]], _NEVER)
            mid_floats = np.where(cut, self._at_least[high, [0, 1]], np.inf)
            (s_lo, s_hi, s_knots, s_cuts), (t_lo, t_hi, t_knots, t_cuts) = (
                axis.location_floats for axis in self.axes)
            self._locator = ((s_lo, s_hi, t_lo, t_hi), self._kids,
                             [s_knots, t_knots, mid_floats[:, 0], mid_floats[:, 1]],
                             [s_cuts, t_cuts, mids[:, 0], mids[:, 1]])
        return self._locator

    def _vertices_at_cuts(self, ij, point):
        """Ids of the vertices at the cut points ij (q, 2), grid points
        `point` of active cells (see `cut_rule`), -1 where none.  A point on
        a cell's side is a vertex exactly when it is a corner of the active
        cell across it: any vertex there was cut, with an edge, from that
        side.  Nothing is across the domain boundary or a cross's centre."""
        probe = ij - (point == 0)
        across = np.flatnonzero((point != 1).any(axis=1) & (probe >= 0).all(axis=1)
                                & (probe < [a.end for a in self.axes]).all(axis=1))
        _, kids, _, lattice = self._location_tables()
        cells = _descend(kids, probe[across, 0], probe[across, 1], *lattice)
        p, lo, hi = ij[across], self._lattice[cells, ::2], self._lattice[cells, 1::2]
        corner = ((p == lo) | (p == hi)).all(axis=1)
        vid = np.full(len(ij), -1, dtype=np.int64)
        vid[across[corner]] = self._corners[cells[corner], (p == hi)[corner] @ [1, 2]]
        return vid

    # ------------------------------------------------------------------
    # mutation

    def advance_current_level(self):
        self.current_level += 1

    def split_cell(self, cid, kind):
        """Subdivide an active, current-level cell in place: the one-cell
        case of :meth:`split_many`.  Returns the tuple of child ids."""
        return self.split_many([cid], [kind])[0][0]

    def split_many(self, cids, kinds):
        """Subdivide active, current-level cells in place, cids[k] by
        kinds[k], with the cells, vertices and ids of splitting them one at
        a time in the order given: 'H' inserts a horizontal mid edge (2
        children, bottom first), 'V' a vertical one (left first), 'C' a
        cross (bottom-left, bottom-right, top-left, top-right).  A new cut
        vertex takes its id and the cells' level + 1 where it first appears.
        Records each kind as the cell's `label`.
        Returns (children, cuts): per cell, its child ids and the vertex ids
        at its cut points, in `cut_rule` order.  Nothing is written unless
        every cell can be split; the first that cannot raises (`_refuse`).
        """
        cids, kinds = np.asarray(cids, dtype=np.int64).reshape(-1), list(kinds)
        if len(kinds) != len(cids):
            raise ValueError(f"{len(kinds)} split kinds for {len(cids)} cells")
        n = len(cids)
        codes = self._check_split(cids, kinds)
        grid, (owner, slot, box), (cut_owner, point, bits) = cut_rule(self._lattice[cids], kinds)
        ij = grid[cut_owner[:, None], [0, 1], point]
        vid = self._vertices_at_cuts(ij, point)
        # float grid columns and rows, and the smallest floats >= the low
        # and middle ones, from each distinct new midpoint
        floats = np.full((n, 2, 3), np.nan)
        floats[:, :, ::2] = self._bounds[cids].reshape(n, 2, 2)
        least = np.stack([self._at_least[cids], np.full((n, 2), np.nan)], axis=-1)
        for a, axis in enumerate(self.axes):
            k = np.flatnonzero(codes != a)      # 'H' cuts no s midpoint, 'V' no t midpoint
            floats[k, a, 1], least[k, a, 1] = _floats(axis, grid[k, a, 1])
        # the missing cut points become vertices in order of first appearance
        miss = np.flatnonzero(vid < 0)
        first, inverse = _unique_rows(ij[miss])
        vid[miss] = self._next_vert + np.argsort(np.argsort(first))[inverse]
        new = miss[np.sort(first)]
        self._append_vertices(ij[new], floats[cut_owner[new, None], [0, 1], point[new]],
                              self.current_level + 1)
        np.bitwise_or.at(self._dirs, vid, bits.astype(np.uint8))
        # each cell's vertices on its 3 x 3 grid, by (row, column)
        verts = np.empty((n, 3, 3), dtype=np.int64)
        verts[:, ::2, ::2] = self._corners[cids].reshape(n, 2, 2)
        verts[cut_owner, point[:, 1], point[:, 0]] = vid
        o, sides, kids = owner[:, None], [0, 0, 1, 1], self._next_cell + np.arange(len(owner))
        corners = verts[o, box[:, [2, 2, 3, 3]], box[:, [0, 1, 0, 1]]]
        self._append_cells(grid[o, sides, box], corners, floats[o, sides, box],
                           least[o, [0, 1], box[:, ::2]], self.current_level + 1, cids[owner])
        self._kids[cids[owner], slot] = kids
        self._label[cids] = codes + 1
        self._locator = self._incidence = None
        return _per_owner(kids, owner, n), _per_owner(vid, cut_owner, n)

    def _open(self, cids):
        """Mask of the cells `cids` (an int array) that exist, are active
        and have the current level."""
        known = (cids >= 0) & (cids < self._next_cell)
        rows = np.where(known, cids, 0)
        return known & (self._kids[rows, 0] < 0) & (self._level[rows] == self.current_level)

    def _check_split(self, cids, kinds):
        """The kind codes of a batch of splits, after checking every cell."""
        # a stable sort keeps each id's first occurrence first in its run
        order = np.argsort(cids, kind="stable")
        again = np.empty(len(cids), dtype=bool)
        again[order] = ~_run_starts(cids[order])
        codes = np.array([_KIND_CODE.get(kind, -1) for kind in kinds], dtype=np.intp)
        rows = np.clip(cids, 0, self._next_cell - 1)
        # a cut across an extent of one lattice unit
        narrow = (self._lattice[rows, 1::2] - self._lattice[rows, ::2] < 2) & np.array(
            [codes != 0, codes != 1]).T
        bad = ~self._open(cids) | again | (codes < 0) | narrow.any(axis=1)
        if bad.any():
            k = int(np.argmax(bad))
            self._refuse(int(cids[k]), kinds[k], again[k])
        return codes

    def _refuse(self, cid, kind, again):
        """Raise why cell `cid` cannot be split by `kind` (`again`: the
        batch splits it before); a LatticeDepthError where a cut would halve
        an extent of one lattice unit."""
        c = self.cell(cid)
        if again or not c.active:
            raise ValueError(f"cell {cid} is already subdivided")
        if c.level != self.current_level:
            raise ValueError(
                f"cell {cid} has level {c.level}, but only cells of the current "
                f"level {self.current_level} may be subdivided (cells skipped at "
                f"their own level are frozen)")
        if kind not in SPLIT_KINDS:
            raise ValueError(f"unknown split kind {kind!r}")
        along = "t" if kind != "V" and c.j1 - c.j0 == 1 else "s"
        raise LatticeDepthError(
            f"cell {cid} is one lattice unit wide along {along}; a '{kind}' split "
            f"would go past the lattice depth of {LATTICE_DEPTH} halvings per span")

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
        lattice, act = self._lattice.tolist(), np.array(self.active_cells(), dtype=np.int64)
        ends = [axis.end for axis in self.axes]
        i0, i1, j0, j1 = self._lattice[act].T
        degenerate = (i1 <= i0) | (j1 <= j0)
        outside = (i0 < 0) | (i1 > ends[0]) | (j0 < 0) | (j1 > ends[1])
        for k in np.flatnonzero(degenerate | outside).tolist():
            if degenerate[k]:
                out.append(f"cell {act[k]}: degenerate rectangle")
            if outside[k]:
                out.append(f"cell {act[k]}: outside domain")
        # areas in lattice units, which map onto exact areas span by span;
        # Python ints, since an area may pass 2**63
        area = sum(map(_area, i0.tolist(), i1.tolist(), j0.tolist(), j1.tolist()))
        if area != ends[0] * ends[1]:
            out.append(f"active cells cover {area} lattice units of area, "
                       f"domain has {ends[0] * ends[1]}")
        out += [f"cells {a} and {b} overlap" for a, b in act[self._overlaps(act)].tolist()]
        for cid in range(self._next_cell):
            c = self.cell(cid)
            kids = [self.cell(k) for k in c.children]
            for kc in kids:
                if kc.level != c.level + 1:
                    out.append(f"cell {kc.id}: level {kc.level} != parent level + 1")
                if not (c.i0 <= kc.i0 and kc.i1 <= c.i1 and c.j0 <= kc.j0 and kc.j1 <= c.j1):
                    out.append(f"cell {kc.id}: not inside parent {cid}")
            if kids and sum(_area(*lattice[kc.id]) for kc in kids) != _area(*lattice[cid]):
                out.append(f"cell {cid}: children do not tile it")
        boundary = self.at_domain_ends(self._vtable).any(axis=1).tolist()
        for vid, (i, j) in enumerate(self._vtable.tolist()):
            # the edge directions the incident cells show, independent of the mask
            dirs = 0
            for c0, c1, d0, d1 in map(lattice.__getitem__, self.vertex_cells(vid)):
                if j == d0 or j == d1:
                    dirs |= _PLUS_S * (i < c1) | _MINUS_S * (i > c0)
                if i == c0 or i == c1:
                    dirs |= _PLUS_T * (j < d1) | _MINUS_T * (j > d0)
            if dirs != self._dirs[vid]:
                out.append(f"vertex {vid}: direction mask {self._dirs[vid]:04b} "
                           f"disagrees with its incident cells ({dirs:04b})")
            if dirs.bit_count() < (2 if boundary[vid] else 3):
                out.append(f"vertex {vid}: grid-line endpoint not on two grid lines")
        return out

    def _overlaps(self, cids):
        """The pairs (k, l), k < l ascending, of the cells cids[k] and
        cids[l] whose open rectangles overlap.  Of two overlapping cells,
        one holds the other's low s end in its s-interval [i0, i1), so the
        candidates come from one search of the sorted low ends."""
        i0, i1, j0, j1 = self._lattice[cids].T
        order = np.argsort(i0, kind="stable")
        lo = np.searchsorted(i0[order], i0)
        hi = np.maximum(np.searchsorted(i0[order], i1), lo)
        k = np.repeat(np.arange(len(cids)), hi - lo)
        m = order[_ranges(lo, hi)]
        hit = ((np.minimum(i1[k], i1[m]) > np.maximum(i0[k], i0[m]))
               & (np.minimum(j1[k], j1[m]) > np.maximum(j0[k], j0[m])) & (k != m))
        pairs = np.sort(np.stack([k[hit], m[hit]], axis=1), axis=1)
        return pairs[np.unique(pairs[:, 0] * len(cids) + pairs[:, 1], return_index=True)[1]]

    def same_structure(self, other):
        """True when both meshes have identical cell and vertex sets."""
        # the level-0 cells are the knot spans: other knots, other cells
        if self.axes is not other.axes and \
           [a.knots for a in self.axes] != [a.knots for a in other.axes]:
            return False

        def cells(m):
            return np.unique(np.column_stack([m._lattice, m._level, m._kids[:, 0] < 0]), axis=0)

        return (np.array_equal(cells(self), cells(other))
                and np.array_equal(np.unique(self._vtable, axis=0), np.unique(other._vtable, axis=0)))


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
