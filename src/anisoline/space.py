"""C1 bicubic spline spaces over modified hierarchical T-meshes.

Every basis vertex (boundary or interior crossing) carries four basis
functions, stored purely in per-cell Bezier form.  Knot vectors appear only
transiently, when the level-0 tensor basis and the four functions of a
newly created basis vertex are built; after that one representation, the
three tables of `SplineSpace` (basis vertices, per-cell patches, the
collocation table), feeds evaluation, modification, fitting and assembly.

Level construction has one birth rule (`_births`).  A new basis vertex
gets four tensor-product functions on the cells it is a corner of (2x2
inside the domain, 1x2 on an edge, one cell at a domain corner), made of
two univariate C1 cubics per direction on the widths of the cells on
either side of it, with a quadruple knot at a domain end (Deng, Chen,
Li, Feng, Yang and Feng, "Polynomial splines over hierarchical
T-meshes", 2008).  One pass over the corners of the cells born with the
vertices finds every vertex's support cells and factors:

* level 0 is that rule with every cell and every vertex born, which gives
  the C1 tensor-product cubics with doubled interior knots;
* when the mesh refines, each existing function is pushed through the
  modification operator: its patches on subdivided cells are split with
  de Casteljau's algorithm, then every 2x2 ordinate block sitting at a
  *new* basis vertex is reset to zero, in all incident child cells at
  once (this keeps the functions C1 and hands the local Hermite data
  over to the newcomers); the new basis vertices are then born on the
  children, which hold all their support.

The advance works on the cell table, carried across levels as in
multi-level Bezier extraction (D'Angella, Kollmannsberger, Rank and
Reali, 2018): unsplit cells keep their entries, and subdivided cells are
rewritten per kind, `_SPLIT_CELLS` (16) whole cells at a time, in one
pass per chunk.  Memory bounds the chunk: at 32 cells its temporaries
lift the advance's heap peak past 1.1 times the per-patch advance's and
past 1.3 times what the advance keeps, the bounds of the two memory
tests in `tests/test_space.py`.  The chunk's patches are split by one
matmul with the kind's Kronecker matrix of the half-interval de
Casteljau maps (`bezier.split_patches`); their new-vertex corner
blocks, a 4-bit corner code per child read off the births' incidence
table, are zeroed by one lookup in a 16-row keep table
(`bezier.zero_corner_blocks`).  The live pieces are taken by one
`np.nonzero` of the nonzero-piece mask, and the new vertices' functions
on the chunk's children, batched outer products of univariate ordinates,
from the children's rows of the incidence table.  One stable
sort by child id merges both, old ids before new ones, and slicing the
sorted pieces cuts the children's entries (`_entries`, which also cuts
the level-0 space's).

The four functions at a vertex reproduce arbitrary (value, d_s, d_t,
d_st) data there, and all other functions carry zero data at that
vertex; this collocation structure is what makes the basis linearly
independent and lets coefficients be computed vertex by vertex.  The
collocation block of a vertex is kron(T, S) of the (value, slope) pairs
of its univariate s and t functions.  It never changes after the vertex's
birth (splitting is exact, and zeroing touches only blocks at newer
vertices), so the births record S and T then, in one table on the
space (`SplineSpace.factors`).  `collocation_block` reads one row, and
`field_from_vertex_data` and `transfer_field` solve all their vertices
against kron(T^-1, S^-1) in one batched einsum.

Every evaluation in the package goes through one Bezier-extraction kernel
(Borden, Scott, Evans and Hughes, 2011), kept here with the
representation.  It walks cells in blocks of `_BLOCK` (`_Cells`: function
ids and 4x4 patches, zero-padded to the block's widest cell, and the
cells' float bounds from the mesh's `cell_bounds` table), contracts
coefficients into one patch per cell, and evaluates patches by a matmul
with Bernstein tables: at local points shared by all cells
(`SplineField.eval_grid`, the solver's Gauss points; `_bernstein_tables`,
`_eval_patches`), or at scattered points with known cells, read in their
stable cell order (`cell_order`) as contiguous runs per ascending cell
(`SplineField.eval_runs`), `_CHUNK` points at a time: each point's 16
tensor-product weights bv (x) bu are applied to its cell's contracted
patch by one batched matmul.  `SplineField.eval_located` sorts its points
once, evaluates the runs and scatters the values back.  Blocks and chunks
bound the memory.
"""

from __future__ import annotations

import json
from functools import cached_property

import numpy as np

from . import bezier
from .tmesh import SPLIT_KINDS, TMesh, _ranges

__all__ = [
    "SplineSpace", "SplineField", "CollocationBlock",
    "build_initial_space", "advance_level", "collocation_block",
    "field_from_vertex_data", "transfer_field", "cell_order",
]

# derivative orders in reporting order: value, s, t, ss, st, tt
DERIV_ORDERS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
# the collocation data at a vertex: f, f_s, f_t, f_st
HERMITE_ORDERS = ((0, 0), (1, 0), (0, 1), (1, 1))

# cells per block and scattered points per chunk of the evaluation kernel
_BLOCK = 64
_CHUNK = 1024
# subdivided cells split per chunk by the level advance
_SPLIT_CELLS = 16
# the cell-table entry of a cell without functions
_NO_FUNCTIONS = (np.zeros(0, dtype=np.intp), np.zeros((0, 4, 4)))


class CollocationBlock:
    """The 4x4 matrix of (f, f_s, f_t, f_st) data of the four functions
    anchored at one basis vertex.  Row k holds the data of slot k, so a
    coefficient row vector c satisfies  data = c @ matrix.

    The matrix is kron(T, S) of the vertex's univariate factors: row j of
    S (T) holds the (value, slope) of its j-th s (t) function.  Its inverse
    is kron(T^-1, S^-1); a singular factor raises a RuntimeError naming the
    vertex.
    """

    def __init__(self, vertex, factors):
        self.vertex = vertex
        self.factors = factors          # (2, 2, 2): S, T
        self.inverse = _inverse_blocks(factors[None], [vertex])[0]

    @property
    def matrix(self):
        return _kron2(self.factors[1], self.factors[0])

    def solve(self, data):
        """Coefficients reproducing `data` (shape (..., 4)) at the vertex."""
        return np.asarray(data, dtype=float) @ self.inverse


class SplineSpace:
    """A basis for the C1 bicubic spline space over a T-mesh value, as
    three tables:

    * `vertices[k]` is the basis vertex whose slots 0-3 are the functions
      4k .. 4k + 3;
    * `cells` maps each active cell id to (the ids of its functions,
      ascending (F,); their Bezier patches there (F, 4, 4)).  Spaces share
      entries (`advance_level` keeps those of unsplit cells), so nothing
      writes into them;
    * `factors` is the collocation table (len(vertices), 2, 2, 2): row k
      holds the factors S and T of vertex k's collocation block kron(T, S)
      (see `CollocationBlock`).  The space builders record it; a space
      constructed without it fills it from the patches' corner data on
      first use.
    """

    def __init__(self, mesh, vertices, cells, factors=None):
        self.mesh = mesh
        self.vertices = vertices
        self.cells = cells
        if factors is not None and np.shape(factors) != (len(vertices), 2, 2, 2):
            raise ValueError(f"collocation table of shape {np.shape(factors)} for "
                             f"{len(vertices)} basis vertices")
        self._factors = factors

    @classmethod
    def from_supports(cls, mesh, vertices, supports):
        """The space whose function 4k + slot, at basis vertex vertices[k],
        has the patches supports[4k + slot] ({cell id: (4, 4) patch})."""
        if len(supports) != 4 * len(vertices):
            raise ValueError(f"{len(supports)} functions for {len(vertices)} basis vertices, "
                             f"expected four per vertex")
        if len(set(vertices)) != len(vertices):
            twice = next(v for k, v in enumerate(vertices) if v in vertices[:k])
            raise ValueError(f"basis vertex {twice} is listed twice")
        entries = {}
        for fid, support in enumerate(supports):
            for cid, patch in support.items():
                entries.setdefault(cid, []).append((fid, patch))
        cells = {cid: (np.array([f for f, _ in es], dtype=np.intp),
                       np.array([p for _, p in es], dtype=float).reshape(-1, 4, 4))
                 for cid, es in entries.items()}
        return cls(mesh, list(vertices), cells)

    @property
    def dim(self):
        return 4 * len(self.vertices)

    @cached_property
    def vertex_row(self):
        return {vid: k for k, vid in enumerate(self.vertices)}

    @cached_property
    def vertex_index(self):
        return {vid: tuple(range(4 * k, 4 * k + 4)) for k, vid in enumerate(self.vertices)}

    @property
    def factors(self):
        if self._factors is None:
            self._factors = _factors_from_patches(self)
        return self._factors

    def functions_on_cell(self, cid):
        return self.cells.get(cid, _NO_FUNCTIONS)[0].tolist()

    def functions_on_cells(self, cids):
        """The set of ids of the functions living on any of the cells."""
        return {fid for cid in cids for fid in self.functions_on_cell(cid)}

    def supports(self):
        """Per function, its patches {cell id: (4, 4) patch} in ascending
        cell order, read from the cell table."""
        out = [{} for _ in range(self.dim)]
        for cid in sorted(self.cells):
            fids, patches = self.cells[cid]
            for fid, patch in zip(fids.tolist(), patches):
                out[fid][cid] = patch
        return out

    def basis_data_at_vertex(self, fid, vid):
        """(f, f_s, f_t, f_st) of one function at a vertex, zeros off-support."""
        v = self.mesh.vertex(vid)
        for cid in self.mesh.vertex_cells(vid):
            c = self.mesh.cell(cid)
            fids, patches = self.cells.get(cid, _NO_FUNCTIONS)
            k = np.searchsorted(fids, fid)
            if k < len(fids) and fids[k] == fid and \
                    v.i in (c.i0, c.i1) and v.j in (c.j0, c.j1):
                corner = (0 if v.i == c.i0 else 1, 0 if v.j == c.j0 else 1)
                return bezier.corner_data(patches[k], corner, *c.size_float())
        return np.zeros(4)

    def basis_on_cell(self, cid, u, v, derivs=DERIV_ORDERS[:1]):
        """Evaluate all functions living on a cell at local points.

        u, v are arrays of local coordinates in [0,1]; returns
        (function ids, array of shape (nderivs, nf, npts)) with
        derivatives already in global parameter units.
        """
        blk = _Cells(self, [cid])
        tables = _bernstein_tables(np.atleast_1d(np.asarray(u, dtype=float))[None],
                                   np.atleast_1d(np.asarray(v, dtype=float))[None], derivs)
        out = np.stack([_eval_patches(blk.patches, tables, d, blk.width, blk.height)[0]
                        for d in derivs])
        return self.functions_on_cell(cid), out

    def to_json_dict(self):
        return {
            "mesh": self.mesh.to_json_dict(),
            "functions": [
                {"anchor": self.vertices[fid // 4], "slot": fid % 4,
                 "birth_level": self.mesh.vertex(self.vertices[fid // 4]).level,
                 "support": {str(cid): [float(x) for x in patch.ravel()]
                             for cid, patch in support.items()}}
                for fid, support in enumerate(self.supports())],
        }

    def to_json(self, **kw):
        return json.dumps(self.to_json_dict(), **kw)

    @classmethod
    def from_json_dict(cls, d):
        """The space of `to_json_dict`: four functions per basis vertex, in
        slot order, or a ValueError names the first out of place."""
        mesh = TMesh.from_json_dict(d["mesh"])
        records = d["functions"]
        vertices = [fd["anchor"] for fd in records[::4]]
        for fid, fd in enumerate(records):
            if (fd["anchor"], fd["slot"]) != (vertices[fid // 4], fid % 4):
                raise ValueError(f"function {fid} is slot {fd['slot']} of vertex {fd['anchor']}, "
                                 f"expected slot {fid % 4} of vertex {vertices[fid // 4]}")
        supports = [{int(cid): np.array(vals, dtype=float).reshape(4, 4)
                     for cid, vals in fd["support"].items()} for fd in records]
        return cls.from_supports(mesh, vertices, supports)

    @classmethod
    def from_json(cls, text):
        return cls.from_json_dict(json.loads(text))


# ----------------------------------------------------------------------
# births: the four functions of each new basis vertex

def _univariate_factors(lo, hi):
    """(value, slope) rows (..., 2, 2) of the two univariate C1 cubics at
    breakpoints between cells of widths lo and hi (...); both vanish to
    first order at the neighboring breakpoints.  NaN marks a domain end,
    where a quadruple knot gives the first function the value and the
    second the slope."""
    a = 1.0 / (lo + hi)
    interior = np.stack([hi * a, -3.0 * a, lo * a, 3.0 * a], axis=-1)
    first = np.stack([np.ones_like(hi), -3.0 / hi, np.zeros_like(hi), 3.0 / hi], axis=-1)
    last = np.stack([np.ones_like(lo), 3.0 / lo, np.zeros_like(lo), -3.0 / lo], axis=-1)
    out = np.where(np.isnan(lo)[..., None], first,
                   np.where(np.isnan(hi)[..., None], last, interior))
    return out.reshape(lo.shape + (2, 2))


def _births(mesh, cells, born):
    """Collocation factors and support cells of the basis vertices `born`
    (ascending ids), from one pass over the corners of `cells`, which must
    hold every cell the vertices touch; corners and sizes are rows of the
    mesh's `cell_table`.

    Returns (factors, incidence).  factors (n, 2, 2, 2) holds each
    vertex's S and T (see `CollocationBlock`).  incidence has one entry per
    support cell, sorted by cell and then vertex, as arrays: the vertex's
    row in `born`, the cell id, the corner cs + 2 ct the vertex sits at
    (cs = 1 at the cell's high s end, ct = 1 at its high t end) and the
    cell's (width, height).

    A vertex is a corner of 4 cells inside the domain, 2 on an edge and 1
    at a domain corner, and the cells on one side of it share their extent
    across it (a tensor block); an AssertionError names the first vertex
    that breaks either rule.
    """
    born = np.asarray(born, dtype=np.intp)
    cells = np.asarray(cells, dtype=np.intp)
    table = mesh.cell_table()
    vids = table.corners[cells]
    at, corner = np.nonzero(np.isin(vids, born))
    rows = np.searchsorted(born, vids[at, corner])
    cids = cells[at]
    order = np.lexsort((rows, cids))
    rows, cids, corner = rows[order], cids[order], corner[order]
    sizes = table.sizes[cids]

    pos = mesh.vertex_table()[born]
    on_edge = mesh.at_domain_ends(pos)
    want = np.where(on_edge, 1, 2).prod(axis=1)
    got = np.bincount(rows, minlength=len(born))
    if (got != want).any():
        k = int(np.argmax(got != want))
        raise AssertionError(f"new basis vertex {born[k]} is a corner of {got[k]} cells, "
                             f"expected {want[k]}")
    # extent[row, axis, side]: the width (axis 0) or height (axis 1) of the
    # cells after (side 0) or before (side 1) the vertex along that axis
    extent = np.full((len(born), 2, 2), np.nan)
    sides = np.stack([corner & 1, corner >> 1], axis=1)
    extent[rows[:, None], [0, 1], sides] = sizes
    torn = (extent[rows[:, None], [0, 1], sides] != sizes).any(axis=1)
    if torn.any():
        raise AssertionError(f"cells around new basis vertex {born[rows[np.argmax(torn)]]} "
                             f"do not form a tensor block")
    return _univariate_factors(extent[..., 1], extent[..., 0]), (rows, cids, corner, sizes)


def _ordinates_toward(pair, w, low):
    """Cubic ordinates (e, 2, 4) on e cells of widths w of the two
    univariate functions whose (value, slope) at the anchor endpoint are
    pair[:, j] (e, 2, 2); the anchor is the cell's low end where `low`,
    and both functions have zero value and slope at the other end."""
    val, der = pair[..., 0], pair[..., 1]
    w, low = w[:, None], low[:, None]
    return np.stack([np.where(low, val, 0.0),
                     np.where(low, val + der * w / 3.0, 0.0),
                     np.where(low, 0.0, val - der * w / 3.0),
                     np.where(low, 0.0, val)], axis=-1)


def _vertex_functions(first, factors, incidence):
    """The four functions of n vertices whose ids start at `first`, as
    flat pieces (cell ids, function ids, patches), sorted by cell and then
    function, from batched outer products of univariate ordinates; the
    vertices' factors and incidence entries (any rows of the table of
    `_births`, in its order) give them.  Slot k = sv + 2 tv takes the sv-th
    s and the tv-th t function."""
    rows, cids, corner, sizes = incidence
    s_ord = _ordinates_toward(factors[rows, 0], sizes[:, 0], corner & 1 == 0)
    t_ord = _ordinates_toward(factors[rows, 1], sizes[:, 1], corner < 2)
    # (entry, tv, sv, 4, 4) -> (entry, slot, 4, 4)
    patches = (t_ord[:, :, None, :, None] * s_ord[:, None, :, None, :]).reshape(-1, 4, 4)
    fids = (first + 4 * rows[:, None] + np.arange(4)).reshape(-1)
    return np.repeat(cids, 4), fids, patches


def _entries(keys, cells, fids, patches):
    """Cell-table entries of the cells `keys`, cut by slicing from pieces
    (cell ids, function ids, patches) sorted by cell."""
    lo = np.searchsorted(cells, keys).tolist()
    hi = np.searchsorted(cells, keys, side="right").tolist()
    return {cid: (fids[a:b], patches[a:b]) for cid, a, b in zip(keys.tolist(), lo, hi)}


def build_initial_space(mesh):
    """Tensor-product C1 bicubic basis on a level-0 tensor mesh: the birth
    rule with every cell and every vertex born."""
    if mesh.generation_log:
        raise ValueError("initial space requires a pure tensor-product mesh")
    anchors = mesh.vertices()
    cells = np.array(mesh.active_cells(), dtype=np.intp)
    factors, incidence = _births(mesh, cells, anchors)
    space = SplineSpace(mesh, anchors, _entries(cells, *_vertex_functions(0, factors, incidence)),
                        factors)
    if space.dim != mesh.dimension():
        raise AssertionError("initial basis count disagrees with the dimension formula")
    return space


# ----------------------------------------------------------------------
# level advance

def advance_level(space, report):
    """Carry a spline space across one refinement round.

    Existing functions whose support meets a subdivided cell get that
    patch split and their ordinate blocks at the new basis vertices
    zeroed; the entries of unsplit cells are reused as-is.  The new basis
    vertices are born on the children of the subdivided cells, which hold
    all their support: one `_births` pass gives their factors, their four
    functions each and the corners to zero.  Subdivided cells are split
    per kind, `_SPLIT_CELLS` whole cells at a time, and each chunk's live
    pieces and the newborn functions on its children are merged into the
    children's entries in one pass.
    """
    if not report.performed:
        return space
    if report.mesh_before is not space.mesh:
        if not report.mesh_before.same_structure(space.mesh):
            raise ValueError("report was produced for a different mesh")
    if report.transition_count:
        raise ValueError("refinement promoted a T-vertex; space cannot be advanced")
    mesh = report.mesh_after
    split_info = report.performed
    born = report.new_basis_vertices
    children = [kid for _, kids in split_info.values() for kid in kids]
    factors, incidence = _births(mesh, children, born)
    corners = np.zeros(max(children) + 1, dtype=np.intp)   # bit cs + 2 ct per corner at a new vertex
    np.bitwise_or.at(corners, incidence[1], 1 << incidence[2])

    cells = {cid: entry for cid, entry in space.cells.items() if cid not in split_info}
    for kind in SPLIT_KINDS:
        parents = [cid for cid, (k, _) in split_info.items() if k == kind]
        for lo in range(0, len(parents), _SPLIT_CELLS):
            chunk = parents[lo:lo + _SPLIT_CELLS]
            kids = np.array([split_info[cid][1] for cid in chunk], dtype=np.intp)
            entries = [space.cells[cid] for cid in chunk]
            owner = np.repeat(np.arange(len(chunk)), [len(fids) for fids, _ in entries])
            split = bezier.zero_corner_blocks(
                bezier.split_patches(np.concatenate([p for _, p in entries]), kind),
                corners[kids[owner]])
            at, k = np.nonzero(split.any(axis=(2, 3)))
            # the newborn functions on the chunk's children: their rows of
            # the incidence table, which is sorted by cell
            flat = kids.ravel()
            rows = _ranges(np.searchsorted(incidence[1], flat),
                           np.searchsorted(incidence[1], flat, side="right"))
            new_cells, new_fids, new_patches = _vertex_functions(
                space.dim, factors, tuple(a[rows] for a in incidence))
            # old ids ascend in parent order and new ids follow them, so a
            # stable sort by cell leaves each cell's ids ascending
            piece_cells = np.concatenate([kids[owner[at], k], new_cells])
            fids = np.concatenate([np.concatenate([f for f, _ in entries])[at], new_fids])
            patches = np.concatenate([split[at, k], new_patches])
            order = np.argsort(piece_cells, kind="stable")
            cells.update(_entries(flat, piece_cells[order], fids[order], patches[order]))

    out = SplineSpace(mesh, space.vertices + born, cells,
                      np.concatenate([space.factors, factors]))
    # the full Eq.-(1) recount classifies every vertex on the lattice, at
    # every level of every mesh
    dim = mesh.dimension()
    if out.dim != dim:
        raise AssertionError(f"basis count {out.dim} disagrees with dimension formula {dim}")
    return out


# ----------------------------------------------------------------------
# evaluation kernel (see the module docstring)

def _blocks(n):
    """Slices cutting n cells into consecutive blocks of `_BLOCK`."""
    return (slice(lo, lo + _BLOCK) for lo in range(0, n, _BLOCK))


def cell_order(cells):
    """The stable order of points by their cells (n,): (the permutation
    putting them in cell order, the ascending cells that hold points, the
    points per cell), the runs `SplineField.eval_runs` evaluates."""
    cells = np.asarray(cells)
    # numpy's stable sort is a radix sort on 16-bit keys, about ten times
    # faster than its timsort on 10,000 int64 keys
    keys = cells.astype(np.uint16) if len(cells) and cells.max() < 1 << 16 else cells
    order = np.argsort(keys, kind="stable")
    ranked = cells[order]
    first = np.flatnonzero(np.diff(ranked, prepend=-1))       # cell ids are >= 0
    return order, ranked[first], np.diff(first, append=len(ranked))


def _bernstein_tables(u, v, derivs=DERIV_ORDERS):
    """Tensor-product Bernstein tables at local points u, v (c, n): per
    derivative order (a, b), a (c, 16, n) array whose row 4i + j holds
    B_j^(a)(u) B_i^(b)(v), the weight of patch ordinate b[i, j].  One row
    of points (c = 1) is shared by all cells."""
    bu = {a: bezier.bernstein_row(u, a) for a in {a for a, _ in derivs}}   # each (4, c, n)
    bv = {b: bezier.bernstein_row(v, b) for b in {b for _, b in derivs}}
    return {(a, b): np.einsum("icn,jcn->cijn", bv[b], bu[a]).reshape(len(u), 16, -1)
            for a, b in derivs}


def _eval_patches(P, tables, order, width, height):
    """d^(a+b)/ds^a dt^b, in global parameter units, of patches P
    (c, ..., 4, 4) on cells of the given widths and heights (c,), at the
    points of `tables` -> (c, ..., n)."""
    a, b = order
    out = (P.reshape(len(P), -1, 16) @ tables[order]).reshape(P.shape[:-2] + (-1,))
    scale = width ** a * height ** b
    return out / scale.reshape((-1,) + (1,) * (out.ndim - 1))


def _padded_patches(space, cids):
    """Function ids (c, F), their patches (c, F, 4, 4) and the mask of real
    entries; padding has id 0 and a zero patch."""
    entries = [space.cells.get(cid, _NO_FUNCTIONS) for cid in cids]
    counts = np.array([len(f) for f, _ in entries])
    valid = np.arange(counts.max(initial=0)) < counts[:, None]
    fids = np.zeros(valid.shape, dtype=np.intp)
    patches = np.zeros(valid.shape + (4, 4))
    if valid.any():
        fids[valid] = np.concatenate([f for f, _ in entries])
        patches[valid] = np.concatenate([p for _, p in entries])
    return fids, patches, valid


class _Cells:
    """One block of the kernel: cells, their float bounds (rows of the
    mesh's `cell_bounds`) and the padded basis patches of `space` on them
    (see `_padded_patches`)."""

    def __init__(self, space, cids):
        self.cells = np.asarray(cids, dtype=np.intp)
        s0, s1, t0, t1 = space.mesh.cell_bounds()[self.cells].T
        self.s0, self.t0 = s0, t0
        self.width, self.height = s1 - s0, t1 - t0
        self.fids, self.patches, self.valid = _padded_patches(space, cids)

    def contract(self, coefficients):
        """Per-cell patches (c, ..., 4, 4) of a field with scalar (n,) or
        point (n, m) coefficients over the block's space."""
        return np.einsum("cfij,cf...->c...ij", self.patches, coefficients[self.fids])

    def local(self, s, t, rows):
        """Local coordinates of parameters s, t in the cells `rows`."""
        return (s - self.s0[rows]) / self.width[rows], (t - self.t0[rows]) / self.height[rows]


def _kron2(T, S):
    """kron(T, S) of stacked 2x2 matrices (..., 2, 2) -> (..., 4, 4)."""
    return (T[..., :, None, :, None] * S[..., None, :, None, :]).reshape(T.shape[:-2] + (4, 4))


def _inverse_2x2(M):
    """Determinants (...) and inverses (..., 2, 2) of stacked 2x2 matrices
    M (..., 2, 2), by the adjugate.  A singular matrix gives a non-finite
    inverse; each caller rules on the determinants itself."""
    det = M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    adj = np.stack([M[..., 1, 1], -M[..., 0, 1], -M[..., 1, 0], M[..., 0, 0]], axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return det, (adj / det[..., None]).reshape(M.shape)


def _inverse_blocks(factors, vids):
    """Inverse collocation blocks kron(T^-1, S^-1) (n, 4, 4) from factor
    rows (n, 2, 2, 2) of the vertices `vids`; raises a RuntimeError naming
    the first vertex whose block is singular."""
    det, inv = _inverse_2x2(factors)
    singular = ~(np.isfinite(det) & (det != 0)).all(axis=1)
    if singular.any():
        raise RuntimeError(f"singular collocation block at vertex {vids[int(np.argmax(singular))]}")
    return _kron2(inv[:, 1], inv[:, 0])


def _factors_from_patches(space):
    """The collocation table of a space, read from its patches' corner
    data: each vertex's block split into its Kronecker factors S and T."""
    vids = space.vertices
    B = np.array([[space.basis_data_at_vertex(4 * k + slot, vid) for slot in range(4)]
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


def collocation_block(space, vid):
    """Collocation data of the four functions anchored at a basis vertex,
    from the space's collocation table."""
    row = space.vertex_row.get(vid)
    if row is None:
        if not space.mesh.is_basis_vertex(vid):
            raise ValueError(f"vertex {vid} is not a basis vertex")
        raise ValueError(f"vertex {vid} carries no functions in this space")
    return CollocationBlock(vid, space.factors[row])


def _solve_vertices(space, vids, data):
    """Coefficients (n, 4, ...) of the four functions of each basis vertex
    of `vids` that reproduce Hermite data (n, ..., 4) there."""
    inv = _inverse_blocks(space.factors[[space.vertex_row[vid] for vid in vids]], vids)
    return np.moveaxis(np.einsum("n...i,nij->n...j", data, inv), -1, 1)


def field_from_vertex_data(space, data):
    """Coefficients of the field matching (f, f_s, f_t, f_st) per vertex.

    `data` maps basis vertex id -> array (..., 4).  Every basis vertex of
    the mesh must be present.  Returns a SplineField.
    """
    values = np.array([data[vid] for vid in space.vertices], dtype=float)
    coeffs = _solve_vertices(space, space.vertices, values)
    return SplineField(space, coeffs.reshape((space.dim,) + values.shape[1:-1]))


class SplineField:
    """A spline space with one scalar or point coefficient per function."""

    def __init__(self, space, coefficients):
        self.space = space
        self.coefficients = np.asarray(coefficients, dtype=float)
        if self.coefficients.shape[0] != space.dim:
            raise ValueError("one coefficient per basis function required")

    @property
    def arity(self):
        return None if self.coefficients.ndim == 1 else self.coefficients.shape[1]

    def eval_many(self, s, t, derivs=DERIV_ORDERS[:1]):
        """Evaluate the field (and optional derivatives) at parameter arrays
        s and t of one shape (a scalar counts as one point).

        Returns an array of shape (nderivs,) + s.shape, with a last axis of
        length arity for a point field.
        """
        s = np.atleast_1d(np.asarray(s, dtype=float))
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = self.eval_located(self.space.mesh.locate_many(s, t), s, t, derivs)
        return out.reshape((len(derivs),) + s.shape + self.coefficients.shape[1:])

    def eval_on_cell(self, cid, s, t, derivs=DERIV_ORDERS[:1]):
        """Evaluate using one specific cell's polynomial (s, t on its closure)."""
        c = self.space.mesh.cell(cid)
        s0, _, t0, _ = c.bounds_float()
        width, height = c.size_float()
        u = (np.asarray(s, dtype=float) - s0) / width
        v = (np.asarray(t, dtype=float) - t0) / height
        return self.eval_grid([cid], u, v, derivs)[:, 0]

    def eval_grid(self, cids, u, v, derivs=DERIV_ORDERS[:1]):
        """Evaluate at the same local points u, v in [0,1] of every cell.

        Returns an array of shape (nderivs, ncells, n) or (nderivs,
        ncells, n, arity), derivatives in global parameter units.
        """
        tables = _bernstein_tables(np.atleast_1d(np.asarray(u, dtype=float))[None],
                                   np.atleast_1d(np.asarray(v, dtype=float))[None], derivs)
        out = np.empty((len(derivs), len(cids), tables[derivs[0]].shape[-1])
                       + self.coefficients.shape[1:])
        for sl in _blocks(len(cids)):
            blk = _Cells(self.space, cids[sl])
            P = blk.contract(self.coefficients)
            for k, d in enumerate(derivs):
                out[k, sl] = np.moveaxis(_eval_patches(P, tables, d, blk.width, blk.height),
                                         -1, 1)
        return out

    def eval_located(self, cells, s, t, derivs=DERIV_ORDERS[:1]):
        """Evaluate at parameter points whose cells are known: point k
        with cell cells[k] (on that cell's closure), in any order.  One
        stable sort puts the points in cell order for :meth:`eval_runs`,
        and the values are put back in the given order.  Returns (nderivs,
        n) or (nderivs, n, arity); a ValueError names the sizes of cells,
        s and t when they differ."""
        cells = np.asarray(cells, dtype=np.intp).ravel()
        s = np.asarray(s, dtype=float).ravel()
        t = np.asarray(t, dtype=float).ravel()
        if not len(cells) == len(s) == len(t):
            raise ValueError(f"cells, s and t differ in size: {len(cells)}, {len(s)} and {len(t)}")
        order, runs, counts = cell_order(cells)
        out = np.empty((len(derivs), len(s)) + self.coefficients.shape[1:])
        out[:, order] = self.eval_runs(order, runs, counts, s, t, derivs)
        return out

    def eval_runs(self, order, cells, counts, s, t, derivs=DERIV_ORDERS[:1]):
        """Evaluate at the points s[order], t[order], which come in
        contiguous runs per ascending cell: the first counts[0] lie on the
        closure of cells[0], the next counts[1] on that of cells[1], and so
        on (see `cell_order`).  Shapes as in :meth:`eval_located`, values
        in the order of `order`.

        Cells are contracted `_BLOCK` at a time and their points evaluated
        `_CHUNK` at a time: per point, the Bernstein weights bv (x) bu of
        each derivative order, applied to its cell's patch by one batched
        matmul, then divided by the cell's width^a height^b for a
        derivative."""
        tail = self.coefficients.shape[1:]
        out = np.empty((len(derivs), len(order)) + tail)
        edge = np.concatenate([[0], np.cumsum(counts)])
        s_orders, t_orders = {a for a, _ in derivs}, {b for _, b in derivs}
        for sl in _blocks(len(cells)):
            blk = _Cells(self.space, cells[sl].tolist())
            P = blk.contract(self.coefficients).reshape(len(blk.cells), -1, 16)
            scale = [blk.width ** a * blk.height ** b for a, b in derivs]
            span = edge[sl.start:sl.start + len(blk.cells) + 1]
            for at in range(span[0], span[-1], _CHUNK):
                part = slice(at, min(at + _CHUNK, span[-1]))
                rows = np.repeat(np.arange(len(blk.cells)), np.diff(span.clip(at, part.stop)))
                idx = order[part]
                u, v = blk.local(s[idx], t[idx], rows)
                Pr = P.take(rows, axis=0)                         # (n, m, 16)
                bu = {a: bezier.bernstein_row(u, a).T[:, None, :] for a in s_orders}
                bv = {b: bezier.bernstein_row(v, b).T[:, :, None] for b in t_orders}
                for k, (a, b) in enumerate(derivs):
                    got = out[k, part]
                    np.matmul(Pr, (bv[b] * bu[a]).reshape(-1, 16, 1),
                              out=got.reshape(Pr.shape[:2] + (1,)))
                    if a or b:
                        got /= scale[k][rows].reshape((-1,) + (1,) * len(tail))
        return out

    def value(self, s, t):
        out = self.eval_many([s], [t])[0, 0]
        return float(out) if self.arity is None else out

    def to_json_dict(self):
        return {"coefficients": self.coefficients.tolist(),
                "space": self.space.to_json_dict()}

    @classmethod
    def from_json_dict(cls, d):
        return cls(SplineSpace.from_json_dict(d["space"]), np.array(d["coefficients"]))


def transfer_field(field, new_space):
    """Represent an existing field exactly in a once-advanced space.

    Old functions keep their coefficients; each new basis vertex (those
    after the old ones in `new_space.vertices`) gets the coefficients that
    reproduce the old field's local Hermite data, which the modification
    operator handed over verbatim.
    """
    n_old = field.space.dim
    if new_space.dim < n_old:
        raise ValueError("target space is smaller than the source space")
    coeffs = np.zeros((new_space.dim,) + field.coefficients.shape[1:])
    coeffs[:n_old] = field.coefficients
    fresh = new_space.vertices[len(field.space.vertices):]
    if fresh:
        s, t = new_space.mesh.vertex_floats()[fresh].T
        got = field.eval_many(s, t, HERMITE_ORDERS)
        coeffs[n_old:] = _solve_vertices(new_space, fresh, np.moveaxis(got, 0, -1)) \
            .reshape(coeffs[n_old:].shape)
    return SplineField(new_space, coeffs)
