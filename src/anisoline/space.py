"""C1 bicubic spline spaces over modified hierarchical T-meshes.

Every basis vertex (boundary or interior crossing) carries four basis
functions, stored purely in per-cell Bezier form.  Knot vectors appear only
transiently, when the level-0 tensor basis and the four functions of a
newly created basis vertex are built; after that one representation, the
three tables of `SplineSpace` (basis vertices, the piece table, the
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

The space keeps its patches in a piece table, carried across levels as in
multi-level Bezier extraction (D'Angella, Kollmannsberger, Rank and
Reali, 2018), as entries of corner blocks: a piece (a function's patch on
a cell) is stored as its nonzero 2x2 ordinate blocks, each with the
corner cs + 2 ct it sits at.  The block nearest a corner is the
function's Hermite data there (its value, first derivatives and twist
read only that block), and each function's data is zero at every basis
vertex but its own, so on a cell whose corners are all basis vertices
each piece has one nonzero block: on the last `bernstein_sum` fit space, 61,088 of 62,128 pieces,
whose entries take 2.6 MB where full patches took 8.5 MB.  Buffers of
entries, sorted by cell, corner and function, come one from the level-0
build and one per chunk of each advance, and an index gives each active
cell its buffer and run (`SplineSpace`); `SplineSpace.extraction` expands
runs to patches again.  Unsplit cells keep their runs, so spaces share
buffers, and a buffer lives while any of its cells is unsplit.
Subdivided cells are rewritten per kind, `_SPLIT_CELLS` (24) whole cells
at a time, in one pass per chunk.  Memory bounds the chunk: on the last
round of a deep fit the advance's heap peak is 1.18 times what it keeps
at 16 cells, 1.20 at 24 and 1.33 at 32, past the bound 1.3 of its test
in `tests/test_space.py`; fewer chunks make fewer buffers for the
contraction and the gathers to walk.  The first two rows of a half-interval de
Casteljau map read only the first two ordinates, and the last two only
the last two, so an entry at a parent corner goes to the child at that
corner as the split of its block alone (`bezier.split_corner_blocks`).
A child corner at a new point gets no old entry where the point is a new
basis vertex (the zeroing above), and where it is a T-junction the block
there of the split of the parent's whole patch (`bezier.split_patches`,
one matmul with the kind's Kronecker matrix), when nonzero.  The new
vertices' functions are one block per support cell, batched outer
products of univariate ordinates at the children's corners that are new
basis vertices.  One stable sort by cell and corner merges the chunk's
entries into its buffer.

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
representation.  A field contracts its coefficients into one patch per
active cell on first use and keeps them (`SplineField.patches`): the
active cells of a buffer at once, from views of its arrays when none of
its cells has split, each corner's blocks summed in function order.
Where every corner of the buffer's cells holds one number of entries
that is one einsum per component, and otherwise one `np.bincount` that
adds every term at its ordinate in entry order: both add the same terms
in the same order as an einsum over whole patches, whose other terms are
zeros.  The assembly and the Dirichlet fit read the blocks instead as
each cell's extraction matrix (`SplineSpace.extraction`): one row per
function on the cell, in whole vertex groups padded to the widest cell
of a block of `_BLOCK` cells, one column per ordinate.
Patches are evaluated by a matmul with Bernstein tables: at local points
shared by all cells (`SplineField.eval_grid`, the solver's Gauss points;
`_bernstein_tables`, `_eval_patches`), or at scattered points with known
cells, read in their stable cell order (`cell_order`) as contiguous runs
per ascending cell (`SplineField.eval_runs`), `_CHUNK` points at a time:
each point's 16 tensor-product weights bv (x) bu are applied to its
cell's contracted patch by one batched matmul.  `SplineField.eval_located`
sorts its points once, evaluates the runs and scatters the values back.
Blocks and chunks bound the memory.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import bezier
from .tmesh import SPLIT_KINDS, _ranges, _run_starts

__all__ = [
    "SplineSpace", "SplineField", "CollocationBlock",
    "build_initial_space", "advance_level", "collocation_block",
    "field_from_vertex_data", "transfer_field", "cell_order",
]

# derivative orders in reporting order: value, s, t, ss, st, tt
DERIV_ORDERS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
# the collocation data at a vertex: f, f_s, f_t, f_st
HERMITE_ORDERS = ((0, 0), (1, 0), (0, 1), (1, 1))

# cells per block and scattered points per chunk of the evaluation kernel.
# Fewer blocks make fewer numpy calls per walk, and the assembly's one GEMM
# for the Bernstein stiffness (`solver._bernstein_stiffness`) forms no
# per-point gradients, which leaves room for 128 under the memory gates of
# `tests/test_solver.py` (square_sin 24 x 24, q = 5): `assemble` peaks at
# 3.16 MiB of its 4.3 (4.18 MiB with the gradients), `error_indicators` at
# 1.56 and `exact_error_norms` at 1.22 of their 2.0, and one solve round at
# 4.80 of its 5.5.  Blocks of 64 / 96 / 128 cells ran `solve_lshape` in
# 99.8 / 94.9 / 93.8 ms and `solve_square_uniform` in 31.7 / 29.0 /
# 28.9 ms (in-process medians of 41 alternating runs, one BLAS thread,
# 2-vCPU host).
_BLOCK = 128
_CHUNK = 1024
# subdivided cells split per chunk by the level advance
_SPLIT_CELLS = 24


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
    * the piece table: `buffers` holds entries (function ids (n,), corner
      codes (n,), 2x2 blocks (n, 2, 2)) sorted by cell, then corner, then
      function, and `index` (3, cells made so far) gives each active
      cell's buffer and first and end entry.  An entry is a function's
      nonzero ordinate block at one corner cs + 2 ct of a cell (cs = 1 at
      the cell's high s end, ct = 1 at its high t end): the 2x2 block
      nearest a corner is the function's Hermite data there, and a
      function's data is zero at every basis vertex but its own, so
      almost every piece has one nonzero block.  Spaces share buffers, so
      nothing writes into them; `_gather` reads them;
    * `factors` is the collocation table (len(vertices), 2, 2, 2): row k
      holds the factors S and T of vertex k's collocation block kron(T, S)
      (see `CollocationBlock`).
    """

    def __init__(self, mesh, vertices, buffers, index, factors):
        self.mesh = mesh
        self.vertices = vertices
        self.buffers = buffers
        self.index = index
        if np.shape(factors) != (len(vertices), 2, 2, 2):
            raise ValueError(f"collocation table of shape {np.shape(factors)} for "
                             f"{len(vertices)} basis vertices")
        self.factors = factors

    @property
    def dim(self):
        return 4 * len(self.vertices)

    @cached_property
    def vertex_row(self):
        return {vid: k for k, vid in enumerate(self.vertices)}

    def _gather(self, cids, fields):
        """The entries of the active cells `cids`, in their order: (entries
        per cell (c,), [the buffer arrays `fields` (0 ids, 1 codes, 2
        blocks) at those entries]), gathered, so nothing is shared."""
        buf, lo, hi = self.index[:, np.asarray(cids, dtype=np.intp).reshape(-1)]
        counts = hi - lo
        rows = _ranges(lo, hi)
        out = [np.empty((len(rows),) + self.buffers[0][f].shape[1:], self.buffers[0][f].dtype)
               for f in fields]
        # one take per field from each run of cells that read one buffer;
        # mode "clip" lets `take` write into `out` without a buffer
        edges = ((buf[1:] != buf[:-1]).nonzero()[0] + 1).tolist()
        runs = [0, *edges, len(buf)] if len(buf) else []
        start = np.append(counts.cumsum() - counts, len(rows)).tolist()
        for first, end in zip(runs, runs[1:]):
            arrays, at = self.buffers[buf[first]], slice(start[first], start[end])
            for got, f in zip(out, fields):
                arrays[f].take(rows[at], axis=0, out=got[at], mode="clip")
        return counts, out

    def functions_on_cells(self, cids):
        """The set of ids of the functions living on any of the cells."""
        return set(self._gather(list(cids), (0,))[1][0].tolist())

    def extraction(self, cids):
        """The Bezier extraction of the active cells `cids`, in their order:
        (their vertex groups `rows` (c, G) of `_groups`, and C (c, G, 4,
        16), whose row [g, slot] holds the ordinates of function 4 rows[g]
        + slot on the cell in the row order of `_bernstein_tables`, zero on
        padding)."""
        cids = np.asarray(cids, dtype=np.intp).reshape(-1)
        counts, entries = self._gather(cids, (0, 1, 2))
        return _extraction(cids, counts, *entries)

    def basis_on_cell(self, cid, u, v, derivs=DERIV_ORDERS[:1]):
        """Evaluate all functions living on a cell at local points.

        u, v are arrays of local coordinates in [0,1]; returns
        (function ids, array of shape (nderivs, nf, npts)) with
        derivatives already in global parameter units.
        """
        (rows,), C = self.extraction([cid])       # one cell: no padding
        blk = _Cells(self.mesh, [cid])
        tables = _bernstein_tables(np.atleast_1d(np.asarray(u, dtype=float))[None],
                                   np.atleast_1d(np.asarray(v, dtype=float))[None], derivs)
        out = np.stack([_eval_patches(C.reshape(1, -1, 4, 4), tables, d, blk.width, blk.height)[0]
                        for d in derivs])
        return (4 * rows[:, None] + np.arange(4)).ravel().tolist(), out


def _piece_index(counts, fids):
    """The pieces of the entries of c cells (entries per cell (c,),
    function ids): (pieces per cell, their function ids, each cell's
    ascending, and each entry's piece)."""
    keys = (np.arange(len(counts)).repeat(counts) << 32) + fids
    if (keys[1:] > keys[:-1]).all():        # one entry per piece, in order
        return counts, fids, np.arange(len(keys))
    order = keys.argsort(kind="stable")
    keys = keys[order]
    first = _run_starts(keys)
    piece = np.empty_like(order)
    piece[order] = first.cumsum() - 1
    keys = keys[first]
    return np.bincount(keys >> 32, minlength=len(counts)), keys & 0xFFFFFFFF, piece


def _whole_groups(ids):
    """Whether ascending function ids come in whole vertex groups 4k ..
    4k + 3."""
    return len(ids) % 4 == 0 and \
        bool((ids.reshape(-1, 4) == (ids[::4] & ~3)[:, None] + np.arange(4)).all())


def _groups(cids, per, ids):
    """The basis-vertex rows k (c, G) of the function groups 4k .. 4k + 3
    on the cells `cids`, from their per (c,) functions `ids`, each cell's
    ascending: a cell's rows ascending, padded with -1 to the widest cell;
    and each group's place in the flattened rows.  The four functions of a
    vertex share their nonzero corner blocks, so a cell carries whole
    groups; an AssertionError names the first cell that does not."""
    if (per % 4).any() or not _whole_groups(ids):
        torn = next(cid for cid, got in zip(cids.tolist(), np.split(ids, np.cumsum(per)[:-1]))
                    if not _whole_groups(got))
        raise AssertionError(f"the functions on cell {torn} do not come in whole vertex groups")
    # the cells' group j is group j - first[cell] of its own cell
    groups = per // 4
    G = groups.max(initial=0)
    first = np.cumsum(groups) - groups
    place = np.arange(len(ids) // 4) + np.repeat(G * np.arange(len(cids)) - first, groups)
    rows = np.full((len(cids), G), -1, dtype=np.intp)
    rows.reshape(-1)[place] = ids[::4] // 4
    return rows, place


def _extraction(cids, counts, fids, codes, blocks):
    """`SplineSpace.extraction` of the cells `cids` from their gathered
    entries (entries per cell (c,), function ids, corner codes, blocks):
    the one place that expands corner blocks to patches."""
    per, ids, piece = _piece_index(counts, fids)
    rows, place = _groups(cids, per, ids)
    C = np.zeros(rows.shape + (4, 16))
    row = 4 * place[piece // 4] + fids % 4
    C.reshape(-1)[16 * row[:, None] + bezier.CORNER_ORDINATES[codes]] = blocks.reshape(-1, 4)
    return rows, C


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


def _corner_incidence(mesh, cells, born):
    """The corners of the cells `cells` (any shape) at the vertices `born`
    (ascending ids): their mask (cells.shape + (4,)) and, in its order,
    their rows of `born`, cell ids, corners cs + 2 ct and cells' (width,
    height), rows of the mesh's `cell_table`."""
    table = mesh.cell_table()
    vids = table.corners[cells]
    rows = np.searchsorted(born, vids)
    hit = np.append(born, -1)[rows] == vids         # row len(born) matches no vertex
    *at, corner = np.nonzero(hit)
    cids = cells[tuple(at)]
    return hit, (rows[hit], cids, corner, table.sizes[cids])


def _births(mesh, cells, born):
    """Collocation factors and support cells of the basis vertices `born`
    (ascending ids), from one pass over the corners of `cells`, which must
    hold every cell the vertices touch (`_corner_incidence`).

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
    _, incidence = _corner_incidence(mesh, np.asarray(cells, dtype=np.intp), born)
    order = np.lexsort(incidence[:2])
    rows, cids, corner, sizes = (a[order] for a in incidence)

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


def _anchor_ordinates(pair, w, high):
    """The two cubic ordinates (e, 2, 2) nearest the anchor endpoint, in
    order along the cell, of the two univariate functions on e cells of
    widths w whose (value, slope) there are pair[:, j] (e, 2, 2); the
    anchor is the cell's high end where `high`.  Both functions have zero
    value and slope at the other end, so their other two ordinates are 0."""
    val, der = pair[..., 0], pair[..., 1]
    w, high = w[:, None], high[:, None]
    return np.stack([np.where(high, val - der * w / 3.0, val),
                     np.where(high, val, val + der * w / 3.0)], axis=-1)


def _vertex_functions(first, factors, incidence):
    """The four functions of n vertices whose ids start at `first`, as
    entries (cell ids, function ids, corner codes, blocks), one block per
    function at its vertex's corner of each support cell, from batched
    outer products of univariate ordinates; the vertices' factors and
    incidence entries (any rows of the table of `_births`, in its order)
    give them.  Slot k = sv + 2 tv takes the sv-th s and the tv-th t
    function."""
    rows, cids, corner, sizes = incidence
    s_ord = _anchor_ordinates(factors[rows, 0], sizes[:, 0], corner & 1 == 1)
    t_ord = _anchor_ordinates(factors[rows, 1], sizes[:, 1], corner >= 2)
    # (entry, tv, sv, 2, 2) -> (entry, slot, 2, 2)
    blocks = (t_ord[:, :, None, :, None] * s_ord[:, None, :, None, :]).reshape(-1, 2, 2)
    fids = (first + 4 * rows[:, None] + np.arange(4)).reshape(-1)
    return np.repeat(cids, 4), fids, np.repeat(corner, 4).astype(np.int8), blocks


def _place(index, b, keys, cells):
    """Point the cells `keys` at their runs in buffer b, whose entries have
    the sorted cell ids `cells`."""
    index[0, keys] = b
    index[1, keys] = np.searchsorted(cells, keys)
    index[2, keys] = np.searchsorted(cells, keys, side="right")


def _sorted_buffer(parts):
    """One buffer of the entries `parts` [(cell ids, function ids, codes,
    blocks)], and its entries' cell ids: a stable sort by cell and corner
    keeps the ids ascending at each corner, as each part lists them so and
    no two parts hold entries at one corner of one cell.  The fields are
    joined and sorted one at a time, to bound the memory."""
    cells = np.concatenate([part[0] for part in parts])
    order = np.argsort(4 * cells + np.concatenate([part[2] for part in parts]), kind="stable")
    return tuple(np.concatenate([part[f] for part in parts])[order] for f in (1, 2, 3)), \
        cells[order]


def _split_entries(space, chunk, kids, kind, flagged):
    """The entries of the old functions on the children `kids` (c, k) of
    the cells `chunk`, split as `kind`; `flagged` (c, k, 4) marks the
    children's corners at new basis vertices, where the old functions get
    no entry.

    An entry at a parent corner goes to the child at that corner, its
    block split alone (`bezier.split_corner_blocks`); a parent corner is an
    old vertex, never a new basis vertex.  A child corner at a new point
    that is no new basis vertex, a T-junction, gets its block from the
    split of its parent's whole patch, where that block is nonzero."""
    counts, (fids, codes, blocks) = space._gather(chunk, (0, 1, 2))
    owner = np.repeat(np.arange(len(chunk)), counts)
    parts = [(kids[owner, bezier.CORNER_CHILD[kind][codes]], fids, codes,
              bezier.split_corner_blocks(blocks, codes, kind))]
    # (child, corner) pairs at new points, and the chunk's T-junctions there
    k, c = np.nonzero(bezier.CORNER_CHILD[kind] != np.arange(kids.shape[1])[:, None])
    p, q = np.nonzero(~flagged[:, k, c])
    if len(p):
        parents = np.flatnonzero(np.bincount(p))
        start = np.cumsum(counts) - counts
        mine = _ranges(start[parents], start[parents] + counts[parents])
        groups, C = _extraction(np.asarray(chunk)[parents], counts[parents], fids[mine],
                                codes[mine], blocks[mine])
        real = groups >= 0
        per = 4 * real.sum(axis=1)
        pf = (4 * groups[real][:, None] + np.arange(4)).ravel()
        split = bezier.split_patches(C[real].reshape(-1, 4, 4), kind) \
            .reshape(len(pf), -1, 2, 2, 2, 2)
        at, end = np.searchsorted(parents, p), np.cumsum(per)
        rows = _ranges((end - per)[at], end[at])
        tj = np.repeat(np.arange(len(p)), per[at])
        kk, cc = k[q[tj]], c[q[tj]].astype(np.int8)
        got = split[rows, kk, cc >> 1, :, cc & 1, :]
        live = got.any(axis=(1, 2))
        parts.append((kids[p[tj], kk][live], pf[rows][live], cc[live], got[live]))
    return parts


def build_initial_space(mesh):
    """Tensor-product C1 bicubic basis on a level-0 tensor mesh: the birth
    rule with every cell and every vertex born."""
    if len(mesh.active_cells()) < len(mesh.cell_bounds()):
        raise ValueError("initial space requires a pure tensor-product mesh")
    anchors = mesh.vertices()
    cells = np.array(mesh.active_cells(), dtype=np.intp)
    factors, incidence = _births(mesh, cells, anchors)
    buffer, entry_cells = _sorted_buffer([_vertex_functions(0, factors, incidence)])
    index = np.zeros((3, len(cells)), dtype=np.intp)
    _place(index, 0, cells, entry_cells)
    space = SplineSpace(mesh, anchors, [buffer], index, factors)
    if space.dim != mesh.dimension():
        raise AssertionError("initial basis count disagrees with the dimension formula")
    return space


# ----------------------------------------------------------------------
# level advance

def advance_level(space, report):
    """Carry a spline space across one refinement round.

    Existing functions whose support meets a subdivided cell get their
    entries there split onto the children and lose their blocks at the
    new basis vertices, which the modification operator zeroes; unsplit
    cells keep their runs in the buffers they point into.  A 2x2 corner
    block is the Hermite data at that corner, and a split maps a parent
    corner's block to the block of the child at that corner alone, so
    only the T-junctions among the children's new corners read a parent's
    whole patch (`_split_entries`).  The new basis vertices are born on
    the children of the subdivided cells, which hold all their support:
    one `_births` pass gives their factors, their four functions each, as
    one block per support cell, and the corners they take.  Subdivided
    cells are split per kind, `_SPLIT_CELLS` whole cells at a time, and
    each chunk's entries are merged into one new buffer.
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
    # the full Eq.-(1) recount classifies every vertex on the lattice, at
    # every level of every mesh
    count, dim = 4 * (len(space.vertices) + len(born)), mesh.dimension()
    if count != dim:
        raise AssertionError(f"basis count {count} disagrees with dimension formula {dim}")
    children = np.array([kid for _, kids in split_info.values() for kid in kids], dtype=np.intp)
    factors = np.concatenate([space.factors, _births(mesh, children, born)[0]])
    born_ids, born_factors = np.asarray(born, dtype=np.intp), factors[len(space.vertices):]

    active = np.array(mesh.active_cells(), dtype=np.intp)
    index = np.zeros((3, len(mesh.cell_bounds())), dtype=np.intp)
    unsplit = active[active < space.index.shape[1]]        # children have new ids
    index[:, unsplit] = space.index[:, unsplit]
    buffers = list(space.buffers)
    for kind in SPLIT_KINDS:
        parents = [cid for cid, (k, _) in split_info.items() if k == kind]
        for lo in range(0, len(parents), _SPLIT_CELLS):
            chunk = parents[lo:lo + _SPLIT_CELLS]
            kids = np.array([split_info[cid][1] for cid in chunk], dtype=np.intp)
            # the children's corners at new basis vertices, where those
            # vertices' functions are born
            flagged, incidence = _corner_incidence(mesh, kids, born_ids)
            new = _vertex_functions(space.dim, born_factors, incidence)
            old = _split_entries(space, chunk, kids, kind, flagged)
            buffer, cells = _sorted_buffer(old + [new])
            buffers.append(buffer)
            _place(index, len(buffers) - 1, kids.ravel(), cells)
    # drop the buffers no active cell points into any more
    read = np.bincount(index[0, active], minlength=len(buffers)) > 0
    index[0, active] = (np.cumsum(read) - 1)[index[0, active]]
    return SplineSpace(mesh, space.vertices + born, [buffers[b] for b in np.flatnonzero(read)],
                       index, factors)


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


def _contract_active(space, coefficients):
    """`SplineField.patches`, buffer by buffer (see the module docstring)."""
    active = np.array(space.mesh.active_cells(), dtype=np.intp)
    tail = coefficients.shape[1:]
    components = coefficients.reshape(len(coefficients), -1).T
    m = len(components)
    ordinates = (16 * np.arange(m)[:, None] + bezier.CORNER_ORDINATES[:, None, :]).reshape(4, -1)
    out = np.zeros((space.index.shape[1],) + tail + (4, 4))
    buf, lo, hi = space.index[:, active]
    order = np.lexsort((lo, buf))
    for rows in np.split(order, np.flatnonzero(np.diff(buf[order])) + 1):
        fids, codes, blocks = space.buffers[buf[rows[0]]]
        counts, c = hi[rows] - lo[rows], len(rows)
        if counts.sum() < len(fids):            # some of the buffer's cells split
            runs = _ranges(lo[rows], hi[rows])
            fids, codes, blocks = fids[runs], codes[runs], blocks.take(runs, axis=0)
        width = len(codes) // (4 * c)
        if (counts == 4 * width).all() and \
                (codes.reshape(c, 4, width) == np.arange(4)[:, None]).all():
            # every corner holds `width` entries: one einsum per component,
            # several times faster than one with the component axis
            fids, blocks = fids.reshape(c, 4, width), blocks.reshape(c, 4, width, 2, 2)
            got = np.empty((c, m, 2, 2, 2, 2))           # (cell, component, ct, i, cs, j)
            for k, component in enumerate(components):
                got[:, k] = np.einsum("cafij,caf->caij", blocks, component[fids]) \
                    .reshape(c, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4)
        else:
            # one bincount adds each ordinate's terms in entry order;
            # ordinates[code] are a block's places in a cell's m patches
            at = np.arange(0, 16 * m * c, 16 * m).repeat(counts)[:, None] + ordinates[codes]
            terms = np.einsum("ek,ej->ekj", components.T[fids], blocks.reshape(-1, 4))
            got = np.bincount(at.ravel(), terms.ravel(), minlength=16 * m * c)
        out[active[rows]] = got.reshape((c,) + tail + (4, 4))
    return out


class _Cells:
    """Cells and their float bounds, rows of the mesh's `cell_bounds`."""

    def __init__(self, mesh, cids):
        self.cells = np.asarray(cids, dtype=np.intp)
        s0, s1, t0, t1 = mesh.cell_bounds()[self.cells].T
        self.s0, self.t0 = s0, t0
        self.width, self.height = s1 - s0, t1 - t0

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
    """A spline space with one scalar or point coefficient per function;
    write no coefficient once it has evaluated (see `patches`)."""

    def __init__(self, space, coefficients):
        self.space = space
        self.coefficients = np.asarray(coefficients, dtype=float)
        if self.coefficients.shape[0] != space.dim:
            raise ValueError("one coefficient per basis function required")

    @property
    def arity(self):
        return None if self.coefficients.ndim == 1 else self.coefficients.shape[1]

    @cached_property
    def patches(self):
        """The field's patch on every cell made so far (n, ..., 4, 4), zero
        on cells that are not active, contracted on first use."""
        return _contract_active(self.space, self.coefficients)

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
            blk = _Cells(self.space.mesh, cids[sl])
            P = self.patches[blk.cells]
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

        Points are evaluated `_CHUNK` at a time: per point, the Bernstein
        weights bv (x) bu of each derivative order, applied to its cell's
        contracted patch by one batched matmul, then divided by the cell's
        width^a height^b for a derivative."""
        tail = self.coefficients.shape[1:]
        out = np.empty((len(derivs), len(order)) + tail)
        blk = _Cells(self.space.mesh, cells)
        P = self.patches.reshape(len(self.patches), -1, 16)
        scale = [blk.width ** a * blk.height ** b for a, b in derivs]
        run = np.repeat(np.arange(len(blk.cells)), counts)
        s_orders, t_orders = {a for a, _ in derivs}, {b for _, b in derivs}
        for at in range(0, len(order), _CHUNK):
            part = slice(at, at + _CHUNK)
            rows = run[part]
            idx = order[part]
            u, v = blk.local(s[idx], t[idx], rows)
            Pr = P.take(blk.cells[rows], axis=0)              # (n, m, 16)
            bu = {a: bezier.bernstein_row(u, a).T[:, None, :] for a in s_orders}
            bv = {b: bezier.bernstein_row(v, b).T[:, :, None] for b in t_orders}
            for k, (a, b) in enumerate(derivs):
                got = out[k, part]
                np.matmul(Pr, (bv[b] * bu[a]).reshape(-1, 16, 1),
                          out=got.reshape(Pr.shape[:2] + (1,)))
                if a or b:
                    got /= scale[k][rows].reshape((-1,) + (1,) * len(tail))
        return out


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
