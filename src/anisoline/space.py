"""C1 bicubic spline spaces over modified hierarchical T-meshes.

Every basis function is anchored at a basis vertex (boundary or interior
crossing) and stored purely in per-cell Bezier form: a sparse map from
active cell id to a 4x4 ordinate grid.  Knot vectors appear only
transiently, when the level-0 tensor basis and the four functions of a
newly created basis vertex are built; after that a single representation
feeds evaluation, modification, fitting and assembly.

Level construction:

* level 0 uses the C1 tensor-product cubics with doubled interior knots,
  two univariate functions per breakpoint and direction;
* when the mesh refines, each existing function is pushed through the
  modification operator: its patches on subdivided cells are split with
  de Casteljau's algorithm, then every 2x2 ordinate block sitting at a
  *new* basis vertex is reset to zero, in all incident child cells at
  once (this keeps the functions C1 and hands the local Hermite data
  over to the newcomers);
* each new basis vertex receives four fresh tensor-product functions on
  its 2x2 (interior) or 1x2 (boundary) cell neighborhood.

The advance is array work, carried across levels as in multi-level
Bezier extraction (D'Angella, Kollmannsberger, Rank and Reali, 2018): the
(function, cell) patches on subdivided cells are gathered per split kind
and split by the fixed half-interval de Casteljau matrices
(`bezier.split_patches`), the new-vertex corner blocks are zeroed by one
mask (`bezier.zero_corner_blocks`) and all-zero pieces dropped, all
`_SPLIT_CHUNK` pairs at a time so memory stays bounded; the new vertices'
functions are batched outer products of univariate ordinates.

The four functions at a vertex reproduce arbitrary (value, d_s, d_t,
d_st) data there, and all other functions carry zero data at that
vertex; this collocation structure is what makes the basis linearly
independent and lets coefficients be computed vertex by vertex.  The
collocation block of a vertex is kron(T, S) of the (value, slope) pairs
of its univariate s and t functions.  It never changes after the vertex's
birth (splitting is exact, and zeroing touches only blocks at newer
vertices), so the builders record S and T then, in one table on the
space (`SplineSpace.factors`).  `collocation_block` reads one row, and
`field_from_vertex_data` and `transfer_field` solve all their vertices
against kron(T^-1, S^-1) in one batched einsum.

Every evaluation in the package goes through one Bezier-extraction kernel
(Borden, Scott, Evans and Hughes, 2011), kept here with the
representation.  It walks cells in blocks of `_BLOCK` (`_Cells`: function
ids and 4x4 patches, zero-padded to the block's widest cell), contracts
coefficients into one patch per cell, and evaluates patches by a matmul
with Bernstein tables (`_bernstein_tables`, `_eval_patches`): at local
points shared by all cells (`SplineField.eval_grid`, the solver's Gauss
points) or at scattered points with known cells, `_CHUNK` at a time
(`SplineField.eval_located`).  Blocks and chunks bound the memory.
"""

from __future__ import annotations

import json

import numpy as np

from . import bezier
from .tmesh import SPLIT_KINDS, TMesh

__all__ = [
    "BasisFunction", "SplineSpace", "SplineField", "CollocationBlock",
    "build_initial_space", "advance_level", "collocation_block",
    "verify_space", "field_from_vertex_data", "transfer_field",
]

# derivative orders in reporting order: value, s, t, ss, st, tt
DERIV_ORDERS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
# the collocation data at a vertex: f, f_s, f_t, f_st
HERMITE_ORDERS = ((0, 0), (1, 0), (0, 1), (1, 1))

# cells per block and scattered points per chunk of the evaluation kernel
_BLOCK = 64
_CHUNK = 1024
# (function, cell) patches split per chunk by the level advance
_SPLIT_CHUNK = 128


class BasisFunction:
    """One spline basis function in sparse per-cell Bezier form."""

    __slots__ = ("anchor", "slot", "birth_level", "support")

    def __init__(self, anchor, slot, birth_level, support):
        self.anchor = anchor
        self.slot = slot
        self.birth_level = birth_level
        self.support = support          # cell id -> (4, 4) ndarray

    def __repr__(self):
        return (f"BasisFunction(anchor={self.anchor}, slot={self.slot}, "
                f"level={self.birth_level}, cells={sorted(self.support)})")


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
    """A basis for the C1 bicubic spline space over a T-mesh value.

    `vertex_index` maps each basis vertex to its four function ids in slot
    order.  `factors` is the collocation table (n_vertices, 2, 2, 2): row
    `vertex_row[vid]` holds the univariate factors S and T of the vertex's
    collocation block kron(T, S) (see `CollocationBlock`), rows in the order
    of `vertex_index`.  The space builders record it when they create a
    vertex's functions; a space constructed without it fills it once, on
    first use, from the patches' corner data.
    """

    def __init__(self, mesh, functions, factors=None):
        self.mesh = mesh
        self.functions = functions
        self.vertex_index = {}
        for idx, f in enumerate(functions):
            self.vertex_index.setdefault(f.anchor, []).append(idx)
        for vid, ids in self.vertex_index.items():
            slots = [functions[f].slot for f in ids]
            if sorted(slots) != [0, 1, 2, 3]:
                raise ValueError(f"basis vertex {vid} carries functions of slots {slots}, "
                                 f"expected one of each slot 0-3")
            self.vertex_index[vid] = tuple(f for _, f in sorted(zip(slots, ids)))
        self.vertex_row = {vid: k for k, vid in enumerate(self.vertex_index)}
        if factors is not None and np.shape(factors) != (len(self.vertex_row), 2, 2, 2):
            raise ValueError(f"collocation table of shape {np.shape(factors)} for "
                             f"{len(self.vertex_row)} basis vertices")
        self._factors = factors
        self.cell_to_funcs = {}
        for idx, f in enumerate(functions):
            for cid in f.support:
                self.cell_to_funcs.setdefault(cid, []).append(idx)

    @property
    def dim(self):
        return len(self.functions)

    @property
    def factors(self):
        if self._factors is None:
            self._factors = _factors_from_patches(self)
        return self._factors

    def functions_on_cell(self, cid):
        return self.cell_to_funcs.get(cid, [])

    def basis_data_at_vertex(self, fid, vid):
        """(f, f_s, f_t, f_st) of one function at a vertex, zeros off-support."""
        f = self.functions[fid]
        v = self.mesh.vertex(vid)
        for cid in sorted(f.support):
            c = self.mesh.cell(cid)
            if v.i in (c.i0, c.i1) and v.j in (c.j0, c.j1):
                corner = (0 if v.i == c.i0 else 1, 0 if v.j == c.j0 else 1)
                return bezier.corner_data(f.support[cid], corner, *c.size_float())
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
                {"anchor": f.anchor, "slot": f.slot, "birth_level": f.birth_level,
                 "support": {str(cid): [float(x) for x in patch.ravel()]
                             for cid, patch in sorted(f.support.items())}}
                for f in self.functions],
        }

    def to_json(self, **kw):
        return json.dumps(self.to_json_dict(), **kw)

    @classmethod
    def from_json_dict(cls, d):
        mesh = TMesh.from_json_dict(d["mesh"])
        funcs = []
        for fd in d["functions"]:
            support = {int(cid): np.array(vals, dtype=float).reshape(4, 4)
                       for cid, vals in fd["support"].items()}
            funcs.append(BasisFunction(fd["anchor"], fd["slot"], fd["birth_level"], support))
        return cls(mesh, funcs)

    @classmethod
    def from_json(cls, text):
        return cls.from_json_dict(json.loads(text))


# ----------------------------------------------------------------------
# univariate C1 cubic data: (value, derivative) of the two functions at a
# breakpoint; both vanish to first order at the neighboring breakpoints.

def _interior_pair(w_lo, w_hi):
    a = 1.0 / (w_lo + w_hi)
    return ((w_hi * a, -3.0 * a), (w_lo * a, 3.0 * a))


def _clamped_pair(w, at_low_end):
    # quadruple end knot: first function carries the value, second the slope
    if at_low_end:
        return ((1.0, -3.0 / w), (0.0, 3.0 / w))
    return ((1.0, 3.0 / w), (0.0, -3.0 / w))


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


def _vertex_functions(anchors, factors, cells, level):
    """The four functions of every vertex in `anchors`, as batched outer
    products of univariate ordinates.

    factors (n, 2, 2, 2): each vertex's S and T; cells: per vertex, its
    support cells as (cell id, width, anchor at the cell's low s end,
    height, anchor at the low t end).  Slot k = sv + 2 tv takes the sv-th
    s and the tv-th t function."""
    rows = np.repeat(np.arange(len(anchors)), [len(cs) for cs in cells])
    sw, s_low, th, t_low = np.array([c[1:] for cs in cells for c in cs],
                                    dtype=float).reshape(-1, 4).T
    s_ord = _ordinates_toward(factors[rows, 0], sw, s_low.astype(bool))
    t_ord = _ordinates_toward(factors[rows, 1], th, t_low.astype(bool))
    # (entry, tv, sv, 4, 4) -> (entry, slot, 4, 4)
    patches = (t_ord[:, :, None, :, None] * s_ord[:, None, :, None, :]).reshape(-1, 4, 4, 4)
    funcs = []
    at = 0
    for anchor, cs in zip(anchors, cells):
        for slot in range(4):
            funcs.append(BasisFunction(anchor, slot, level, {
                c[0]: patches[at + e, slot].copy() for e, c in enumerate(cs)}))
        at += len(cs)
    return funcs


def build_initial_space(mesh):
    """Tensor-product C1 bicubic basis on a level-0 tensor mesh."""
    cells = [mesh.cell(c) for c in mesh.active_cells()]
    if any(c.level != 0 for c in cells) or mesh.generation_log:
        raise ValueError("initial space requires a pure tensor-product mesh")
    # knot lines as lattice coordinates, and the index of each
    s_knots = sorted({c.i0 for c in cells} | {c.i1 for c in cells})
    t_knots = sorted({c.j0 for c in cells} | {c.j1 for c in cells})
    s_index = {x: k for k, x in enumerate(s_knots)}
    t_index = {x: k for k, x in enumerate(t_knots)}
    grid = {(s_index[c.i0], t_index[c.j0]): c.id for c in cells}

    def direction_data(axis, knots, k):
        n = len(knots) - 1
        if k == 0:
            w = axis.length(knots[0], knots[1])
            return _clamped_pair(w, True), [(0, w, True)]
        if k == n:
            w = axis.length(knots[n - 1], knots[n])
            return _clamped_pair(w, False), [(n - 1, w, False)]
        w_lo = axis.length(knots[k - 1], knots[k])
        w_hi = axis.length(knots[k], knots[k + 1])
        return _interior_pair(w_lo, w_hi), [(k - 1, w_lo, False), (k, w_hi, True)]

    s_axis, t_axis = mesh.axes
    anchors = sorted(mesh.vertices())
    factors = np.empty((len(anchors), 2, 2, 2))
    support_cells = []
    for row, vid in enumerate(anchors):
        v = mesh.vertex(vid)
        factors[row, 0], s_cells = direction_data(s_axis, s_knots, s_index[v.i])
        factors[row, 1], t_cells = direction_data(t_axis, t_knots, t_index[v.j])
        support_cells.append([(grid[(si, tj)], sw, s_low, th, t_low)
                              for (tj, th, t_low) in t_cells for (si, sw, s_low) in s_cells])
    space = SplineSpace(mesh, _vertex_functions(anchors, factors, support_cells, 0), factors)
    if space.dim != mesh.dimension():
        raise AssertionError("initial basis count disagrees with the dimension formula")
    return space


# ----------------------------------------------------------------------
# level advance

def _new_vertex_neighborhood(mesh, vid):
    """Local tensor structure at a new basis vertex.

    Returns (s_pair, t_pair, support_cells): the univariate (value, slope)
    pairs of the vertex's s and t functions, and its incident cells as
    (cell id, width, anchor at the low s end, height, anchor at the low t
    end).
    """
    v = mesh.vertex(vid)
    i, j = v.i, v.j
    cells = [mesh.cell(c) for c in mesh.vertex_cells(vid)]
    sizes = [c.size_float() for c in cells]
    for c in cells:
        if i not in (c.i0, c.i1) or j not in (c.j0, c.j1):
            raise AssertionError(f"vertex {vid} is not a corner of incident cell {c.id}")
    s_lo = sorted({w for c, (w, _) in zip(cells, sizes) if c.i1 == i})
    s_hi = sorted({w for c, (w, _) in zip(cells, sizes) if c.i0 == i})
    t_lo = sorted({h for c, (_, h) in zip(cells, sizes) if c.j1 == j})
    t_hi = sorted({h for c, (_, h) in zip(cells, sizes) if c.j0 == j})
    for widths, name in ((s_lo, "left"), (s_hi, "right"), (t_lo, "below"), (t_hi, "above")):
        if len(widths) > 1:
            raise AssertionError(
                f"cells {name} of new basis vertex {vid} do not form a tensor block")

    if s_lo and s_hi:
        s_pair = _interior_pair(s_lo[0], s_hi[0])
    elif s_hi:
        s_pair = _clamped_pair(s_hi[0], True)
    else:
        s_pair = _clamped_pair(s_lo[0], False)
    if t_lo and t_hi:
        t_pair = _interior_pair(t_lo[0], t_hi[0])
    elif t_hi:
        t_pair = _clamped_pair(t_hi[0], True)
    else:
        t_pair = _clamped_pair(t_lo[0], False)

    # anchor at the cell's low s end, low t end
    support_cells = [(c.id, w, c.i0 == i, h, c.j0 == j) for c, (w, h) in zip(cells, sizes)]
    return s_pair, t_pair, support_cells


def _born_functions(mesh, born, level):
    """Functions and collocation factors of the new basis vertices `born`,
    `_SPLIT_CHUNK` // 4 vertices at a time, and the corners of the cells
    holding one of them: cell id -> bit mask, bit cs + 2 ct."""
    funcs, factors, corners = [], [np.empty((0, 2, 2, 2))], {}
    step = _SPLIT_CHUNK // 4
    for lo in range(0, len(born), step):
        hoods = [_new_vertex_neighborhood(mesh, vid) for vid in born[lo:lo + step]]
        rows = np.array([h[:2] for h in hoods], dtype=float)
        cells = [h[2] for h in hoods]
        for cid, _, s_low, _, t_low in (c for cs in cells for c in cs):
            corners[cid] = corners.get(cid, 0) | 1 << ((not s_low) + 2 * (not t_low))
        funcs += _vertex_functions(born[lo:lo + step], rows, cells, level)
        factors.append(rows)
    return funcs, np.concatenate(factors), corners


def advance_level(space, report):
    """Carry a spline space across one refinement round.

    Existing functions whose support meets a subdivided cell get that
    patch split and their ordinate blocks at the new basis vertices
    zeroed; untouched functions are reused as-is.  Four new functions
    are created per new basis vertex.  Patches on subdivided cells are
    split per kind, `_SPLIT_CHUNK` (function, cell) pairs at a time.
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
    new_functions, factors, new_corners = _born_functions(
        mesh, sorted(report.new_basis_vertices), mesh.current_level)

    supports = {}           # touched function id -> its new support
    for kind in SPLIT_KINDS:
        pairs = [(fid, cid) for cid, (k, _) in split_info.items() if k == kind
                 for fid in space.cell_to_funcs.get(cid, ())]
        for lo in range(0, len(pairs), _SPLIT_CHUNK):
            chunk = pairs[lo:lo + _SPLIT_CHUNK]
            P = np.array([space.functions[fid].support[cid] for fid, cid in chunk])
            bits = np.array([[new_corners.get(kid, 0) for kid in split_info[cid][1]]
                             for _, cid in chunk])
            kids = bezier.zero_corner_blocks(bezier.split_patches(P, kind),
                                             (bits[..., None] >> np.arange(4)) & 1)
            alive = kids.any(axis=(2, 3))
            for (fid, cid), pieces, live in zip(chunk, kids, alive):
                support = supports.get(fid)
                if support is None:
                    support = supports[fid] = {c: p for c, p in space.functions[fid].support.items()
                                               if c not in split_info}
                for kid, piece, keep in zip(split_info[cid][1], pieces, live):
                    if keep:
                        support[kid] = piece.copy()

    functions = [BasisFunction(f.anchor, f.slot, f.birth_level, supports[idx])
                 if idx in supports else f for idx, f in enumerate(space.functions)]
    out = SplineSpace(mesh, functions + new_functions, np.concatenate([space.factors, factors]))
    expected = space.dim + 4 * len(report.new_basis_vertices)
    if out.dim != expected:
        raise AssertionError(
            f"basis count {out.dim} disagrees with expected {expected}")
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
    lists = [space.functions_on_cell(cid) for cid in cids]
    counts = np.array([len(fl) for fl in lists])
    valid = np.arange(counts.max(initial=0)) < counts[:, None]
    fids = np.zeros(valid.shape, dtype=np.intp)
    patches = np.zeros(valid.shape + (4, 4))
    if valid.any():
        fids[valid] = [f for fl in lists for f in fl]
        patches[valid] = [space.functions[f].support[cid]
                          for cid, fl in zip(cids, lists) for f in fl]
    return fids, patches, valid


class _Cells:
    """One block of the kernel: cells, their float bounds and the padded
    basis patches of `space` on them (see `_padded_patches`)."""

    def __init__(self, space, cids):
        self.cells = np.asarray(cids)
        s0, s1, t0, t1 = np.array([space.mesh.cell(cid).bounds_float()
                                   for cid in cids]).reshape(-1, 4).T
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


_ADJUGATE_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])


def _inverse_blocks(factors, vids):
    """Inverse collocation blocks kron(T^-1, S^-1) (n, 4, 4) from factor
    rows (n, 2, 2, 2) of the vertices `vids`; raises a RuntimeError naming
    the first vertex whose block is singular."""
    F = factors.reshape(-1, 2, 4)                       # (a, b, c, d) of S and T
    det = F[..., 0] * F[..., 3] - F[..., 1] * F[..., 2]
    singular = ~(np.isfinite(det) & (det != 0)).all(axis=1)
    if singular.any():
        raise RuntimeError(f"singular collocation block at vertex {vids[int(np.argmax(singular))]}")
    inv = (F[..., [3, 1, 2, 0]] * _ADJUGATE_SIGNS / det[..., None]).reshape(-1, 2, 2, 2)
    return _kron2(inv[:, 1], inv[:, 0])


def _factors_from_patches(space):
    """The collocation table of a space, read from its patches' corner
    data: each vertex's block split into its Kronecker factors S and T."""
    vids = list(space.vertex_index)
    B = np.array([[space.basis_data_at_vertex(fid, vid) for fid in space.vertex_index[vid]]
                  for vid in vids]).reshape(-1, 4, 4)
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
    """Coefficients (n, 4, ...) of the functions `space.vertex_index[vid]`
    that reproduce Hermite data (n, ..., 4) at the basis vertices vids."""
    inv = _inverse_blocks(space.factors[[space.vertex_row[vid] for vid in vids]], vids)
    return np.moveaxis(np.einsum("n...i,nij->n...j", data, inv), -1, 1)


def field_from_vertex_data(space, data):
    """Coefficients of the field matching (f, f_s, f_t, f_st) per vertex.

    `data` maps basis vertex id -> array (..., 4).  Every basis vertex of
    the mesh must be present.  Returns a SplineField.
    """
    vids = list(space.vertex_index)
    values = np.array([data[vid] for vid in vids], dtype=float)
    coeffs = np.zeros((space.dim,) + values.shape[1:-1])
    coeffs[[space.vertex_index[vid] for vid in vids]] = _solve_vertices(space, vids, values)
    return SplineField(space, coeffs)


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
        """Evaluate the field (and optional derivatives) at parameter arrays.

        Returns an array of shape (nderivs, n) or (nderivs, n, arity).
        """
        s = np.atleast_1d(np.asarray(s, dtype=float))
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return self.eval_located(self.space.mesh.locate_many(s, t), s, t, derivs)

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
        with cell cells[k] (on that cell's closure).  Shapes as in
        :meth:`eval_many`."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty((len(derivs), s.size) + self.coefficients.shape[1:])
        uniq, inv = np.unique(np.atleast_1d(cells), return_inverse=True)
        order = np.argsort(inv, kind="stable")
        ranks = inv[order]
        for sl in _blocks(len(uniq)):
            blk = _Cells(self.space, uniq[sl].tolist())
            P = blk.contract(self.coefficients)
            lo, hi = np.searchsorted(ranks, (sl.start, sl.stop))
            for at in range(lo, hi, _CHUNK):
                idx = order[at:min(at + _CHUNK, hi)]
                rows = inv[idx] - sl.start
                u, v = blk.local(s[idx], t[idx], rows)
                tables = _bernstein_tables(u[:, None], v[:, None], derivs)
                for k, d in enumerate(derivs):
                    out[k, idx] = _eval_patches(P[rows], tables, d, blk.width[rows],
                                                blk.height[rows])[..., 0]
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

    Old functions keep their coefficients; each new basis vertex gets the
    coefficients that reproduce the old field's local Hermite data, which
    the modification operator handed over verbatim.
    """
    old_space = field.space
    n_old = old_space.dim
    if new_space.dim < n_old:
        raise ValueError("target space is smaller than the source space")
    shape = (new_space.dim,) if field.arity is None else (new_space.dim, field.arity)
    coeffs = np.zeros(shape)
    coeffs[:n_old] = field.coefficients
    fresh = [vid for vid, fids in new_space.vertex_index.items()
             if any(fid >= n_old for fid in fids)]
    if fresh:
        s, t = zip(*(new_space.mesh.vertex(vid).position_float() for vid in fresh))
        got = field.eval_many(s, t, HERMITE_ORDERS)
        coeffs[[new_space.vertex_index[vid] for vid in fresh]] = \
            _solve_vertices(new_space, fresh, np.moveaxis(got, 0, -1))
    return SplineField(new_space, coeffs)


# ----------------------------------------------------------------------
# diagnostics

def _interior_edge_samples(mesh, n_per_edge=3):
    """(cell a, cell b, s array, t array) for shared interior edge pieces,
    each piece once (a < b), from the cells' edge neighbors."""
    out = []
    ticks = np.linspace(0.15, 0.85, n_per_edge)
    s_axis, t_axis = mesh.axes
    for a in mesh.active_cells():
        ca = mesh.cell(a)
        for b in sorted(mesh.edge_neighbors(a)):
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
    pieces = _interior_edge_samples(mesh)
    c1_jump = 0.0
    if pieces:
        a, b, es, et = (np.concatenate([np.broadcast_to(p[k], p[2].shape) for p in pieces])
                        for k in range(4))
        jump = field.eval_located(a, es, et, DERIV_ORDERS[:3]) - \
            field.eval_located(b, es, et, DERIV_ORDERS[:3])
        c1_jump = float(np.max(np.abs(jump))) / scale

    # the Hermite data of the round-trip field, read in one incident cell
    data = {vid: rng.standard_normal(4) for vid in space.vertex_index}
    rt = field_from_vertex_data(space, data)
    vids = list(space.vertex_index)
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
