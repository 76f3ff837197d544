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

The four functions at a vertex reproduce arbitrary (value, d_s, d_t,
d_st) data there, and all other functions carry zero data at that
vertex; this collocation structure is what makes the basis linearly
independent and lets coefficients be computed vertex by vertex.
"""

from __future__ import annotations

import json

import numpy as np

from . import bezier
from .tmesh import TMesh, VertexKind, group_by_cell

__all__ = [
    "BasisFunction", "SplineSpace", "SplineField", "CollocationBlock",
    "build_initial_space", "advance_level", "evaluate", "collocation_block",
    "verify_space", "field_from_vertex_data", "transfer_field",
]

# derivative orders in reporting order: value, s, t, ss, st, tt
DERIV_ORDERS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


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
    coefficient row vector c satisfies  data = c @ matrix."""

    def __init__(self, vertex, matrix, cell_extents):
        self.vertex = vertex
        self.matrix = matrix
        self._inverse = None
        self.cell_extents = cell_extents  # (ds_left, ds_right, dt_below, dt_above), None when clamped
        ds0, ds1, dt0, dt1 = cell_extents
        sw = (ds0 or 0) + (ds1 or 0)
        th = (dt0 or 0) + (dt1 or 0)
        self.alpha = 1.0 / sw if sw else None
        self.beta = 1.0 / th if th else None
        self.lam = ds0 * self.alpha if (ds0 and self.alpha) else None
        self.mu = dt0 * self.beta if (dt0 and self.beta) else None

    def solve(self, data):
        """Coefficients reproducing `data` (shape (..., 4)) at the vertex."""
        return np.asarray(data, dtype=float) @ self.inverse

    @property
    def inverse(self):
        if self._inverse is None:
            try:
                inv = np.linalg.inv(self.matrix)
            except np.linalg.LinAlgError:
                raise RuntimeError(
                    f"singular collocation block at vertex {self.vertex}") from None
            if not np.all(np.isfinite(inv)):
                raise RuntimeError(f"singular collocation block at vertex {self.vertex}")
            self._inverse = inv
        return self._inverse


class SplineSpace:
    """A basis for the C1 bicubic spline space over a T-mesh value."""

    def __init__(self, mesh, functions):
        self.mesh = mesh
        self.functions = functions
        self.vertex_index = {}
        for idx, f in enumerate(functions):
            self.vertex_index.setdefault(f.anchor, []).append(idx)
        for vid, ids in self.vertex_index.items():
            if len(ids) != 4:
                raise ValueError(f"basis vertex {vid} carries {len(ids)} functions, expected 4")
            self.vertex_index[vid] = tuple(ids)
        self.cell_to_funcs = {}
        for idx, f in enumerate(functions):
            for cid in f.support:
                self.cell_to_funcs.setdefault(cid, []).append(idx)

    @property
    def dim(self):
        return len(self.functions)

    def functions_on_cell(self, cid):
        return self.cell_to_funcs.get(cid, [])

    def basis_data_at_vertex(self, fid, vid):
        """(f, f_s, f_t, f_st) of one function at a vertex, zeros off-support."""
        f = self.functions[fid]
        v = self.mesh.vertex(vid)
        for cid in sorted(f.support):
            c = self.mesh.cell(cid)
            if (v.s, v.t) in ((c.s0, c.t0), (c.s1, c.t0), (c.s0, c.t1), (c.s1, c.t1)):
                corner = (0 if v.s == c.s0 else 1, 0 if v.t == c.t0 else 1)
                return bezier.corner_data(f.support[cid], corner,
                                          float(c.width), float(c.height))
        return np.zeros(4)

    def basis_on_cell(self, cid, u, v, derivs=DERIV_ORDERS[:1]):
        """Evaluate all functions living on a cell at local points.

        u, v are arrays of local coordinates in [0,1]; returns
        (function ids, array of shape (nderivs, nf, npts)) with
        derivatives already in global parameter units.
        """
        fids = self.functions_on_cell(cid)
        c = self.mesh.cell(cid)
        w, h = float(c.width), float(c.height)
        u = np.atleast_1d(np.asarray(u, dtype=float))
        v = np.atleast_1d(np.asarray(v, dtype=float))
        out = np.empty((len(derivs), len(fids), u.size))
        if fids:
            patches = np.stack([self.functions[f].support[cid] for f in fids])
            for d, (a, b) in enumerate(derivs):
                bu = bezier.bernstein_row(u, a)
                bv = bezier.bernstein_row(v, b)
                out[d] = np.einsum("fij,jn,in->fn", patches, bu, bv) / (w ** a * h ** b)
        return fids, out

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


def _ordinates_toward(val, der, w, anchor_at_low):
    """Cubic ordinates on a cell with (val, der) at the anchor endpoint and
    zero value and slope at the other endpoint."""
    if anchor_at_low:
        return np.array([val, val + der * w / 3.0, 0.0, 0.0])
    return np.array([0.0, 0.0, val - der * w / 3.0, val])


def _tensor_function(anchor, slot, level, s_pair, t_pair, s_cells, t_cells):
    """Assemble per-cell patches of a tensor-product function.

    s_cells/t_cells: list of (cell key, width, anchor_at_low) per direction;
    the support is their cartesian product and cell ids are resolved by the
    caller via the key pairs.
    """
    sv, tv = slot % 2, slot // 2
    val_s, der_s = s_pair[sv]
    val_t, der_t = t_pair[tv]
    support = {}
    for (tkey, th, t_low) in t_cells:
        t_ord = _ordinates_toward(val_t, der_t, th, t_low)
        for (skey, sw, s_low) in s_cells:
            s_ord = _ordinates_toward(val_s, der_s, sw, s_low)
            support[(skey, tkey)] = np.outer(t_ord, s_ord)
    return support


def build_initial_space(mesh):
    """Tensor-product C1 bicubic basis on a level-0 tensor mesh."""
    cells = [mesh.cell(c) for c in mesh.active_cells()]
    if any(c.level != 0 for c in cells) or mesh.generation_log:
        raise ValueError("initial space requires a pure tensor-product mesh")
    s_knots = sorted({c.s0 for c in cells} | {c.s1 for c in cells})
    t_knots = sorted({c.t0 for c in cells} | {c.t1 for c in cells})
    grid = {}
    for c in cells:
        i = s_knots.index(c.s0)
        j = t_knots.index(c.t0)
        grid[(i, j)] = c.id
    ns, nt = len(s_knots) - 1, len(t_knots) - 1

    def direction_data(knots, k):
        n = len(knots) - 1
        if k == 0:
            w = float(knots[1] - knots[0])
            return _clamped_pair(w, True), [(0, w, True)]
        if k == n:
            w = float(knots[n] - knots[n - 1])
            return _clamped_pair(w, False), [(n - 1, w, False)]
        w_lo = float(knots[k] - knots[k - 1])
        w_hi = float(knots[k + 1] - knots[k])
        return _interior_pair(w_lo, w_hi), [(k - 1, w_lo, False), (k, w_hi, True)]

    functions = []
    for vid in sorted(mesh.vertices()):
        v = mesh.vertex(vid)
        i = s_knots.index(v.s)
        j = t_knots.index(v.t)
        s_pair, s_cells = direction_data(s_knots, i)
        t_pair, t_cells = direction_data(t_knots, j)
        for slot in range(4):
            keyed = _tensor_function(vid, slot, 0, s_pair, t_pair, s_cells, t_cells)
            support = {grid[(si, tj)]: patch for (si, tj), patch in keyed.items()}
            functions.append(BasisFunction(vid, slot, 0, support))
    space = SplineSpace(mesh, functions)
    if space.dim != mesh.dimension():
        raise AssertionError("initial basis count disagrees with the dimension formula")
    return space


# ----------------------------------------------------------------------
# level advance

def _new_vertex_neighborhood(mesh, vid):
    """Local tensor structure at a new basis vertex.

    Returns (s_pair, s_cells, t_pair, t_cells) where the cell entries are
    (cell id selector..., width, anchor_at_low) resolved against the
    vertex's incident cells.
    """
    v = mesh.vertex(vid)
    cells = [mesh.cell(c) for c in mesh.vertex_cells(vid)]
    for c in cells:
        if (v.s, v.t) not in ((c.s0, c.t0), (c.s1, c.t0), (c.s0, c.t1), (c.s1, c.t1)):
            raise AssertionError(f"vertex {vid} is not a corner of incident cell {c.id}")
    s_lo = sorted({float(c.width) for c in cells if c.s1 == v.s})
    s_hi = sorted({float(c.width) for c in cells if c.s0 == v.s})
    t_lo = sorted({float(c.height) for c in cells if c.t1 == v.t})
    t_hi = sorted({float(c.height) for c in cells if c.t0 == v.t})
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

    support_cells = []
    for c in cells:
        s_low = c.s0 == v.s      # anchor at the cell's low s end
        t_low = c.t0 == v.t
        support_cells.append((c.id, float(c.width), s_low, float(c.height), t_low))
    extents = (s_lo[0] if s_lo else None, s_hi[0] if s_hi else None,
               t_lo[0] if t_lo else None, t_hi[0] if t_hi else None)
    return s_pair, t_pair, support_cells, extents


def _build_vertex_functions(mesh, vid, birth_level):
    s_pair, t_pair, support_cells, _ = _new_vertex_neighborhood(mesh, vid)
    funcs = []
    for slot in range(4):
        sv, tv = slot % 2, slot // 2
        val_s, der_s = s_pair[sv]
        val_t, der_t = t_pair[tv]
        support = {}
        for (cid, sw, s_low, th, t_low) in support_cells:
            s_ord = _ordinates_toward(val_s, der_s, sw, s_low)
            t_ord = _ordinates_toward(val_t, der_t, th, t_low)
            support[cid] = np.outer(t_ord, s_ord)
        funcs.append(BasisFunction(vid, slot, birth_level, support))
    return funcs


def advance_level(space, report):
    """Carry a spline space across one refinement round.

    Existing functions whose support meets a subdivided cell get that
    patch split and their ordinate blocks at the new basis vertices
    zeroed; untouched functions are reused as-is.  Four new functions
    are created per new basis vertex.
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
    level = mesh.current_level

    functions = []
    touched = {}
    for idx, f in enumerate(space.functions):
        hit = [cid for cid in f.support if cid in split_info]
        if not hit:
            functions.append(f)
            continue
        support = dict(f.support)
        for cid in hit:
            kind, kids = split_info[cid]
            pieces = bezier.split_patch(support.pop(cid), kind)
            for kid, piece in zip(kids, pieces):
                support[kid] = piece
        g = BasisFunction(f.anchor, f.slot, f.birth_level, support)
        touched[idx] = g
        functions.append(g)

    cell_funcs = {}
    for g in touched.values():
        for cid in g.support:
            cell_funcs.setdefault(cid, []).append(g)
    for vid in report.new_basis_vertices:
        v = mesh.vertex(vid)
        for cid in mesh.vertex_cells(vid):
            c = mesh.cell(cid)
            corner = (0 if v.s == c.s0 else 1, 0 if v.t == c.t0 else 1)
            for g in cell_funcs.get(cid, ()):
                g.support[cid] = bezier.zero_corner_block(g.support[cid], corner)

    for g in touched.values():
        dead = [cid for cid, patch in g.support.items() if not patch.any()]
        for cid in dead:
            del g.support[cid]

    for vid in sorted(report.new_basis_vertices):
        functions.extend(_build_vertex_functions(mesh, vid, level))

    out = SplineSpace(mesh, functions)
    expected = space.dim + 4 * len(report.new_basis_vertices)
    if out.dim != expected:
        raise AssertionError(
            f"basis count {out.dim} disagrees with expected {expected}")
    # the full Eq.-(1) recount walks every vertex; keep it for meshes where
    # it is cheap, the randomized suites re-check it on everything
    if len(mesh._verts) <= 4000 and out.dim != mesh.dimension():
        raise AssertionError(
            f"basis count {out.dim} disagrees with dimension formula {mesh.dimension()}")
    return out


# ----------------------------------------------------------------------
# evaluation

def evaluate(space, s, t, max_deriv=0):
    """All functions alive at a parameter point.

    Returns a list of (function id, values) where values has length 1, 3
    or 6 for max_deriv 0, 1, 2 in the order value, d_s, d_t, d_ss, d_st,
    d_tt (global parameter units).
    """
    if max_deriv not in (0, 1, 2):
        raise ValueError("max_deriv must be 0, 1 or 2")
    nd = {0: 1, 1: 3, 2: 6}[max_deriv]
    cid = space.mesh.locate_cell(s, t)
    c = space.mesh.cell(cid)
    u = (float(s) - float(c.s0)) / float(c.width)
    v = (float(t) - float(c.t0)) / float(c.height)
    fids, vals = space.basis_on_cell(cid, [u], [v], DERIV_ORDERS[:nd])
    return [(fid, vals[:, k, 0].copy()) for k, fid in enumerate(fids)]


def collocation_block(space, vid):
    """Collocation data of the four functions anchored at a basis vertex."""
    if not space.mesh.is_basis_vertex(vid):
        raise ValueError(f"vertex {vid} is not a basis vertex")
    fids = space.vertex_index.get(vid)
    if fids is None:
        raise ValueError(f"vertex {vid} carries no functions in this space")
    B = np.stack([space.basis_data_at_vertex(fid, vid) for fid in fids])
    v = space.mesh.vertex(vid)
    cells = [space.mesh.cell(c) for c in space.mesh.vertex_cells(vid)]
    ds0 = max((float(c.width) for c in cells if c.s1 == v.s), default=None)
    ds1 = max((float(c.width) for c in cells if c.s0 == v.s), default=None)
    dt0 = max((float(c.height) for c in cells if c.t1 == v.t), default=None)
    dt1 = max((float(c.height) for c in cells if c.t0 == v.t), default=None)
    block = CollocationBlock(vid, B, (ds0, ds1, dt0, dt1))
    block.inverse  # surfaces singularity immediately, naming the vertex
    return block


def field_from_vertex_data(space, data):
    """Coefficients of the field matching (f, f_s, f_t, f_st) per vertex.

    `data` maps basis vertex id -> array (..., 4).  Every basis vertex of
    the mesh must be present.  Returns a SplineField.
    """
    sample = next(iter(data.values()))
    arity = None if np.ndim(sample) == 1 else np.shape(sample)[0]
    shape = (space.dim,) if arity is None else (space.dim, arity)
    coeffs = np.zeros(shape)
    for vid, fids in space.vertex_index.items():
        block = collocation_block(space, vid)
        cs = block.solve(np.asarray(data[vid], dtype=float))
        for k, fid in enumerate(fids):
            coeffs[fid] = cs[..., k]
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
        cells = group_by_cell(self.space.mesh.locate_many(s, t))
        shape = (len(derivs), s.size) if self.arity is None else (len(derivs), s.size, self.arity)
        out = np.zeros(shape)
        for cid, idxs in cells.items():
            out[:, idxs] = self.eval_on_cell(cid, s[idxs], t[idxs], derivs)
        return out

    def eval_on_cell(self, cid, s, t, derivs=DERIV_ORDERS[:1]):
        """Evaluate using one specific cell's polynomial (s, t on its closure)."""
        c = self.space.mesh.cell(cid)
        u = (np.asarray(s, dtype=float) - float(c.s0)) / float(c.width)
        v = (np.asarray(t, dtype=float) - float(c.t0)) / float(c.height)
        fids, vals = self.space.basis_on_cell(cid, u, v, derivs)
        cf = self.coefficients[list(fids)] if fids else np.zeros((0,))
        if self.arity is None:
            return np.einsum("dfn,f->dn", vals, cf)
        return np.einsum("dfn,fm->dnm", vals, cf)

    def value(self, s, t):
        out = self.eval_many([s], [t])[0, 0]
        return float(out) if self.arity is None else out

    def lop(self, s, t):
        """(f, f_s, f_t, f_st) of the field at one parameter point."""
        got = self.eval_many([s], [t], ((0, 0), (1, 0), (0, 1), (1, 1)))
        return got[:, 0].T if self.arity else got[:, 0]

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
    verts = [new_space.mesh.vertex(vid) for vid in fresh]
    got = field.eval_many([float(v.s) for v in verts], [float(v.t) for v in verts],
                          ((0, 0), (1, 0), (0, 1), (1, 1)))
    for n, vid in enumerate(fresh):
        data = got[:, n].T if field.arity else got[:, n]
        cs = collocation_block(new_space, vid).solve(data)
        for k, fid in enumerate(new_space.vertex_index[vid]):
            coeffs[fid] = cs[..., k]
    return SplineField(new_space, coeffs)


# ----------------------------------------------------------------------
# diagnostics

def _interior_edge_samples(mesh, n_per_edge=3):
    """(cell a, cell b, s array, t array) for shared interior edge pieces."""
    act = mesh.active_cells()
    out = []
    ticks = np.linspace(0.15, 0.85, n_per_edge)
    for i, a in enumerate(act):
        ca = mesh.cell(a)
        for b in act[i + 1:]:
            cb = mesh.cell(b)
            if ca.s1 == cb.s0 or cb.s1 == ca.s0:
                lo, hi = max(ca.t0, cb.t0), min(ca.t1, cb.t1)
                if hi > lo:
                    s_edge = float(ca.s1 if ca.s1 == cb.s0 else cb.s1)
                    t = float(lo) + (float(hi) - float(lo)) * ticks
                    out.append((a, b, np.full_like(t, s_edge), t))
            if ca.t1 == cb.t0 or cb.t1 == ca.t0:
                lo, hi = max(ca.s0, cb.s0), min(ca.s1, cb.s1)
                if hi > lo:
                    t_edge = float(ca.t1 if ca.t1 == cb.t0 else cb.t1)
                    s = float(lo) + (float(hi) - float(lo)) * ticks
                    out.append((a, b, s, np.full_like(s, t_edge)))
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

    min_val = np.inf
    for cid in mesh.active_cells():
        u = rng.uniform(0, 1, 12)
        v = rng.uniform(0, 1, 12)
        _, vals = space.basis_on_cell(cid, u, v)
        if vals.size:
            min_val = min(min_val, float(vals.min()))

    field = SplineField(space, rng.standard_normal(space.dim))
    c1_jump = 0.0
    scale = max(abs(float(x)) for x in field.coefficients) or 1.0
    for (a, b, es, et) in _interior_edge_samples(mesh):
        da = field.eval_on_cell(a, es, et, DERIV_ORDERS[:3])
        db = field.eval_on_cell(b, es, et, DERIV_ORDERS[:3])
        c1_jump = max(c1_jump, float(np.max(np.abs(da - db))) / scale)

    data = {vid: rng.standard_normal(4) for vid in space.vertex_index}
    rt = field_from_vertex_data(space, data)
    rt_err = 0.0
    for vid in space.vertex_index:
        got = np.zeros(4)
        v = mesh.vertex(vid)
        for cid in mesh.vertex_cells(vid):
            for fid in space.functions_on_cell(cid):
                got += rt.coefficients[fid] * space.basis_data_at_vertex(fid, vid)
            break
        rt_err = max(rt_err, float(np.max(np.abs(got - data[vid]))))

    return {
        "dim": space.dim,
        "dim_expected": mesh.dimension(),
        "dim_ok": space.dim == mesh.dimension(),
        "max_partition_error": max_pu_err,
        "min_value": min_val,
        "c1_max_jump": c1_jump,
        "hermite_roundtrip_error": rt_err,
    }
