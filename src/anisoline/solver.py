"""Adaptive isogeometric Galerkin solver for the Poisson model problem.

The solution is sought as u_h = sum c_i (b_i o G^-1) with b_i the spline
basis over the parameter square and G the spline geometry map.  One
adaptive round assembles and solves the Galerkin system, evaluates the
per-cell residual indicator

    eta^2 = h^2 ||laplace(u_h) + f||^2_(cell) + h ||g_N - du_h/dn||^2_(Neumann edges)

with h the physical cell diameter; `adaptive_solve` then, by the driver
`reporting.run_adaptive`, marks the current-level cells above a
threshold, labels them from the directional curvatures of the discrete
solution, and refines with the anisotropic strategy.  The geometry is
carried to the refined space exactly, so the physical domain never changes.

Gauss points are interior to cells, so the indicator stays finite on a
cell whose closure holds a declared degenerate point of the geometry,
but it does not converge there: det J -> 0 at the point and the interior
residual is not integrable.  On the level-0 L-shape patch
(`lshape_benchmark(4)`) each of the two cells touching (1/2, 0) has
eta = 1.79, 5.44, 13.2, 28.3 and 58.1 at q = 5, 10, 20, 40 and 80, the
two cells touching (1/2, 1) grow from 0.061 to 0.467, and the other 12
cells stay at 0.3777 combined.  A split that moves Gauss points toward
such a point can therefore raise eta while the true error falls.

Each round evaluates the geometry at the Gauss points once, in one walk
over the active cells through one element kernel (`_cell_blocks`) built
on the evaluation kernel of `space`, whose block walk it shares.  The
kernel walks the active cells in blocks of `space._BLOCK` = 128, with the
cells' float bounds (rows of the mesh's `cell_bounds` table) and their
geometry patches (`SplineField.patches`, contracted once per field), and
evaluates patches at the q x q Gauss points with Bernstein tables built
once per walk.  From the geometry patches come the map, J, det J and
J^-1 at the points (the value and both first derivatives by one matmul
against three of the tables side by side), the parameter Hessian only
when the residual asks for the physical Laplacian, and the physical cell
diameter: a Bezier patch interpolates its corner ordinates, so the
corner images need no evaluation.  The Neumann edge pieces are cut by
lattice comparisons on the mesh's cell table and evaluated once per walk,
for all its cells, and each block gets its slice of them.  The estimator
reads the solution's patches and contracts them by einsums.  The
assembly never forms the basis functions' patches.  It integrates on the
16 Bernstein polynomials of each cell and maps the result through the
cell's extraction C (one scatter of the cell's corner blocks, as
`SplineSpace.extraction` makes it; rows are its functions in whole vertex
groups, padded to the block's widest cell), as in element-wise Bezier
extraction K = C K_B C^T (Borden, Scott, Evans and Hughes, 2011).  K_B
is one GEMM per block (`_bernstein_stiffness`), M (c, 3n) @ P (3n, 256),
a precomputed table of basis products contracted with pointwise geometry
factors (Antolin, Buffa, Calabro, Martinelli and Sangalli, 2015).  J^-1
takes the cell's 1 / width and 1 / height, so the local Bernstein
derivative tables D_s and D_t are shared by all cells: P holds their
products D_s (x) D_s, D_s (x) D_t + D_t (x) D_s and D_t (x) D_t at each
point (`_stiffness_products`, made once per `assemble` call from the
walk's grid tables), and M each point's weighted metric w |det J|
(J^-1 J^-T)_pq / (size_p size_q) for pq = ss, st, tt, with the cell's
width and height as sizes.  No per-point gradients of the 16 polynomials
are formed.  The loads are C times the Bernstein moments.  `assemble` gathers
the active cells' corner blocks, their piece index and vertex groups
once per call (`SplineSpace._gather`, `space._piece_index`,
`space._groups`); the block pattern (`_block_pattern`: the pairs of basis
vertices that share a cell) comes from those groups, and each block's
dense C from its slice of the entries.  Each 4 x 4 vertex block of K is
added into the data array of the pattern, and `assemble` returns the
block (BSR) matrix itself.

`adaptive_solve` hands each round's geometry to `assemble` as a
`_RoundGeometry`.  The assembly's walk keeps every block there: the
cells and their bounds, the map values, J^-1, the weights times |det J|,
the geometry patches, each cell's diameter and the Neumann edge pieces,
about 2.5 KB per cell at q = 5.  J and det J are dropped once the fold
and singularity checks have run.  `error_indicators` then walks these
blocks instead of evaluating the map again, and releases each block once
read, for the indicator and, when the problem knows its exact solution,
the L2 and H1 errors, which `adaptive_solve` reads off the indicator.
Nothing is kept across rounds, and every standalone call (`assemble`,
`error_indicators`, `exact_error_norms`, which runs the estimator's walk
without the residual) walks and evaluates by itself.

Both boundary parts cut their segments into pieces on cell edges by one
batched table (`_boundary_pieces`, `_EDGE_TABLE`).  Dirichlet pins are
structural: along a boundary edge the trace of the space is the Hermite
interpolant of the boundary vertices' data, so the functions that do not
vanish on a piece are the value and along-edge slope functions of its cell
edge's end vertices.  Inhomogeneous data is fitted by least squares at 8
points per piece, in one batch: the Bernstein values there, mapped by
the extraction of the pieces' cells.

Blocks bound the memory of a walk.  At 24 x 24 cells and q = 5 the
tracemalloc peak of `assemble` is 3.2 MiB with blocks of 128 cells (the
entries gathered for all cells at once included) and 7.1 MiB with
whole-mesh tables, 1.6 MiB against 5.5 MiB for `error_indicators` with
the exact error norms, and 1.2 MiB against 3.2 MiB for
`exact_error_norms`.  No stiffness triplets are made: the block
pattern's data takes 0.65 MiB there, where the triplets of an assembly
by functions took 2.3 MiB.  The kept blocks of a round add about 1.4 MiB.
Nothing copies or slices the stiffness matrix.
`impose_boundary_conditions` orders the unknowns for a narrow band
(`_band_order`: Cuthill-McKee level sets of the graph of the matrix's
vertex blocks, seeded from a side of the parameter square) and keeps the
block matrix with the order, and `solve_linear` fills LAPACK's band
storage straight from the blocks (`ConstrainedSystem.lower_band`) and
factors it in place by banded Cholesky: 1.8 MiB for the 240k band
entries at this size, where a CSR copy of the block matrix would take
1.0 MiB and its reduced slice 0.9 MiB.  One round of `adaptive_solve`
peaks at 4.8 MiB, and the five rounds of `lshape_benchmark(4)` at
6.2 MiB.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp
from numpy.linalg import LinAlgError
from numpy.polynomial.legendre import leggauss
from scipy.linalg import cho_solve_banded, cholesky_banded

from .bezier import CORNER_ORDINATES
from .fitting import label_by_curvature
from .geometry import Geometry
from .refine import RefinementRequest, refine
from .reporting import _check_count, run_adaptive
from .space import (
    DERIV_ORDERS, SplineField, _bernstein_tables, _blocks, _Cells, _eval_patches, _groups,
    _inverse_2x2, _piece_index, advance_level,
)
from .tmesh import _run_starts

__all__ = [
    "SolveConfig", "DiscreteSolution", "ErrorIndicator", "assemble",
    "impose_boundary_conditions", "solve_linear", "error_indicators",
    "label_by_solution", "exact_error_norms", "adaptive_solve",
]

# The boundary edges by code, the order of the lattice columns i0, i1, j0,
# j1 they lie on: name, outward parameter normal, the slots not vanishing
# along it (value 0, slope d_t = 2 on s-edges or d_s = 1 on t-edges) and a
# cell's end vertices on it, as indexes into a row of the cell table's `corners`.
_EDGE_TABLE = (
    ("s0", (-1.0, 0.0), (0, 2), (0, 2)),
    ("s1", (1.0, 0.0), (0, 2), (1, 3)),
    ("t0", (0.0, -1.0), (0, 1), (0, 1)),
    ("t1", (0.0, 1.0), (0, 1), (2, 3)),
)
_EDGE_NAMES = [row[0] for row in _EDGE_TABLE]
_EDGE_NORMAL, _EDGE_SLOTS, _EDGE_CORNERS = (np.array(col) for col in list(zip(*_EDGE_TABLE))[1:])

# the Dirichlet fit's sample points per boundary piece, ends included
_FIT_TICKS = np.linspace(0.0, 1.0, 8)


@dataclass
class SolveConfig:
    threshold: float = 1e-4          # mark when eta exceeds this
    delta: float = 2.0               # label 'V' above this curvature ratio, 'H' below 1/delta
    quadrature: int = 5
    max_levels: int = 8
    lin_tol: float = 1e-10

    def __post_init__(self):
        if not 0 <= self.threshold < math.inf:
            raise ValueError(f"threshold must be finite and nonnegative, got {self.threshold!r}")
        if not self.delta > 1:
            raise ValueError(f"delta (anisotropy threshold) must exceed 1, got {self.delta!r}")
        _check_count("max_levels", self.max_levels, 0)
        _check_count("quadrature", self.quadrature, 4, " for bicubic integrands")
        # a NaN or infinite tolerance would switch the residual check off
        if not 0 <= self.lin_tol < math.inf:
            raise ValueError(f"lin_tol must be finite and nonnegative, got {self.lin_tol!r}")


@dataclass
class DiscreteSolution:
    field: SplineField              # scalar coefficients over the parameter square
    geometry: object
    problem: object

    @property
    def space(self):
        return self.field.space


@dataclass
class ErrorIndicator:
    """Eta per cell and, when the problem knows its solution, the exact
    error norms; the cell sizes h stay in the walk (`_CellBlock.diameter`)."""
    eta: dict                        # cell id -> eta >= 0
    l2_error: float = None           # exact error norms, when u_exact is known
    h1_error: float = None

    @property
    def total(self):
        return float(np.sqrt(sum(e * e for e in self.eta.values())))


@lru_cache(maxsize=None)
def _gauss01(q):
    """The q Gauss points and weights on [0, 1], made once per q and
    read-only, as every walk shares them."""
    x, w = leggauss(q)
    x, w = (x + 1.0) / 2.0, w / 2.0
    x.flags.writeable = w.flags.writeable = False
    return x, w


class _Points:
    """n points in each of c cells, with the geometry map there.

    `tables` come from `space._bernstein_tables`, with one row of points
    shared by all cells or one row per cell.  `geo` holds the cells'
    geometry patches (c, 2, 4, 4).  Points made without `cells` are
    checked when a block `take`s its rows of them.
    """

    _ROWS = ("_width", "_height", "_geo", "xy", "J", "det", "Jinv")

    def __init__(self, tables, width, height, geo, cells=None):
        self._tables = tables
        self._width, self._height = width, height
        self._geo = geo
        # value, d/ds and d/dt by one matmul against the three tables side by side
        side = np.concatenate([tables[order] for order in DERIV_ORDERS[:3]], axis=-1)
        d = (geo.reshape(len(geo), 2, 16) @ side).reshape(len(geo), 2, 3, -1)
        self.xy = np.moveaxis(d[:, :, 0], 1, 2)                    # (c, n, 2)
        # J[..., i, j] = d x_i / d param_j
        self.J = np.moveaxis(np.stack([d[:, :, 1] / width[:, None, None],
                                       d[:, :, 2] / height[:, None, None]], axis=-1), 2, 1)
        self.det, self.Jinv = _inverse_2x2(self.J)
        if cells is not None:
            self._check(cells)

    def _check(self, cells):
        bad = np.nonzero(np.any(np.abs(self.det) < 1e-14, axis=1))[0]
        if bad.size:
            raise RuntimeError(
                f"singular geometry Jacobian at a quadrature point of cell {cells[bad[0]]}")

    def take(self, rows, cells):
        """The rows `rows` (a slice) of these points, one per cell of
        `cells`, checked, without evaluating the map again."""
        pts = object.__new__(_Points)
        pts._tables = {order: table[rows] for order, table in self._tables.items()}
        for name in self._ROWS:
            setattr(pts, name, getattr(self, name)[rows])
        pts._check(cells)
        return pts

    def eval(self, P, order):
        """d^(a+b)/ds^a dt^b of patches P (c, ..., 4, 4) -> (c, ..., n)."""
        return _eval_patches(P, self._tables, order, self._width, self._height)

    def moments(self, w):
        """The 16 Bernstein moments (c, 16), sum over points of B_a w, of
        weights w (c, n)."""
        return (self._tables[(0, 0)] @ w[..., None])[..., 0]

    @cached_property
    def H(self):
        """The geometry's parameter Hessians: H[..., a, :, :] of x_a."""
        ss, st, tt = (self.eval(self._geo, order) for order in DERIV_ORDERS[3:])
        return np.moveaxis(np.stack([np.stack([ss, st], axis=-1),
                                     np.stack([st, tt], axis=-1)], axis=-1), 2, 1)

    def physical(self, P, second=False):
        """Value, physical gradient (c, n, 2) and, with `second`, the
        physical Laplacian of scalar patches P (c, 4, 4)."""
        val = self.eval(P, (0, 0))
        grad_par = np.stack([self.eval(P, (1, 0)), self.eval(P, (0, 1))], axis=-1)
        grad = np.einsum("cnp,cnpx->cnx", grad_par, self.Jinv)
        if not second:
            return val, grad, None
        Hpar = np.stack([np.stack([self.eval(P, (2, 0)), self.eval(P, (1, 1))], axis=-1),
                         np.stack([self.eval(P, (1, 1)), self.eval(P, (0, 2))], axis=-1)],
                        axis=-1)
        # subtract the geometry curvature term, then pull back both indices
        rhs = Hpar - np.einsum("cnx,cnxab->cnab", grad, self.H)
        lap = np.einsum("cnap,cnab,cnbp->cn", self.Jinv, rhs, self.Jinv)
        return val, grad, lap


@dataclass
class _Edges:
    """The Neumann edge pieces of a walk or of a block, q Gauss points on
    each."""
    rows: np.ndarray                 # (p,) walk or block row of each piece's cell
    points: _Points
    arc_weights: np.ndarray          # (p, q) Gauss weight times arc length
    normal: np.ndarray               # (p, q, 2) outward unit normal

    def block(self, lo, cells):
        """The pieces of the block of walk rows lo .. lo + len(cells), on
        its own rows, or None."""
        a, b = np.searchsorted(self.rows, [lo, lo + len(cells)]).tolist()
        if a == b:
            return None
        rows = self.rows[a:b] - lo
        return _Edges(rows, self.points.take(slice(a, b), cells[rows]),
                      self.arc_weights[a:b], self.normal[a:b])


def _neumann_edges(space, geometry, cids, gauss, segments):
    """The pieces of the Neumann `segments` on the cells `cids` with the
    map at their Gauss points (x, w), by one evaluation, unchecked; None
    without pieces."""
    if not segments:
        return None
    k, e, a, b = _boundary_pieces(space.mesh, cids, segments)
    if not len(k):
        return None
    x, w = gauss
    cells = _Cells(space.mesh, np.asarray(cids, dtype=np.intp)[k])
    u, v = cells.local(*_piece_points(space.mesh, cells.cells, e, a, b, x), np.s_[:, None])
    pts = _Points(_bernstein_tables(u, v, DERIV_ORDERS[:3]), cells.width, cells.height,
                  geometry.field.patches[cells.cells])
    tangent = np.where((e < 2)[:, None, None], pts.J[..., 1], pts.J[..., 0])
    # n_phys ~ J^-T n_par
    normal = np.einsum("pqyx,py->pqx", pts.Jinv, _EDGE_NORMAL[e])
    normal /= np.linalg.norm(normal, axis=-1, keepdims=True)
    arc = w * (b - a)[:, None] * np.linalg.norm(tangent, axis=-1)
    return _Edges(k, pts, arc, normal)


class _CellBlock(_Cells):
    """Up to `space._BLOCK` active cells with the data at their q x q
    Gauss points and their Neumann `edges` (see `_cell_blocks`)."""

    def __init__(self, space, geometry, cids, grid, weights):
        super().__init__(space.mesh, cids)
        geo = geometry.field.patches[self.cells]                         # (c, 2, 4, 4)
        self.grid = _Points(grid, self.width, self.height, geo, self.cells)
        self.wdet = weights * (self.width * self.height)[:, None] * np.abs(self.grid.det)
        # a Bezier patch interpolates its corner ordinates
        corners = geo[:, :, [0, 0, 3, 3], [0, 3, 0, 3]]              # (c, 2, 4)
        gaps = corners[:, :, :, None] - corners[:, :, None, :]
        self.diameter = np.sqrt(np.max(np.sum(gaps ** 2, axis=1), axis=(1, 2)))
        self.edges = None

    def kept(self):
        """The block as a round keeps it for its estimator: without J and
        det J, whose checks have run."""
        for pts in (self.grid, self.edges and self.edges.points):
            if pts:
                pts.J = pts.det = None
        return self


class _RoundGeometry(Geometry):
    """The geometry map of one solve round.  The round's first walk
    (`assemble`) keeps each block's Gauss-point geometry here, and one
    later walk over the same space, q and Neumann part (`error_indicators`)
    reads the blocks back in order, releasing each once read, instead of
    evaluating the map again.  Every other walk is a plain one."""

    def __init__(self, geometry):
        super().__init__(geometry.field, geometry.degenerate_params)
        self.walk = None                 # (space, q, neumann) of the first walk
        self.blocks = None               # its kept blocks, until read back


def _cell_blocks(space, geometry, q, neumann=()):
    """The element kernel: the active cells of `space`, one block of the
    evaluation kernel at a time.

    Gauss points run u-major (point a*q + b sits at u = x_a, v = x_b);
    `neumann` lists the boundary segments whose edge pieces each block
    carries.  Raises RuntimeError naming the first cell with a singular
    Jacobian at one of its points, and ValueError at the first point whose
    det J has the sign opposite to the walk's first point: the map folds
    there.  A map may reverse orientation as a whole.

    With a `_RoundGeometry`, the round's first walk keeps its blocks, and
    a later walk of the same space, q and Neumann part yields them again,
    without evaluating the map.
    """
    walk = (space, q, tuple(neumann))
    if isinstance(geometry, _RoundGeometry):
        if geometry.walk is None:
            geometry.walk, kept = walk, []
            for blk in _walk(space, geometry, q, neumann):
                yield blk
                kept.append(blk.kept())
            geometry.blocks = deque(kept)
            return
        if geometry.blocks is not None and geometry.walk == walk:
            blocks, geometry.blocks = geometry.blocks, None
            while blocks:
                yield blocks.popleft()
            return
    yield from _walk(space, geometry, q, neumann)


def _walk(space, geometry, q, neumann):
    """The blocks of `_cell_blocks`, each evaluated and checked."""
    x, w = _gauss01(q)
    u, v = np.repeat(x, q), np.tile(x, q)
    grid = _bernstein_tables(u[None], v[None])
    weights = np.outer(w, w).ravel()
    active = space.mesh.active_cells()
    # the Neumann pieces of the whole walk, cut and evaluated once
    edges = _neumann_edges(space, geometry, active, (x, w), neumann)
    sign = 0.0
    for sl in _blocks(len(active)):
        blk = _CellBlock(space, geometry, active[sl], grid, weights)
        if edges is not None:
            blk.edges = edges.block(sl.start, blk.cells)
        det = blk.grid.det
        sign = sign or np.sign(det[0, 0])
        folded = det * sign < 0
        if folded.any():
            c, k = np.unravel_index(np.argmax(folded), det.shape)
            raise ValueError(
                f"geometry folds over cell {blk.cells[c]}: det J = {det[c, k]:.3g} at "
                f"({blk.s0[c] + blk.width[c] * u[k]:.6g}, {blk.t0[c] + blk.height[c] * v[k]:.6g})")
        yield blk


def _boundary_pieces(mesh, cids, segments):
    """The pieces, longer than 1e-14, of the segment list [(edge name, a,
    b)] on the domain-boundary edges of the cells `cids`, picked by lattice
    comparisons, as arrays (k, e, a, b): the edge of code e of cids[k],
    over [a, b].  Pieces run by cell, then edge code, then segment."""
    cids = np.asarray(cids, dtype=np.intp)
    ends = np.array([0, mesh.axes[0].end, 0, mesh.axes[1].end], dtype=np.int64)
    k, e = np.nonzero(mesh.cell_table().lattice[cids] == ends)
    s0, s1, t0, t1 = mesh.cell_bounds()[cids[k]].T
    # an s-edge spans [t0, t1], a t-edge [s0, s1]
    lo, hi = np.where(e < 2, t0, s0), np.where(e < 2, t1, s1)
    code = np.array([_EDGE_NAMES.index(name) for name, _, _ in segments], dtype=np.intp)
    a = np.maximum(lo[:, None], [sa for _, sa, _ in segments])
    b = np.minimum(hi[:, None], [sb for _, _, sb in segments])
    p, j = np.nonzero((e[:, None] == code) & (b > a + 1e-14))
    return k[p], e[p], a[p, j], b[p, j]


def _piece_points(mesh, cells, e, a, b, x):
    """The parameters (s, t) (p, n) at a + (b - a) x, x (n,) in [0, 1],
    along boundary pieces (e, a, b) of the cells `cells`."""
    par = a[:, None] + (b - a)[:, None] * x
    at = np.broadcast_to(mesh.cell_bounds()[cells, e][:, None], par.shape)
    on_s = (e < 2)[:, None]
    return np.where(on_s, at, par), np.where(on_s, par, at)


def _neumann_segments(problem):
    return problem.neumann if problem.g_neumann is not None else ()


def _at_points(fn, xy, *rest):
    """A problem callable at the points xy (c, n, 2), passed flattened."""
    out = np.asarray(fn(*(a.reshape(-1) for a in (xy[..., 0], xy[..., 1]) + rest)))
    return out.reshape(xy.shape[:2] + out.shape[1:])


def assemble(space, geometry, problem, q=5):
    """Stiffness matrix (BSR of 4 x 4 vertex blocks) and load vector of
    the Galerkin system.

    A_ij = integral grad(psi_i) . grad(psi_j) dx, F_i = integral f psi_i dx
    plus the Neumann boundary term, via q x q Gauss points per active cell
    (q points per Neumann cell edge), pulled back with the geometry map:
    per cell K = C K_B C^T and C m from the Bernstein stiffness K_B and
    moments m, added into a block pattern by 4 x 4 vertex blocks (see the
    module docstring).
    """
    n = space.dim
    # the active cells' entries, pieces and vertex groups, once per call
    active = np.asarray(space.mesh.active_cells(), dtype=np.intp)
    counts, (fids, codes, corner_blocks) = space._gather(active, (0, 1, 2))
    per, ids, piece = _piece_index(counts, fids)
    rows, place = _groups(active, per, ids)
    columns, indptr, pairs = _block_pattern(rows, len(space.vertices))
    groups, start = per // 4, np.append(0, np.cumsum(counts))
    # each entry's row among its cell's functions, in whole vertex groups
    fn_row = 4 * (place[piece // 4] % rows.shape[1]) + fids % 4
    # a spare block and four spare functions take the padding's terms
    data = np.zeros(16 * (len(columns) + 1))
    F = np.zeros(n + 4)
    slot = np.arange(4)
    entry = 4 * slot[:, None, None] + slot          # of a block, in K's (s1, g2, s2) axes
    at, products = 0, None
    for blk in _cell_blocks(space, geometry, q, _neumann_segments(problem)):
        c = len(blk.cells)
        G = groups[at:at + c].max()
        # the block's extraction (`SplineSpace.extraction`) from its entries
        e0, e1 = start[at], start[at + c]
        row = 4 * G * np.repeat(np.arange(c), counts[at:at + c]) + fn_row[e0:e1]
        C = np.zeros((c, 4 * G, 16))
        C.reshape(-1)[16 * row[:, None] + CORNER_ORDINATES[codes[e0:e1]]] = \
            corner_blocks[e0:e1].reshape(-1, 4)
        g = blk.grid
        if products is None:             # the walk's grid tables are shared by its blocks
            products = _stiffness_products(g._tables)
        K = C @ _bernstein_stiffness(blk, products) @ C.transpose(0, 2, 1)
        np.add.at(data, (16 * pairs[at:at + c, :G, None, :G, None] + entry).ravel(), K.ravel())
        cell_rows = rows[at:at + c, :G]
        at += c
        cell_fids = (np.where(cell_rows < 0, n, 4 * cell_rows)[:, :, None] + slot).reshape(c, -1)
        load = C @ g.moments(_at_points(problem.f, g.xy) * blk.wdet)[..., None]
        np.add.at(F, cell_fids.ravel(), load.ravel())
        e = blk.edges
        if e is not None:
            gn = _at_points(problem.g_neumann, e.points.xy, e.normal[..., 0], e.normal[..., 1])
            load = C[e.rows] @ e.points.moments(gn * e.arc_weights)[..., None]
            np.add.at(F, cell_fids[e.rows].ravel(), load.ravel())
    A = sp.bsr_matrix((data[:-16].reshape(-1, 4, 4), columns, indptr), shape=(n, n))
    return A, F[:n]


def _block_pattern(rows, m):
    """The pairs of the m basis vertices that share an active cell, as a
    BSR pattern from the cells' vertex groups `rows` (cells, G) of
    `space._groups`: (block columns (b,), row pointer (m + 1,), and place
    (cells, G, G), the block of the pair of each cell's groups g1 and g2,
    or b where either is padding)."""
    pair = (rows >= 0)[:, :, None] & (rows >= 0)[:, None, :]
    keys = (rows[:, :, None] * m + rows[:, None, :])[pair]
    order = keys.argsort()
    keys = keys[order]
    first = _run_starts(keys)
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(first) - 1
    keys = keys[first]
    place = np.full(pair.shape, len(keys))
    place[pair] = inverse
    return keys % m, np.append(0, np.cumsum(np.bincount(keys // m, minlength=m))), place


def _stiffness_products(tables):
    """The products P (3n, 256) of the local Bernstein derivative tables
    D_s, D_t (16, n) shared by all cells (`tables` of one row of points):
    row 3k + pq holds, at point k, D_s (x) D_s, D_s (x) D_t + D_t (x) D_s
    and D_t (x) D_t for pq = ss, st, tt, flattened over (a, b)."""
    ds, dt = tables[(1, 0)][0].T[:, :, None], tables[(0, 1)][0].T[:, :, None]     # (n, 16, 1)
    st = ds * dt.transpose(0, 2, 1)
    return np.stack([ds * ds.transpose(0, 2, 1), st + st.transpose(0, 2, 1),
                     dt * dt.transpose(0, 2, 1)], axis=1).reshape(-1, 256)


def _bernstein_stiffness(blk, products):
    """The cells' Bernstein stiffness matrices K_B (c, 16, 16) of a block
    by one GEMM, M (c, 3n) @ P (3n, 256): M holds each point's weighted
    metric w |det J| (J^-1 J^-T)_pq / (size_p size_q) for pq = ss, st, tt,
    with the cells' width and height as the sizes, and P the
    `_stiffness_products`."""
    inv = blk.grid.Jinv.reshape(len(blk.cells), -1, 4)     # (J^-1)_px at 2 p + x
    # row p of J^-1 dotted with row q; a sum over an axis of length 2 is slower
    metric = inv[..., [0, 0, 2]] * inv[..., [0, 2, 2]] + inv[..., [1, 1, 3]] * inv[..., [1, 3, 3]]
    w, h = blk.width[:, None], blk.height[:, None]
    size = np.concatenate([w * w, w * h, h * h], axis=1)[:, None, :]     # (c, 1, 3)
    M = metric * blk.wdet[..., None] / size
    return (M.reshape(len(M), -1) @ products).reshape(-1, 16, 16)


class ConstrainedSystem:
    """Reduced SPD system plus the data to re-embed the solution.

    `stiffness` is the full system over the n functions, a BSR matrix (of
    1 x 1 blocks if given in another sparse format), and `free` holds the
    function id of each unknown in the reduced system's order, which
    `impose_boundary_conditions` picks for a narrow band; `embed` takes
    any order.  `matrix`, the reduced sparse matrix (CSR) in that order,
    is built only when read: the solve reads `lower_band` instead.
    `solve_linear` records the band's lower `bandwidth` and the relative
    `residual` it met."""

    def __init__(self, stiffness, rhs, free, fixed_values, n):
        # another format's stored entries become 1 x 1 blocks
        self.stiffness = stiffness if stiffness.format == "bsr" else \
            stiffness.tobsr(blocksize=(1, 1))
        if self.stiffness.shape != (n, n):
            raise ValueError(f"system matrix of shape {self.stiffness.shape} for {n} functions")
        self.rhs = rhs
        self.free = free
        self.fixed_values = fixed_values
        self.n = n
        self.bandwidth = self.residual = None

    @cached_property
    def matrix(self):
        return self.stiffness.tocsr()[self.free][:, self.free]

    def embed(self, reduced):
        full = np.array(self.fixed_values)
        full[self.free] = reduced
        return full

    def lower_band(self):
        """The reduced matrix's lower band in LAPACK's band storage:
        ab[i - j, j] = matrix[i, j] for 0 <= i - j <= w, the lower
        bandwidth, in Fortran order.  It is filled straight from the
        stiffness blocks that reach the band, through each function's
        position among the unknowns (-1 where pinned), `space._BLOCK` block
        rows at a time, so no index array spans the matrix's entries."""
        A = self.stiffness
        r = A.blocksize[0]
        m = A.shape[0] // r
        pos = np.full(self.n, -1)
        pos[self.free] = np.arange(len(self.free))
        at = pos.reshape(m, r)
        last = at.max(axis=1)
        first = np.where(at >= 0, at, self.n).min(axis=1)
        # a block holds every pair of its block row's and column's
        # functions, so it reaches the band where its row's last unknown
        # lies at or below its column's first one
        brow = np.repeat(np.arange(m), np.diff(A.indptr))
        gap = last[brow] - first[A.indices]
        lower = np.flatnonzero(gap >= 0)
        w = int(gap[lower].max(initial=0))
        size = (w + 1) * len(self.free)
        flat = np.zeros(size + 1)       # the last slot takes pinned and upper entries
        # entry a r + b of a block lies in its row a and column b
        row_of, col_of = np.repeat(at, r, axis=1), np.tile(at, r)
        cuts = np.searchsorted(lower, A.indptr[[sl.start for sl in _blocks(m)] + [m]]).tolist()
        for lo, hi in zip(cuts, cuts[1:]):
            blocks = lower[lo:hi]
            i, j = row_of[brow[blocks]], col_of[A.indices[blocks]]
            flat[np.where((i >= j) & (j >= 0), i + w * j, size)] = \
                A.data[blocks].reshape(len(blocks), r * r)
        return flat[:size].reshape((w + 1, -1), order="F")


def _constrained_functions(space, problem):
    """The sorted ids of the functions not vanishing on the Dirichlet part,
    and its pieces (cells, e, a, b) on the active cells: by the structural
    rule of the module docstring, the `_EDGE_SLOTS` functions of the end
    vertices of each piece's cell edge."""
    mesh = space.mesh
    active = np.asarray(mesh.active_cells(), dtype=np.intp)
    k, e, a, b = _boundary_pieces(mesh, active, problem.dirichlet)
    cells = active[k]
    vids = mesh.cell_table().corners[cells[:, None], _EDGE_CORNERS[e]]     # (p, 2)
    rows = np.array([space.vertex_row[vid] for vid in vids.ravel().tolist()], dtype=np.intp)
    pinned = np.sort(4 * rows.reshape(vids.shape)[:, :, None] + _EDGE_SLOTS[e][:, None, :],
                     axis=None)
    return pinned[_run_starts(pinned)], (cells, e, a, b)


def impose_boundary_conditions(system, space, geometry, problem):
    """Constrain the assembled system by the problem's Dirichlet data.

    Homogeneous data pins the non-vanishing boundary coefficients to
    zero; inhomogeneous data sets them from a least-squares fit of g_D
    along the Dirichlet part.  Rows/columns are eliminated symmetrically,
    without slicing the stiffness (see `ConstrainedSystem`): the lift of
    the pinned values is one matvec of it.  The unknowns are the free
    functions in the order of `_band_order` on the graph of its 4 x 4
    vertex blocks, vertex by vertex.
    """
    A, F = system
    n = space.dim
    pinned, (cells, e, a, b) = _constrained_functions(space, problem)
    fixed = np.zeros(n)
    if problem.g_dirichlet is not None and len(pinned):
        # all fit points in one batch: the Bernstein values there, mapped
        # by the pieces' cells' extraction, give the pinned functions'
        # columns, `eval_located` the map
        s, t = _piece_points(space.mesh, cells, e, a, b, _FIT_TICKS)
        blk = _Cells(space.mesh, cells)
        rows, C = space.extraction(cells)
        u, v = blk.local(s, t, np.s_[:, None])
        values = C.reshape(len(cells), -1, 16) @ \
            _bernstein_tables(u, v, ((0, 0),))[(0, 0)]                  # (p, F, ticks)
        fids = (4 * rows[:, :, None] + np.arange(4)).reshape(len(cells), -1)
        col = np.searchsorted(pinned, fids).clip(max=len(pinned) - 1)
        p, f = np.nonzero(np.repeat(rows >= 0, 4, axis=1) & (pinned[col] == fids))
        design = np.zeros(s.shape + (len(pinned),))
        design[p, :, col[p, f]] = values[p, f]
        xy = geometry.field.eval_located(np.repeat(cells, s.shape[1]), s, t)[0]
        fixed[pinned] = np.linalg.lstsq(design.reshape(s.size, -1),
                                        problem.g_dirichlet(xy[:, 0], xy[:, 1]), rcond=None)[0]
    is_free = np.ones(n, dtype=bool)
    is_free[pinned] = False
    # the vertices' four functions in the band order, less the pinned ones
    blocks = sp.bsr_matrix(A, blocksize=(4, 4))
    blocks.sort_indices()
    graph = np.repeat(np.arange(len(space.vertices)), np.diff(blocks.indptr)), blocks.indices
    fids = (4 * _band_order(space, *graph)[:, None] + np.arange(4)).ravel()
    free = fids[is_free[fids]]
    if len(free) == 0:
        raise ValueError("all degrees of freedom are constrained")
    return ConstrainedSystem(A, F[free] - (A @ fixed)[free], free, fixed, n)


def _band_order(space, rows, cols):
    """The basis vertices in an order that gives the stiffness matrix a
    narrow band: Cuthill-McKee level sets of the graph of the vertices
    that share a cell, of edges (rows, cols) by row, seeded from a whole
    side of the parameter square.  Of the orders seeded from the vertices
    at s = 0 (by t) and at t = 0 (by s), the one of smaller vertex
    bandwidth; on a square a side seed gives half the bandwidth of a
    corner seed, whose levels run along diagonals."""
    m = len(space.vertices)
    degree = np.bincount(rows, minlength=m)
    # the neighbour table (m, most neighbours), padded with m
    table = np.full((m, degree.max(initial=0)), m)
    table[rows, np.arange(len(rows)) - (np.cumsum(degree) - degree)[rows]] = cols
    ij = space.mesh.vertex_table()[space.vertices]
    seeds = []
    for axis in (0, 1):
        side = np.flatnonzero(ij[:, axis] == 0)
        seeds.append(side[np.argsort(ij[side, 1 - axis], kind="stable")])

    def width(order):
        rank = np.empty(len(order), dtype=np.intp)
        rank[order] = np.arange(len(order))
        return np.max(np.abs(rank[rows] - rank[cols]), initial=0)

    return min(_level_orders(table, seeds), key=width)


def _level_orders(table, seeds):
    """The Cuthill-McKee level sets of the graph of the neighbour `table`
    (padded with m) from each list of seed vertices: the vertices level by
    level, each level in discovery order, a vertex after the first of its
    neighbours in the level before.  One frontier walk takes all seeds at
    once, over one copy of the graph per seed.  Vertices that no seed
    reaches (a graph in pieces) come last, by id."""
    m, k = len(table), len(seeds)
    graph = np.concatenate([np.where(table < m, table + c * m, k * m) for c in range(k)])
    front = np.concatenate([seed + c * m for c, seed in enumerate(seeds)])
    seen = np.zeros(k * m + 1, dtype=bool)
    seen[k * m] = True
    seen[front] = True
    # each vertex's first place in the list of its step's reached vertices:
    # a vertex is reached in one step only, so no step sees another's places
    first = np.full(k * m + 1, np.iinfo(np.intp).max)
    levels = [front]
    while front.size:
        reached = graph[front].ravel()
        reached = reached[~seen[reached]]
        at = np.arange(len(reached))
        np.minimum.at(first, reached, at)
        front = reached[first[reached] == at]
        seen[front] = True
        levels.append(front)
    levels.append(np.flatnonzero(~seen))
    order = np.concatenate(levels)
    copy = order // m
    return [order[copy == c] - c * m for c in range(k)]


def solve_linear(system, tol=1e-10):
    """Solve the constrained SPD system by banded Cholesky factorization;
    returns the full coefficient vector and records the system's
    `bandwidth` and relative `residual`.  The relative residual must meet
    `tol`.  A system that is not positive definite, a singular one among
    them, raises RuntimeError naming the leading minor where the factor
    fails.

    LAPACK's `pbtrf` factors the system's lower band, filled from the
    stiffness blocks in the order of the unknowns
    (`ConstrainedSystem.lower_band`), in place, and `pbtrs` solves with
    the factor; the residual takes one matvec of the stiffness.  On the
    order of
    `impose_boundary_conditions` the band of the last `lshape_benchmark(4)`
    level holds 222k entries and that of the 24 x 24 `square_sin` system
    240k, where the factors of SuperLU in symmetric mode held 262k and
    317k nonzeros.
    """
    b = system.rhs
    n = len(b)
    ab = system.lower_band()
    try:
        factor = cholesky_banded(ab, overwrite_ab=True, lower=True, check_finite=False)
    except LinAlgError as err:
        raise RuntimeError(f"singular system of {n} unknowns ({err})") from None
    x = cho_solve_banded((factor, True), b, check_finite=False)
    # the residual by one matvec of the stiffness, zero at the pinned functions
    full = np.zeros(system.n)
    full[system.free] = x
    bn = float(np.linalg.norm(b))
    res = float(np.linalg.norm((system.stiffness @ full)[system.free] - b))
    system.bandwidth, system.residual = len(ab) - 1, res / bn if bn > 0 else res
    if system.residual > tol:
        raise RuntimeError(f"linear solve residual {system.residual:.2e} exceeds {tol:.2e}")
    if not np.all(np.isfinite(x)):
        raise RuntimeError("linear solve produced non-finite values")
    return system.embed(x)


def error_indicators(u_h, problem=None, q=5):
    """Residual indicator per active cell of the discrete solution and,
    when the problem has `u_exact`, the exact error norms of
    `exact_error_norms`, from the same walk over the cells.

    Finite on every cell because the Gauss points are interior, but not
    convergent in `q` on cells whose closure holds a degenerate point of
    the geometry (see the module docstring for the measured growth).
    """
    problem = problem or u_h.problem
    return _estimate(u_h, problem, q, problem.u_exact, problem.grad_exact, residual=True)


def _estimate(u_h, problem, q, u_exact, grad_exact, residual):
    """One walk over the active cells: with `residual`, eta per cell;
    with `u_exact`, the L2 and H1 seminorm errors (H1 left 0 without
    `grad_exact`)."""
    eta = {}
    l2 = h1 = 0.0
    neumann = _neumann_segments(problem) if residual else ()
    for blk in _cell_blocks(u_h.space, u_h.geometry, q, neumann):
        P = u_h.field.patches[blk.cells]
        vals, grad, lap = blk.grid.physical(P, second=residual)
        if u_exact is not None:
            du = vals - _at_points(u_exact, blk.grid.xy)
            l2 += float(np.sum(du ** 2 * blk.wdet))
            if grad_exact is not None:
                dg = grad - _at_points(grad_exact, blk.grid.xy)
                h1 += float(np.sum(np.sum(dg ** 2, axis=-1) * blk.wdet))
        if not residual:
            continue
        resid = lap + _at_points(problem.f, blk.grid.xy)
        interior = np.sum(resid ** 2 * blk.wdet, axis=1)
        boundary = np.zeros(len(blk.cells))
        e = blk.edges
        if e is not None:
            _, egrad, _ = e.points.physical(P[e.rows])
            g = _at_points(problem.g_neumann, e.points.xy,
                           e.normal[..., 0], e.normal[..., 1])
            mismatch = g - np.sum(egrad * e.normal, axis=-1)
            np.add.at(boundary, e.rows, np.sum(mismatch ** 2 * e.arc_weights, axis=1))
        h = blk.diameter
        eta.update(zip(blk.cells.tolist(), np.sqrt(h * h * interior + h * boundary).tolist()))
    if u_exact is None:
        return ErrorIndicator(eta)
    return ErrorIndicator(eta, float(np.sqrt(l2)), float(np.sqrt(h1)))


def label_by_solution(u_h, cells, delta=2.0):
    """Anisotropy labels {cell: 'H' | 'V' | 'C'} of marked cells from the
    parametric graph curvatures of the discrete solution
    (`label_by_curvature` on its scalar field).

    The ratio kappa_s / kappa_t is not weighted by the cell widths, so a
    cell already halved in s is labelled 'V' again as long as the
    solution bends more along s per unit parameter.  On the L-shape patch
    this splits the two cells at (1/2, 0) in s down to width 1/32 while
    their t-extent stays 1/4.  It is the label hook of `adaptive_solve` on
    `reporting.run_adaptive`, as the same ratio is `fit_surface`'s.
    """
    return label_by_curvature(u_h.field, cells, delta)


def exact_error_norms(u_h, u_exact=None, grad_exact=None, q=5):
    """(L2 error, H1 seminorm error) against a known solution, by the
    walk of `error_indicators` without the residual."""
    problem = u_h.problem
    u_exact = u_exact or problem.u_exact
    if u_exact is None:
        raise ValueError(f"problem {problem.name!r} has no exact solution to measure against")
    ind = _estimate(u_h, problem, q, u_exact, grad_exact or problem.grad_exact,
                    residual=False)
    return ind.l2_error, ind.h1_error


def _solve_round(space, geometry, problem, config):
    """The round's solution, and the `LevelRecord` fields of its linear
    solve."""
    system = impose_boundary_conditions(assemble(space, geometry, problem, config.quadrature),
                                        space, geometry, problem)
    coeffs = solve_linear(system, config.lin_tol)
    return (DiscreteSolution(SplineField(space, coeffs), geometry, problem),
            {"solve_residual": system.residual, "bandwidth": system.bandwidth})


def adaptive_solve(problem, geometry, config=None, strategy="modified"):
    """Solve -> estimate & mark -> refine by `reporting.run_adaptive`,
    until nothing is marked: marking uses the absolute threshold on the
    current-level cells only.  Returns the last solution and the report.
    """
    config = config or SolveConfig()
    solution = None

    def estimate(space, level):
        nonlocal solution
        t0 = time.perf_counter()
        solution, fields = _solve_round(space, _RoundGeometry(geometry), problem, config)
        t1 = time.perf_counter()
        ind = error_indicators(solution, problem, config.quadrature)
        # the estimator has read the round's kept blocks; the solution
        # carries the plain map
        solution.geometry = geometry
        fields.update(eta_total=ind.total, l2_error=ind.l2_error, h1_error=ind.h1_error,
                      seconds={"solve": t1 - t0, "estimate": time.perf_counter() - t1})
        return fields, ind.eta, config.threshold, None

    def advance(space, labels):
        nonlocal geometry
        _, rrep = refine(space.mesh, RefinementRequest(labels))
        space = advance_level(space, rrep)
        geometry = geometry.advance(space)
        return space, rrep

    report = run_adaptive(
        geometry.space, strategy, config.max_levels, estimate,
        lambda marked: label_by_solution(solution, marked, config.delta),
        advance)
    return solution, report
