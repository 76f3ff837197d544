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
kernel walks the active cells in blocks of `space._BLOCK` = 64, with the
cells' float bounds (rows of the mesh's `cell_bounds` table) and their
geometry patches (`SplineField.patches`, contracted once per field), and
evaluates patches at the q x q Gauss points with Bernstein tables built
once per walk.  From the geometry patches come the map, J, det J and
J^-1 at the points, the parameter Hessian only when the residual asks
for the physical Laplacian, and the physical cell diameter: a Bezier
patch interpolates its corner ordinates, so the corner images need no
evaluation.  The cells with Neumann edge pieces are picked by lattice
comparisons on the mesh's cell table.  The estimator reads the
solution's patches and contracts them by einsums.  The assembly never
forms the basis functions' patches.  It integrates on the 16 Bernstein
polynomials of each cell and maps the result through the cell's
extraction C (`SplineSpace.extraction`, one scatter of the cell's corner
blocks; rows are its functions in whole vertex groups, padded to the
block's widest cell), as in element-wise Bezier extraction
K = C K_B C^T (Borden, Scott, Evans and Hughes, 2011).  J^-1 takes the
cell's 1 / width and 1 / height, so the Bernstein derivative tables are
shared by all cells, and `_local_stiffness` forms K_B by one batched
matmul over the flattened (point, component) axis, which runs in BLAS.
The loads are C times the Bernstein moments.  Each 4 x 4 vertex block of
K is added into the data array of a block pattern made once per call
(`_block_pattern`: the pairs of basis vertices that share a cell), and
the block matrix is converted to CSR once.

`adaptive_solve` hands each round's geometry to `assemble` as a
`_RoundGeometry`.  The assembly's walk keeps every block there: the
cells and their bounds, the map values, J^-1, the weights times |det J|,
the geometry patches, each cell's diameter and the Neumann edge pieces,
about 1.8 KB per cell at q = 5.  J and det J are dropped once the fold
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
tracemalloc peak of `assemble` is 2.3 MiB with blocks of 64 cells and
11.6 MiB with whole-mesh tables, 0.9 MiB against 5.1 MiB for
`error_indicators` with the exact error norms, and 0.6 MiB against
2.7 MiB for `exact_error_norms`.  No stiffness triplets are made: the
block pattern's data takes 0.65 MiB there, where the triplets of an
assembly by functions took 2.3 MiB.  The kept blocks of a round add
about 1 MiB: one round of `adaptive_solve` peaks at 4.1 MiB, and the
five rounds of `lshape_benchmark(4)` at 5.7 MiB.  `_solve_round` holds
no name on the full system, so the full stiffness matrix is released
before SuperLU factors the reduced one, which
`impose_boundary_conditions` hands over in CSC.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.polynomial.legendre import leggauss

from .fitting import label_by_curvature
from .geometry import Geometry
from .refine import RefinementRequest, refine
from .reporting import _check_count, run_adaptive
from .space import (
    DERIV_ORDERS, SplineField, _bernstein_tables, _blocks, _Cells, _eval_patches,
    _inverse_2x2, advance_level,
)

__all__ = [
    "SolveConfig", "DiscreteSolution", "ErrorIndicator", "assemble",
    "impose_boundary_conditions", "solve_linear", "error_indicators",
    "label_by_solution", "exact_error_norms", "adaptive_solve",
]

# The boundary edges by code, the order of the lattice columns i0, i1, j0,
# j1 they lie on: name, outward parameter normal, the slots not vanishing
# along it (value 0, slope d_t = 2 on s-edges or d_s = 1 on t-edges) and a
# cell's end vertices on it, as indexes into `TMesh.corner_vertices`.
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


def _gauss01(q):
    x, w = leggauss(q)
    return (x + 1.0) / 2.0, w / 2.0


class _Points:
    """n points in each of c cells, with the geometry map there.

    `tables` come from `space._bernstein_tables`, with one row of points
    shared by all cells or one row per cell.  `geo` holds the cells'
    geometry patches (c, 2, 4, 4).
    """

    def __init__(self, tables, width, height, geo, cells):
        self._tables = tables
        self._width, self._height = width, height
        self._geo = geo
        d = [self.eval(geo, order) for order in DERIV_ORDERS[:3]]  # each (c, 2, n)
        self.xy = np.moveaxis(d[0], 1, 2)                         # (c, n, 2)
        # J[..., i, j] = d x_i / d param_j
        self.J = np.moveaxis(np.stack([d[1], d[2]], axis=-1), 2, 1)
        self.det, self.Jinv = _inverse_2x2(self.J)
        bad = np.nonzero(np.any(np.abs(self.det) < 1e-14, axis=1))[0]
        if bad.size:
            raise RuntimeError(
                f"singular geometry Jacobian at a quadrature point of cell {cells[bad[0]]}")

    def eval(self, P, order):
        """d^(a+b)/ds^a dt^b of patches P (c, ..., 4, 4) -> (c, ..., n)."""
        return _eval_patches(P, self._tables, order, self._width, self._height)

    def moments(self, w):
        """The 16 Bernstein moments (c, 16), sum over points of B_a w, of
        weights w (c, n)."""
        return (self._tables[(0, 0)] @ w[..., None])[..., 0]

    def gradients(self):
        """The physical gradients (c, n, 2, 16) of the 16 Bernstein
        polynomials: J^-1 takes the cells' 1 / width and 1 / height, so the
        local derivative tables are shared, and one broadcast matmul
        (c, n, 2, 2) @ (n, 2, 16) maps them."""
        local = np.array([self._tables[(1, 0)], self._tables[(0, 1)]])       # (2, ., 16, n)
        size = np.array([self._width, self._height]).T[:, None, :, None]
        return (self.Jinv / size).swapaxes(-1, -2) @ \
            np.ascontiguousarray(local.transpose(1, 3, 0, 2))

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
    """The Neumann edge pieces of a block, q Gauss points on each."""
    rows: np.ndarray                 # (p,) block row of each piece's cell
    points: _Points
    arc_weights: np.ndarray          # (p, q) Gauss weight times arc length
    normal: np.ndarray               # (p, q, 2) outward unit normal


class _CellBlock(_Cells):
    """Up to `space._BLOCK` active cells with the data at their q x q
    Gauss points (see `_cell_blocks`)."""

    def __init__(self, space, geometry, cids, grid, weights, gauss, neumann):
        super().__init__(space.mesh, cids)
        geo = geometry.field.patches[self.cells]                         # (c, 2, 4, 4)
        self.grid = _Points(grid, self.width, self.height, geo, self.cells)
        self.wdet = weights * (self.width * self.height)[:, None] * np.abs(self.grid.det)
        # a Bezier patch interpolates its corner ordinates
        corners = geo[:, :, [0, 0, 3, 3], [0, 3, 0, 3]]              # (c, 2, 4)
        gaps = corners[:, :, :, None] - corners[:, :, None, :]
        self.diameter = np.sqrt(np.max(np.sum(gaps ** 2, axis=1), axis=(1, 2)))

        self.edges = None
        rows, e, a, b = _boundary_pieces(space.mesh, self.cells, neumann)
        if not len(rows):
            return
        x, w = gauss
        s, t = _piece_points(space.mesh, self.cells[rows], e, a, b, x)
        u, v = self.local(s, t, np.s_[rows, None])
        pts = _Points(_bernstein_tables(u, v, DERIV_ORDERS[:3]), self.width[rows],
                      self.height[rows], geo[rows], self.cells[rows])
        tangent = np.where((e < 2)[:, None, None], pts.J[..., 1], pts.J[..., 0])
        # n_phys ~ J^-T n_par
        normal = np.einsum("pqyx,py->pqx", pts.Jinv, _EDGE_NORMAL[e])
        normal /= np.linalg.norm(normal, axis=-1, keepdims=True)
        arc = w * (b - a)[:, None] * np.linalg.norm(tangent, axis=-1)
        self.edges = _Edges(rows, pts, arc, normal)

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
    sign = 0.0
    for sl in _blocks(len(active)):
        blk = _CellBlock(space, geometry, active[sl], grid, weights, (x, w), neumann)
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
    """Stiffness matrix and load vector of the Galerkin system.

    A_ij = integral grad(psi_i) . grad(psi_j) dx, F_i = integral f psi_i dx
    plus the Neumann boundary term, via q x q Gauss points per active cell
    (q points per Neumann cell edge), pulled back with the geometry map:
    per cell K = C K_B C^T and C m from the Bernstein stiffness K_B and
    moments m, added into a block pattern by 4 x 4 vertex blocks (see the
    module docstring).
    """
    n = space.dim
    columns, indptr, place = _block_pattern(space)
    # a spare block and four spare functions take the padding's terms
    data = np.zeros(16 * (len(columns) + 1))
    F = np.zeros(n + 4)
    slot = np.arange(4)
    entry = 4 * slot[:, None, None] + slot          # of a block, in K's (s1, g2, s2) axes
    at = 0
    for blk in _cell_blocks(space, geometry, q, _neumann_segments(problem)):
        rows, C = space.extraction(blk.cells)
        c, G = rows.shape
        C = C.reshape(c, 4 * G, 16)
        g = blk.grid
        K = C @ _local_stiffness(g.gradients(), blk.wdet) @ C.transpose(0, 2, 1)
        np.add.at(data, (16 * place[at:at + c, :G, None, :G, None] + entry).ravel(), K.ravel())
        at += c
        fids = (np.where(rows < 0, n, 4 * rows)[:, :, None] + slot).reshape(c, -1)
        load = C @ g.moments(_at_points(problem.f, g.xy) * blk.wdet)[..., None]
        np.add.at(F, fids.ravel(), load.ravel())
        e = blk.edges
        if e is not None:
            gn = _at_points(problem.g_neumann, e.points.xy, e.normal[..., 0], e.normal[..., 1])
            load = C[e.rows] @ e.points.moments(gn * e.arc_weights)[..., None]
            np.add.at(F, fids[e.rows].ravel(), load.ravel())
    A = sp.bsr_matrix((data[:-16].reshape(-1, 4, 4), columns, indptr), shape=(n, n))
    return A.tocsr(), F[:n]


def _block_pattern(space):
    """The pairs of basis vertices that share an active cell, as a BSR
    pattern: (block columns (b,), row pointer (m + 1,) over the m basis
    vertices, and place (cells, G, G), the block of the pair of each active
    cell's groups g1 and g2, in the order of `SplineSpace.extraction`, or
    b where either is padding)."""
    rows = space.vertex_groups(space.mesh.active_cells())
    m = len(space.vertices)
    pair = (rows >= 0)[:, :, None] & (rows >= 0)[:, None, :]
    keys = (rows[:, :, None] * m + rows[:, None, :])[pair]
    order = keys.argsort()
    keys = keys[order]
    first = np.append(True, keys[1:] != keys[:-1])
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(first) - 1
    keys = keys[first]
    place = np.full(pair.shape, len(keys))
    place[pair] = inverse
    return keys % m, np.append(0, np.cumsum(np.bincount(keys // m, minlength=m))), place


def _local_stiffness(gx, wdet):
    """The cells' stiffness matrices loc[c, a, b] = sum over points n of
    gx[c, n, :, a] . gx[c, n, :, b] wdet[c, n], as one batched matmul over
    the flattened (point, component) axis."""
    G = gx.reshape(len(gx), -1, gx.shape[-1])
    return G.transpose(0, 2, 1) @ (gx * wdet[:, :, None, None]).reshape(G.shape)


class ConstrainedSystem:
    """Reduced SPD system plus the data to re-embed the solution."""

    def __init__(self, matrix, rhs, free, fixed_values, n):
        self.matrix = matrix
        self.rhs = rhs
        self.free = free
        self.fixed_values = fixed_values
        self.n = n

    def embed(self, reduced):
        full = np.array(self.fixed_values)
        full[self.free] = reduced
        return full


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
    pinned = 4 * rows.reshape(vids.shape)[:, :, None] + _EDGE_SLOTS[e][:, None, :]
    return np.unique(pinned), (cells, e, a, b)


def impose_boundary_conditions(system, space, geometry, problem):
    """Constrain the assembled system by the problem's Dirichlet data.

    Homogeneous data pins the non-vanishing boundary coefficients to
    zero; inhomogeneous data sets them from a least-squares fit of g_D
    along the Dirichlet part.  Rows/columns are eliminated symmetrically.
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
    free = np.flatnonzero(is_free)
    if len(free) == 0:
        raise ValueError("all degrees of freedom are constrained")
    Af = A[free]
    Ff = F[free] - Af @ fixed
    # the row slice goes before the copy into CSC, the format SuperLU factors
    Af = Af[:, free]
    return ConstrainedSystem(Af.tocsc(), Ff, free, fixed, n)


def solve_linear(system, tol=1e-10):
    """Solve the constrained SPD system by sparse LU factorization; returns
    the full coefficient vector.  A singular system raises RuntimeError;
    the relative residual must meet `tol`.

    SuperLU runs in its symmetric mode: the columns are ordered by minimum
    degree on the structure of A^T + A (`MMD_AT_PLUS_A`), and the pivots
    stay on the diagonal (`diag_pivot_thresh=0`, which leaves the diagonal
    only where it is exactly zero).  Pivoting buys nothing on the
    constrained Galerkin system, which is symmetric positive definite.
    Against SuperLU's default (COLAMD ordering, partial pivoting) the
    factors of the last `lshape_benchmark(4)` level hold 262k instead of
    503k nonzeros, and those of the 24 x 24 `square_sin` system 317k
    instead of 341k.
    """
    A, b = system.matrix, system.rhs
    if A.shape[0] != A.shape[1]:
        raise ValueError("system matrix must be square")
    try:
        lu = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options=dict(SymmetricMode=True))
    except RuntimeError as err:          # SuperLU: "Factor is exactly singular"
        raise RuntimeError(f"singular system of {A.shape[0]} unknowns ({err})") from None
    x = lu.solve(b)
    bn = np.linalg.norm(b)
    res = np.linalg.norm(A @ x - b)
    if bn > 0 and res / bn > tol:
        raise RuntimeError(f"linear solve residual {res / bn:.2e} exceeds {tol:.2e}")
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
    # no name holds the full system, so it is released before the reduced
    # one is factored
    system = impose_boundary_conditions(assemble(space, geometry, problem, config.quadrature),
                                        space, geometry, problem)
    coeffs = solve_linear(system, config.lin_tol)
    return DiscreteSolution(SplineField(space, coeffs), geometry, problem)


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
        solution = _solve_round(space, _RoundGeometry(geometry), problem, config)
        t1 = time.perf_counter()
        ind = error_indicators(solution, problem, config.quadrature)
        # the estimator has read the round's kept blocks; the solution
        # carries the plain map
        solution.geometry = geometry
        fields = {"eta_total": ind.total, "l2_error": ind.l2_error, "h1_error": ind.h1_error,
                  "seconds": {"solve": t1 - t0, "estimate": time.perf_counter() - t1}}
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
