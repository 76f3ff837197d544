"""IGA solver: assembly, boundary conditions, estimator, adaptive loop."""

import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from anisoline.geometry import Geometry, linear_geometry, lshape_geometry
from anisoline.problems import (
    BUILTIN_PROBLEMS, PoissonProblem, lshape_benchmark, lshape_exact,
    lshape_exact_gradient, make_problem, patch_linear_problem,
    square_sin_problem,
)
from anisoline import solver, space as space_module
from anisoline.refine import RefinementRequest, refine
from anisoline.solver import (
    ConstrainedSystem, DiscreteSolution, ErrorIndicator, SolveConfig,
    adaptive_solve, assemble, error_indicators, exact_error_norms,
    impose_boundary_conditions, label_by_solution, solve_linear, _boundary_pieces,
    _cell_blocks, _constrained_functions, _gauss01, _solve_round,
)
from anisoline.space import (
    SplineField, SplineSpace, advance_level, build_initial_space, collocation_block,
    field_from_vertex_data,
)
from anisoline.tmesh import create_tensor_mesh
from oracles import (
    from_supports, functions_on_cell, geometry_from_json, geometry_to_json, gradients,
    local_stiffness, pieces, sliced_solve, sliced_system, supports, vertex_at,
)
from test_space import _random_rounds as _hvc_rounds, permuted_space


def unit_setup(n=1):
    space = build_initial_space(create_tensor_mesh(n, n))
    geometry = linear_geometry(space)
    return space, geometry


def test_assemble_symmetric_zero_load():
    space, geometry = unit_setup(1)
    problem = patch_linear_problem()
    zerof = PoissonProblem(name="z", f=lambda x, y: np.zeros_like(np.asarray(x)),
                           dirichlet=problem.dirichlet)
    A, F = assemble(space, geometry, zerof, q=4)
    assert np.allclose(F, 0.0, atol=1e-15)
    asym = abs(A - A.T).max()
    assert asym <= 1e-14
    # constant function is in the kernel of the unconstrained stiffness
    ones = np.ones(space.dim)
    assert np.max(np.abs(A @ ones)) < 1e-12


def test_quadrature_measures_area():
    space, geometry = unit_setup(2)
    total = sum(float(np.sum(blk.wdet)) for blk in _cell_blocks(space, geometry, 4))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_patch_test_linear_reproduction():
    space, geometry = unit_setup(2)
    problem = patch_linear_problem()
    sol, _ = _solve_round(space, geometry, problem, SolveConfig())
    l2, h1 = exact_error_norms(sol)
    assert l2 <= 1e-9
    assert h1 <= 1e-8


def test_quadrature_insensitivity_polynomial_geometry():
    space, geometry = unit_setup(2)
    problem = square_sin_problem()
    A1, _ = assemble(space, geometry, problem, q=4)
    A2, _ = assemble(space, geometry, problem, q=8)
    assert abs(A1 - A2).max() <= 1e-10


def _check_boundary_pins(n, count):
    space, geometry = unit_setup(n)
    problem = square_sin_problem()  # homogeneous all-Dirichlet
    A, F = assemble(space, geometry, problem, q=4)
    system = impose_boundary_conditions((A, F), space, geometry, problem)
    pinned = sorted(set(range(space.dim)) - set(system.free))
    # A function is pinned when it does not vanish on the boundary.  Slots
    # are (value, d_s, d_t, d_st): an edge vertex pins its value and the
    # slope along its edge, a corner pins its value and both slopes, and no
    # twist or interior vertex is pinned.  That is 4*3 + 4*(n-1)*2 = 8n + 4.
    expected = set()
    for k, vid in enumerate(space.vertices):
        fids = range(4 * k, 4 * k + 4)
        s, t = space.mesh.vertex(vid).position
        on_s_edge = s in (0, 1)     # edge s = const runs along t
        on_t_edge = t in (0, 1)
        if on_s_edge or on_t_edge:
            expected.add(fids[0])
        if on_t_edge:
            expected.add(fids[1])
        if on_s_edge:
            expected.add(fids[2])
    assert len(expected) == count
    assert set(pinned) == expected
    assert np.allclose(system.fixed_values[pinned], 0.0)


def test_impose_pins_boundary_value_slots():
    _check_boundary_pins(2, 20)


@pytest.mark.parametrize("n, count", [(1, 12), (3, 28), (4, 36)])
def test_impose_pins_boundary_value_slots_by_mesh(n, count):
    # 8n + 4 pins on an n x n mesh; 28 is the 3 x 3 count
    _check_boundary_pins(n, count)


def _boundary_edges_of_cell(mesh, cid):
    """The domain-boundary edges of one cell from its own bounds, as
    (edge, lo, hi, at): the edge spans [lo, hi] at the fixed coordinate
    `at`."""
    c = mesh.cell(cid)
    s0, s1, t0, t1 = c.bounds_float()
    out = []
    if c.i0 == 0:
        out.append(("s0", t0, t1, s0))
    if c.i1 == mesh.axes[0].end:
        out.append(("s1", t0, t1, s1))
    if c.j0 == 0:
        out.append(("t0", s0, s1, t0))
    if c.j1 == mesh.axes[1].end:
        out.append(("t1", s0, s1, t1))
    return out


def _reference_edge_pieces(mesh, cid, segments):
    """The pieces of a segment list on one cell's boundary edges, as
    (edge, a, b, at), by edge and then in segment order: the nested loops
    that `solver._boundary_pieces` replaced."""
    for (edge, lo, hi, at) in _boundary_edges_of_cell(mesh, cid):
        for (e, a, b) in segments:
            if e == edge:
                aa, bb = max(lo, a), min(hi, b)
                if bb > aa + 1e-14:
                    yield edge, aa, bb, at


def _reference_points(edge, a, b, at, x):
    """Parameters (s, t) at a + (b - a) x along a boundary piece."""
    par = a + (b - a) * x
    fixed = np.full_like(par, at)
    return (fixed, par) if edge in ("s0", "s1") else (par, fixed)


def _reference_basis(space, cid, s, t, derivs=((0, 0),)):
    c = space.mesh.cell(cid)
    u = (s - float(c.s0)) / float(c.width)
    v = (t - float(c.t0)) / float(c.height)
    return space.basis_on_cell(cid, u, v, derivs)


def _reference_pinned(space, problem, samples_per_edge=8):
    """The sampled scan the structural rule replaced: functions whose
    values at 8 points of a Dirichlet edge piece exceed 1e-10."""
    mesh = space.mesh
    ticks = np.linspace(0.0, 1.0, samples_per_edge)
    pinned = set()
    for cid in mesh.active_cells():
        for piece in _reference_edge_pieces(mesh, cid, problem.dirichlet):
            fids, bas = _reference_basis(space, cid, *_reference_points(*piece, ticks))
            live = np.max(np.abs(bas[0]), axis=1) > 1e-10
            pinned.update(np.asarray(fids)[live].tolist())
    return sorted(pinned)


def _reference_dirichlet_fit(space, geometry, problem):
    """The per-piece loop the batched Dirichlet fit replaced: the pinned
    functions of the sampled scan, fitted by least squares to g_D at 8
    points per Dirichlet piece, one piece at a time through
    `basis_on_cell` and `eval_on_cell`.  Returns (pinned, values)."""
    pinned = _reference_pinned(space, problem)
    cols = {fid: k for k, fid in enumerate(pinned)}
    ticks = np.linspace(0.0, 1.0, 8)
    blocks, targets = [], []
    for cid in space.mesh.active_cells():
        for piece in _reference_edge_pieces(space.mesh, cid, problem.dirichlet):
            s, t = _reference_points(*piece, ticks)
            fids, bas = _reference_basis(space, cid, s, t)
            xy = geometry.field.eval_on_cell(cid, s, t)[0]
            row = np.zeros((len(s), len(pinned)))
            for k, fid in enumerate(fids):
                if fid in cols:
                    row[:, cols[fid]] = bas[0][k]
            blocks.append(row)
            targets.append(problem.g_dirichlet(xy[:, 0], xy[:, 1]))
    sol, *_ = np.linalg.lstsq(np.vstack(blocks), np.concatenate(targets), rcond=None)
    return pinned, sol


def _mixed_problem():
    # the Dirichlet part ends inside the edge s = 0, at t = 0.375
    return PoissonProblem(
        name="mixed", f=lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
        dirichlet=[("s0", 0.0, 0.375), ("t0", 0.0, 1.0)],
        neumann=[("s0", 0.375, 1.0), ("s1", 0.0, 1.0), ("t1", 0.0, 1.0)])


def _random_rounds(rng, space, geometry=None, rounds=3):
    """The space (and the geometry carried along) after `rounds` rounds
    that each split 1 to 6 random current-level cells by random H, V or C
    labels."""
    for level in range(rounds):
        mesh = space.mesh
        cells = mesh.cells_of_level(level)
        marks = rng.choice(cells, rng.integers(1, min(6, len(cells)) + 1), replace=False)
        mesh, rep = refine(mesh, RefinementRequest(
            {int(c): str(rng.choice(list("HVC"))) for c in marks}))
        space = advance_level(space, rep)
        if geometry is not None:
            geometry = geometry.advance(space)
    return space, geometry


@pytest.mark.parametrize("start", [(2, 2), (3, 2), (4, 4)])
def test_structural_pins_match_sampled_scan(start):
    # 40 seeds x 3 random H/V/C rounds x 3 problems per start
    problems = [square_sin_problem(), lshape_benchmark(4)[0], _mixed_problem()]
    for seed in range(40):
        rng = np.random.default_rng(seed)
        space, _ = _random_rounds(rng, build_initial_space(create_tensor_mesh(*start)))
        for problem in problems:
            pinned, _ = _constrained_functions(space, problem)
            assert pinned.tolist() == _reference_pinned(space, problem), (seed, problem.name)


@pytest.mark.parametrize("case", ["patch_linear", "mixed_lshape"])
def test_dirichlet_fit_matches_per_piece_reference(case):
    # patch_linear has Dirichlet data on the whole boundary of the unit
    # square; the mixed problem's Dirichlet part ends inside an edge, and
    # its data is not in the space, over the curved L-shape map
    if case == "patch_linear":
        problem = patch_linear_problem()
        start = lambda: linear_geometry(build_initial_space(create_tensor_mesh(3, 2)))
    else:
        problem = dataclasses.replace(_mixed_problem(),
                                      g_dirichlet=lambda x, y: np.sin(3 * x) + x * y * y)
        start = lambda: lshape_geometry(4)
    for seed in range(10):
        geometry = start()
        space, geometry = _random_rounds(np.random.default_rng(seed), geometry.space, geometry)
        n = space.dim
        system = impose_boundary_conditions((sp.identity(n, format="csr"), np.zeros(n)),
                                            space, geometry, problem)
        pinned, want = _reference_dirichlet_fit(space, geometry, problem)
        assert np.setdiff1d(np.arange(n), system.free).tolist() == pinned
        got = system.fixed_values[pinned]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (seed, case)


def test_homogeneous_pins_evaluate_no_basis(monkeypatch):
    space, geometry = unit_setup(3)
    problem = square_sin_problem()
    A, F = assemble(space, geometry, problem, q=4)

    def refuse(*args, **kwargs):
        raise AssertionError("a basis function or the map was evaluated")

    # the Dirichlet fit's batch: the extraction of the pieces' cells, the
    # Bernstein weights, and the map
    monkeypatch.setattr(solver, "_Cells", refuse)
    monkeypatch.setattr(SplineSpace, "extraction", refuse)
    monkeypatch.setattr(solver, "_bernstein_tables", refuse)
    monkeypatch.setattr(SplineField, "eval_located", refuse)
    system = impose_boundary_conditions((A, F), space, geometry, problem)
    assert len(system.free) == space.dim - 28


def test_impose_fits_inhomogeneous_data():
    space, geometry = unit_setup(2)
    problem = patch_linear_problem()
    A, F = assemble(space, geometry, problem, q=4)
    system = impose_boundary_conditions((A, F), space, geometry, problem)
    pinned = sorted(set(range(space.dim)) - set(system.free))
    field = SplineField(space, system.fixed_values)
    # the fitted boundary data reproduces the exact trace on the boundary
    for tt in np.linspace(0, 1, 13):
        for (s, t) in ((0.0, tt), (1.0, tt), (tt, 0.0), (tt, 1.0)):
            want = problem.u_exact(s, t)  # identity geometry
            # only pinned functions are nonzero on the boundary
            got = field.eval_many(s, t)[0, 0]
            assert got == pytest.approx(float(want), abs=1e-8)


def test_pure_neumann_rejected():
    with pytest.raises(ValueError):
        PoissonProblem(name="bad", f=lambda x, y: 0 * x,
                       dirichlet=[], neumann=[(e, 0.0, 1.0) for e in ("s0", "s1", "t0", "t1")])


def test_boundary_segments_must_cover():
    with pytest.raises(ValueError):
        PoissonProblem(name="bad", f=lambda x, y: 0 * x,
                       dirichlet=[("t0", 0.0, 0.5)],
                       neumann=[("s0", 0.0, 1.0), ("s1", 0.0, 1.0), ("t1", 0.0, 1.0)])


@pytest.mark.filterwarnings("error")
def test_solve_linear_paths():
    one = ConstrainedSystem(sp.csr_matrix(np.array([[2.0]])), np.array([3.0]),
                            np.array([0]), np.zeros(1), 1)
    assert solve_linear(one) == pytest.approx(np.array([1.5]))

    rng = np.random.default_rng(0)
    M = rng.standard_normal((10, 10))
    A = M @ M.T + 10 * np.eye(10)
    b = rng.standard_normal(10)
    system = ConstrainedSystem(sp.csr_matrix(A), b, np.arange(10), np.zeros(10), 10)
    x = solve_linear(system)
    assert np.allclose(x, np.linalg.solve(A, b), atol=1e-10)

    # symmetric and nonsingular but indefinite: the contract is SPD only,
    # and the banded Cholesky factor names the leading minor where it fails
    swap = ConstrainedSystem(sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])),
                             np.array([1.0, 2.0]), np.arange(2), np.zeros(2), 2)
    with pytest.raises(RuntimeError, match="singular system of 2 unknowns .*1-th leading minor"):
        solve_linear(swap)

    # a real constrained system against a dense solve
    problem, geometry = make_problem("square_sin", (8, 8))
    space = geometry.space
    system = impose_boundary_conditions(assemble(space, geometry, problem), space,
                                        geometry, problem)
    x = solve_linear(system)[system.free]
    ref = np.linalg.solve(system.matrix.toarray(), system.rhs)
    assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))

    sing = ConstrainedSystem(sp.csr_matrix(np.zeros((2, 2))), np.ones(2),
                             np.arange(2), np.zeros(2), 2)
    with pytest.raises(RuntimeError, match="singular system"):
        solve_linear(sing)
    rank_one = ConstrainedSystem(sp.csr_matrix(np.ones((2, 2))), np.ones(2),
                                 np.arange(2), np.zeros(2), 2)
    with pytest.raises(RuntimeError, match="singular system"):
        solve_linear(rank_one)


def _reduced_systems(case):
    """The reduced systems of a case, each with its space and load, as
    (space, F, system): every level of `lshape_benchmark(4)` as
    `adaptive_solve` builds them, or the mixed boundary problem with
    inhomogeneous Dirichlet data, a load and a flux on the curved L-shape
    map after three random H/V/C rounds, seeds 0-5."""
    if case == "lshape_benchmark":
        found, impose = [], solver.impose_boundary_conditions

        def kept(system, space, geometry, problem):
            found.append((space, system[1], impose(system, space, geometry, problem)))
            return found[-1][-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "impose_boundary_conditions", kept)
            adaptive_solve(*lshape_benchmark(4), SolveConfig(max_levels=4))
        return found
    problem = dataclasses.replace(
        _mixed_problem(), f=lambda x, y: 1.0 + x * y,
        g_dirichlet=lambda x, y: np.sin(3 * x) + x * y * y,
        g_neumann=lambda x, y, nx, ny: np.cos(x) * nx + y * ny)
    found = []
    for seed in range(6):
        geometry = lshape_geometry(4)
        space, geometry = _random_rounds(np.random.default_rng(seed), geometry.space, geometry)
        A, F = assemble(space, geometry, problem)
        found.append((space, F, impose_boundary_conditions((A, F), space, geometry, problem)))
    return found


def _identity_system():
    """The identity stiffness, which couples no vertex to another, and a
    load of ones over the space of `lshape_benchmark(2)`, constrained by
    its problem, as (space, F, system)."""
    problem, geometry = lshape_benchmark(2)
    space = geometry.space
    n = space.dim
    F = np.ones(n)
    return space, F, impose_boundary_conditions((sp.identity(n, format="csr"), F),
                                                space, geometry, problem)


def _lower_bandwidth(A):
    A = A.tocoo()
    return int(np.max(A.row - A.col, initial=0))


@pytest.mark.parametrize("case", ["lshape_benchmark", "mixed_hvc_rounds"])
def test_banded_solve_matches_superlu(case):
    # SuperLU, the solver the band replaced, and scipy's reverse
    # Cuthill-McKee order serve as references here only
    from scipy.sparse.csgraph import reverse_cuthill_mckee
    from scipy.sparse.linalg import splu

    systems = _reduced_systems(case)
    assert len(systems) == (5 if case == "lshape_benchmark" else 6)
    for k, (_, _, system) in enumerate(systems):
        A = system.matrix
        x = solve_linear(system)
        ref = system.embed(splu(A.tocsc()).solve(system.rhs))
        assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref)), (case, k)
        assert system.residual <= 1e-12
        assert system.bandwidth == _lower_bandwidth(A)
        rcm = reverse_cuthill_mckee(A.tocsr(), symmetric_mode=True)
        assert system.bandwidth <= _lower_bandwidth(A[rcm][:, rcm]), (case, k)


def test_band_order_covers_every_function_of_a_graph_in_pieces():
    # the identity couples no vertex to another: the order still takes
    # every free function once, and the band is the diagonal
    space, _, system = _identity_system()
    n = space.dim
    pinned, _ = _constrained_functions(space, lshape_benchmark(2)[0])
    assert sorted(system.free.tolist()) == np.setdiff1d(np.arange(n), pinned).tolist()
    x = solve_linear(system)
    assert system.bandwidth == 0
    assert np.array_equal(x[system.free], np.ones(len(system.free)))


@pytest.mark.parametrize("case", ["lshape_benchmark", "mixed_hvc_rounds", "identity"])
def test_band_from_the_blocks_matches_the_sliced_path(case):
    # the solve fills the band straight from the stiffness blocks; the path
    # it replaced sliced the stiffness as CSR and copied the band off the
    # slice (`oracles.sliced_system`): order, right-hand side, band,
    # bandwidth, residual and solution are bitwise equal
    found = [_identity_system()] if case == "identity" else _reduced_systems(case)
    for k, (space, F, system) in enumerate(found):
        pinned = np.setdiff1d(np.arange(system.n), system.free)
        free, M, rhs = sliced_system(system.stiffness, F, space, pinned, system.fixed_values)
        assert free.tobytes() == system.free.tobytes(), (case, k)
        assert rhs.tobytes() == system.rhs.tobytes(), (case, k)
        ab, x, residual = sliced_solve(M, rhs)
        band = system.lower_band()
        assert band.shape == ab.shape and band.tobytes() == ab.tobytes(), (case, k)
        assert solve_linear(system).tobytes() == system.embed(x).tobytes(), (case, k)
        assert (system.bandwidth, system.residual) == (len(ab) - 1, residual), (case, k)


def _einsum_stiffness(gx, wdet):
    """The three-operand einsum that the oracle `local_stiffness` replaced."""
    return np.einsum("cqxf,cqxg,cq->cfg", gx, gx, wdet)


def _gradient_stiffness(blk, products):
    """K_B of a block from the physical gradients of the Bernstein
    polynomials, as `solver._bernstein_stiffness` replaced it."""
    return _einsum_stiffness(gradients(blk.grid), blk.wdet)


def _refined_once(build, label):
    """A problem and its geometry after one refinement of the current
    level's cells by `label(cell)` (None leaves a cell alone)."""
    problem, geometry = build()
    mesh = geometry.space.mesh
    labels = {cid: label(mesh.cell(cid)) for cid in mesh.cells_of_level(mesh.current_level)}
    _, rep = refine(mesh, RefinementRequest({cid: lab for cid, lab in labels.items() if lab}))
    return problem, geometry.advance(advance_level(geometry.space, rep))


def _dropped_pieces(functions):
    """The 4x4 square with one cell split crosswise, and a hand-built
    solution space that drops each of `functions(dim)` from the first cell
    of its support.  Dropping pieces breaks the collocation data, which the
    stiffness does not read, so the space keeps the source's table."""
    problem, geometry = _refined_once(lambda: make_problem("square_sin", (4, 4)),
                                      lambda c: "C" if (c.s0, c.t0) == (0.25, 0.25) else None)
    space = geometry.space
    patches = supports(space)
    for f in functions(space.dim):
        del patches[f][min(patches[f])]
    return problem, geometry, from_supports(space.mesh, space.vertices, patches, space.factors)


def _uneven_tmesh():
    """`_dropped_pieces` of the whole vertex group of every seventh basis
    vertex, so that the cells of a block carry different numbers of
    groups."""
    return _dropped_pieces(lambda dim: [f for f in range(dim) if f // 4 % 7 == 0])


_STIFFNESS_CASES = {
    "square_sin_4x4": lambda: (*make_problem("square_sin", (4, 4)), None),
    # Neumann edges on a refined mesh
    "lshape_refined": lambda: (*_refined_once(lambda: lshape_benchmark(2),
                                              lambda c: "V" if c.s0 < 0.5 else "C"), None),
    "uneven_tmesh": _uneven_tmesh,
}


def test_walks_without_neumann_segments_skip_the_boundary_pieces(monkeypatch):
    # square_sin has Dirichlet edges only: its walks look up no edge pieces,
    # while the L-shape's Neumann walk looks them up once, for all its cells
    solution, _ = adaptive_solve(*make_problem("square_sin", (12, 12)), SolveConfig(max_levels=0))
    lshape, lgeo = lshape_benchmark(4)
    calls = []

    def counted(mesh, cids, segments):
        calls.append(len(cids))
        return _boundary_pieces(mesh, cids, segments)

    monkeypatch.setattr(solver, "_boundary_pieces", counted)
    blocks = list(_cell_blocks(solution.space, solution.geometry, 5,
                               solver._neumann_segments(solution.problem)))
    exact_error_norms(solution)
    assert len(blocks) > 1 and all(blk.edges is None for blk in blocks)
    assert calls == []
    list(_cell_blocks(lgeo.space, lgeo, 5, solver._neumann_segments(lshape)))
    assert calls == [len(lgeo.space.mesh.active_cells())]


def test_an_assembly_gathers_and_cuts_once(monkeypatch):
    # one `assemble` call over several blocks gathers the active cells'
    # entries once and cuts the Neumann pieces once; the 198 cells of the
    # refined 6 x 6 start span two blocks, both with Neumann pieces
    problem, geometry = _lshape_two_rounds(6)
    space = geometry.space
    blocks = list(_cell_blocks(space, geometry, 5, solver._neumann_segments(problem)))
    assert len(blocks) > 1 and sum(blk.edges is not None for blk in blocks) > 1
    calls = []
    gather, boundary_pieces = SplineSpace._gather, solver._boundary_pieces
    monkeypatch.setattr(SplineSpace, "_gather",
                        lambda *args: calls.append("gather") or gather(*args))
    monkeypatch.setattr(solver, "_boundary_pieces",
                        lambda *args: calls.append("pieces") or boundary_pieces(*args))
    assemble(space, geometry, problem)
    assert sorted(calls) == ["gather", "pieces"]


def test_a_solve_never_builds_the_reduced_matrix(monkeypatch):
    def refuse(system):
        raise AssertionError("the reduced matrix was built")

    monkeypatch.setattr(ConstrainedSystem, "matrix", property(refuse))
    _, report = adaptive_solve(*make_problem("square_sin", (8, 8)), SolveConfig(max_levels=1))
    assert len(report.levels) == 2
    assert all(0 <= lev.solve_residual <= 1e-10 for lev in report.levels)


@pytest.mark.parametrize("case", sorted(_STIFFNESS_CASES))
def test_stiffness_matches_einsum_oracle(monkeypatch, case):
    problem, geometry, space = _STIFFNESS_CASES[case]()
    space = space or geometry.space
    blocks = list(_cell_blocks(space, geometry, 5, solver._neumann_segments(problem)))
    assert any(blk.edges is not None for blk in blocks) == (case == "lshape_refined")
    assert any(len(set(pieces(space, blk.cells)[0].tolist())) > 1
               for blk in blocks) == (case == "uneven_tmesh")
    A, F = assemble(space, geometry, problem)
    monkeypatch.setattr(solver, "_bernstein_stiffness", _gradient_stiffness)
    A_ref, F_ref = assemble(space, geometry, problem)
    A, A_ref = A.tocsr(), A_ref.tocsr()
    scale = np.max(np.abs(A_ref.data))
    assert np.array_equal(A.indptr, A_ref.indptr) and np.array_equal(A.indices, A_ref.indices)
    assert np.max(np.abs(A.data - A_ref.data)) <= 1e-13 * scale
    assert np.max(np.abs(F - F_ref)) <= 1e-13 * np.max(np.abs(F_ref))
    assert abs(A - A.T).max() <= 1e-14 * scale


@pytest.mark.parametrize("build, q", [
    (lambda: make_problem("square_sin", (24, 24)), 5),
    (lambda: lshape_benchmark(4), 5),
    (lambda: lshape_benchmark(4), 4),
    (lambda: lshape_benchmark(4), 7)],
    ids=["square_sin_24x24", "lshape_q5", "lshape_q4", "lshape_q7"])
def test_gemm_stiffness_matches_the_gradient_oracle(build, q):
    # K_B of every block, by the one GEMM on the per-point metric, against
    # the batched matmul of the physical gradients it replaced
    problem, geometry = build()
    blocks = list(_cell_blocks(geometry.space, geometry, q, solver._neumann_segments(problem)))
    assert any(blk.edges is not None for blk in blocks) == (problem.name == "lshape")
    products = solver._stiffness_products(blocks[0].grid._tables)
    assert products.shape == (3 * q * q, 256)
    for blk in blocks:
        got = solver._bernstein_stiffness(blk, products)
        want = local_stiffness(gradients(blk.grid), blk.wdet)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("build", [lambda: make_problem("square_sin", (24, 24)),
                                   lambda: _lshape_two_rounds(6)],
                         ids=["square_sin_24x24", "lshape_two_rounds_6"])
def test_block_size_moves_only_the_walk_totals(monkeypatch, build):
    # blocks of 64 and of 128 cells give the same stiffness, loads and eta
    # per cell; only the error norms, summed block by block, may differ
    problem, geometry = build()
    space = geometry.space
    assert len(space.mesh.active_cells()) > 128
    u_h, _ = _solve_round(space, geometry, problem, SolveConfig())
    runs = []
    for block in (64, 128):
        monkeypatch.setattr(space_module, "_BLOCK", block)
        A, F = assemble(space, geometry, problem)
        runs.append((A.tocsr(), F, error_indicators(u_h, problem)))
    (A, F, ind), (A2, F2, ind2) = runs
    assert np.array_equal(A.indptr, A2.indptr) and np.array_equal(A.indices, A2.indices)
    assert np.max(np.abs(A.data - A2.data)) <= 1e-14 * np.max(np.abs(A.data))
    assert np.max(np.abs(F - F2)) <= 1e-14 * np.max(np.abs(F))
    assert ind.eta.keys() == ind2.eta.keys()
    eta, eta2 = (np.array(list(i.eta.values())) for i in (ind, ind2))
    assert np.max(np.abs(eta - eta2)) <= 1e-14 * np.max(eta)
    assert ind2.l2_error == pytest.approx(ind.l2_error, rel=1e-12)
    assert ind2.h1_error == pytest.approx(ind.h1_error, rel=1e-12)


def test_gauss_points_are_made_once_per_order():
    x, w = _gauss01(5)
    assert _gauss01(5)[0] is x and _gauss01(5)[1] is w
    assert not x.flags.writeable and not w.flags.writeable
    assert w.sum() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        x[0] = 0.0


def test_assembly_names_a_cell_without_whole_vertex_groups():
    # every seventh function of the second half dropped from one cell of
    # its support tears the groups of several cells; the error names the
    # first active one whose ids are no whole groups 4k .. 4k + 3
    problem, geometry, space = _dropped_pieces(lambda dim: range(dim // 2, dim, 7))

    def whole(ids):
        return ids == [f // 4 * 4 + slot for f in ids[::4] for slot in range(4)]

    torn = next(cid for cid in space.mesh.active_cells()
                if not whole(functions_on_cell(space, cid)))
    with pytest.raises(AssertionError, match=f"functions on cell {torn} do not come in whole"):
        assemble(space, geometry, problem)


def test_indicator_zero_for_exact_solution():
    # linear solution, f = 0, matching Neumann data: residual vanishes
    space, geometry = unit_setup(2)

    def g_neumann(x, y, nx, ny):
        return 0.7 * nx + 1.3 * ny

    problem = PoissonProblem(
        name="lin", f=lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
        dirichlet=[("t0", 0.0, 1.0)],
        neumann=[("s0", 0.0, 1.0), ("s1", 0.0, 1.0), ("t1", 0.0, 1.0)],
        g_neumann=g_neumann)
    data = {}
    for vid in space.mesh.basis_vertices():
        v = space.mesh.vertex(vid)
        data[vid] = np.array([0.25 + 0.7 * float(v.s) + 1.3 * float(v.t), 0.7, 1.3, 0.0])
    u_h = DiscreteSolution(field_from_vertex_data(space, data), geometry, problem)
    ind = error_indicators(u_h, problem, q=5)
    assert ind.total <= 1e-10


def test_indicator_closed_form():
    # u_h = 0, f = 1, one unit cell, no Neumann part:
    # eta^2 = h^2 * area with h = sqrt(2)
    space, geometry = unit_setup(1)
    problem = PoissonProblem(
        name="c", f=lambda x, y: np.ones_like(np.asarray(x, dtype=float)),
        dirichlet=[(e, 0.0, 1.0) for e in ("s0", "s1", "t0", "t1")])
    u_h = DiscreteSolution(SplineField(space, np.zeros(space.dim)), geometry, problem)
    ind = error_indicators(u_h, problem, q=5)
    (eta,) = ind.eta.values()
    assert eta == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert ind.total == pytest.approx(eta)


def test_indicator_total_is_rss():
    space, geometry = unit_setup(2)
    problem = square_sin_problem()
    u_h = DiscreteSolution(SplineField(space, np.zeros(space.dim)), geometry, problem)
    ind = error_indicators(u_h, problem, q=4)
    assert ind.total == pytest.approx(
        np.sqrt(sum(e * e for e in ind.eta.values())), abs=1e-14)


def test_label_by_solution_cases():
    space, geometry = unit_setup(2)
    problem = square_sin_problem()
    cells = space.mesh.active_cells()

    def field_from(fn):
        data = {}
        for vid in space.mesh.basis_vertices():
            v = space.mesh.vertex(vid)
            data[vid] = np.array(fn(float(v.s), float(v.t)))
        return DiscreteSolution(field_from_vertex_data(space, data), geometry, problem)

    only_s = field_from(lambda s, t: [np.sin(3 * s), 3 * np.cos(3 * s), 0.0, 0.0])
    labels = label_by_solution(only_s, cells)
    assert all(lab == "V" for lab in labels.values())

    const = field_from(lambda s, t: [0.7, 0.0, 0.0, 0.0])
    labels = label_by_solution(const, cells)
    assert all(lab == "C" for lab in labels.values())

    radial = field_from(lambda s, t: [(s - 0.5) ** 2 + (t - 0.5) ** 2,
                                      2 * (s - 0.5), 2 * (t - 0.5), 0.0])
    labels = label_by_solution(radial, cells)
    assert all(lab == "C" for lab in labels.values())


def test_exact_error_norms_cases():
    space, geometry = unit_setup(2)
    problem = patch_linear_problem()
    data = {}
    for vid in space.mesh.basis_vertices():
        v = space.mesh.vertex(vid)
        data[vid] = np.array([problem.u_exact(float(v.s), float(v.t)), 0.7, 1.3, 0.0])
    exact_field = field_from_vertex_data(space, data)
    u_h = DiscreteSolution(exact_field, geometry, problem)
    l2, h1 = exact_error_norms(u_h)
    assert l2 <= 1e-10 and h1 <= 1e-10

    zero = DiscreteSolution(SplineField(space, np.zeros(space.dim)), geometry, problem)
    l2, _ = exact_error_norms(zero, u_exact=lambda x, y: np.ones_like(np.asarray(x)),
                              grad_exact=None)
    assert l2 == pytest.approx(1.0, abs=1e-12)


def test_lshape_exact_solution_values():
    assert lshape_exact(0.0, 1.0) == pytest.approx(0.0, abs=1e-14)     # theta = pi/2
    assert lshape_exact(1.0, 0.0) == pytest.approx(0.0, abs=1e-12)     # theta = 2 pi
    assert lshape_exact(-1.0, 0.0) == pytest.approx(np.sqrt(3) / 2, abs=1e-14)
    # harmonic: compare Laplacian by finite differences away from the corner
    h = 1e-4
    for (x, y) in [(-0.5, 0.3), (-0.4, -0.7), (0.6, -0.5)]:
        lap = (lshape_exact(x + h, y) + lshape_exact(x - h, y) +
               lshape_exact(x, y + h) + lshape_exact(x, y - h) -
               4 * lshape_exact(x, y)) / h ** 2
        assert abs(lap) < 1e-5
    g = lshape_exact_gradient(-0.5, 0.3)
    fd = np.array([(lshape_exact(-0.5 + h, 0.3) - lshape_exact(-0.5 - h, 0.3)) / (2 * h),
                   (lshape_exact(-0.5, 0.3 + h) - lshape_exact(-0.5, 0.3 - h)) / (2 * h)])
    assert np.allclose(g, fd, atol=1e-7)


def test_lshape_geometry_shape():
    geo = lshape_geometry(4)
    point = geo.field.eval_many
    assert point(0.5, 0.0)[0, 0] == pytest.approx([0.0, 0.0], abs=1e-12)
    assert point(0.5, 1.0)[0, 0] == pytest.approx([-1.0, -1.0], abs=1e-12)
    assert set(map(tuple, point([0, 1, 0, 1], [0, 0, 1, 1])[0].tolist())) == \
        {(1.0, 0.0), (0.0, 1.0), (1.0, -1.0), (-1.0, 1.0)}
    rng = np.random.default_rng(1)
    ss, tt = rng.uniform(0, 1, 500), rng.uniform(0, 1, 500)
    for a, b, (x, y) in zip(ss, tt, point(ss, tt)[0]):
        assert -1 - 1e-9 <= x <= 1 + 1e-9 and -1 - 1e-9 <= y <= 1 + 1e-9
        assert not (x > 1e-9 and y > 1e-9)   # outside the removed quadrant
        (xs, ys), (xt, yt) = geo.field.eval_many([a], [b], ((1, 0), (0, 1)))[:, 0]
        assert xs * yt - xt * ys > 0
    assert geo.degenerate_params == ((0.5, 0.0), (0.5, 1.0))
    with pytest.raises(ValueError):
        lshape_geometry(3)


def test_lshape_dirichlet_trace_is_zero():
    problem, geo = lshape_benchmark(4)
    # the exact solution vanishes on the image of the Dirichlet edge
    x, y = geo.field.eval_many(np.linspace(0, 1, 21), np.zeros(21))[0].T
    assert np.abs(lshape_exact(x, y)).max() < 1e-10


def test_geometry_json_roundtrip():
    geo = lshape_geometry(4)
    back = geometry_from_json(geometry_to_json(geo))
    rng = np.random.default_rng(2)
    s, t = rng.uniform(0, 1, size=(2, 20))
    assert np.allclose(geo.field.eval_many(s, t), back.field.eval_many(s, t), atol=1e-14)
    assert back.degenerate_params == geo.degenerate_params


def test_make_problem_registry():
    for name in BUILTIN_PROBLEMS:
        problem, geometry = make_problem(name)
        assert problem.name == name
        assert geometry.field.arity == 2
    with pytest.raises(KeyError, match="registry"):
        make_problem("nope")


def test_adaptive_solve_terminates_when_resolved():
    problem, geometry = make_problem("patch_linear", initial_grid=(2, 2))
    sol, report = adaptive_solve(problem, geometry, SolveConfig(max_levels=3))
    assert report.converged
    assert len(report.levels) == 1      # nothing marked at level 0
    assert report.final.l2_error <= 1e-9


def test_adaptive_solve_square_sin():
    problem, geometry = make_problem("square_sin", initial_grid=(2, 2))
    cfg = SolveConfig(threshold=1e-3, max_levels=2, quadrature=4)
    sol, report = adaptive_solve(problem, geometry, cfg)
    assert report.check_dof_accounting()
    etas = [r.eta_total for r in report.levels]
    assert all(b < a for a, b in zip(etas, etas[1:]))
    l2s = [r.l2_error for r in report.levels]
    assert all(b < a for a, b in zip(l2s, l2s[1:]))


def _bicubic_problem():
    """u = x^3 y^3 - 2 x^2 y + 0.7 x y^3 + 0.3 x^3 - y^2 + 0.1 on [0, 2] x
    [-1/2, 1/2], with Dirichlet data on s0 and t0 and Neumann data on s1
    and t1 (x = 2 and y = 1/2 under `linear_geometry`)."""
    def u(x, y):
        return x ** 3 * y ** 3 - 2 * x ** 2 * y + 0.7 * x * y ** 3 + 0.3 * x ** 3 - y ** 2 + 0.1

    def grad(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        return np.stack([3 * x ** 2 * y ** 3 - 4 * x * y + 0.7 * y ** 3 + 0.9 * x ** 2,
                         3 * x ** 3 * y ** 2 - 2 * x ** 2 + 2.1 * x * y ** 2 - 2 * y], axis=-1)

    def f(x, y):
        return -(6 * x * y ** 3 - 4 * y + 1.8 * x + 6 * x ** 3 * y + 4.2 * x * y - 2)

    def flux(x, y, nx, ny):
        g = grad(x, y)
        return g[..., 0] * nx + g[..., 1] * ny

    return PoissonProblem(name="bicubic", f=f, dirichlet=[("s0", 0.0, 1.0), ("t0", 0.0, 1.0)],
                          neumann=[("s1", 0.0, 1.0), ("t1", 0.0, 1.0)], g_dirichlet=u,
                          g_neumann=flux, u_exact=u, grad_exact=grad)


@pytest.mark.parametrize("seed", range(3))
def test_bicubic_patch_test_on_random_hvc_meshes(seed):
    # The space holds every bicubic, so each level reproduces u up to
    # roundoff: measured L2 <= 3.8e-15 and H1 <= 2.1e-14 over the seeds.
    # Three rounds mark each current-level cell with probability 1/2, so
    # cells of one block carry different numbers of functions.
    problem = _bicubic_problem()
    rng = np.random.default_rng(seed)
    space = build_initial_space(create_tensor_mesh(3, 2))
    geometry = linear_geometry(space, (0.0, 2.0, -0.5, 0.5))
    for level in range(4):
        l2, h1 = exact_error_norms(_solve_round(space, geometry, problem, SolveConfig())[0])
        assert l2 <= 1e-12 and h1 <= 1e-12, (level, space.dim, l2, h1)
        if level == 3:
            break
        cells = space.mesh.cells_of_level(level)
        marked = [c for c in cells if rng.random() < 0.5] or cells[:1]
        _, rep = refine(space.mesh, RefinementRequest(
            {c: str(rng.choice(list("HVC"))) for c in marked}))
        space = advance_level(space, rep)
        geometry = geometry.advance(space)


def test_uniform_refinement_l2_order_smoke():
    problem, geometry = make_problem("square_sin", initial_grid=(2, 2))
    errors = []
    space = geometry.space
    for _ in range(3):
        sol, _ = _solve_round(space, geometry, problem, SolveConfig(quadrature=5))
        errors.append(exact_error_norms(sol))
        from anisoline.refine import RefinementRequest, refine
        from anisoline.space import advance_level
        mesh = space.mesh
        labels = {c: "C" for c in mesh.cells_of_level(mesh.current_level)}
        mesh2, rep = refine(mesh, RefinementRequest(labels))
        space = advance_level(space, rep)
        geometry = geometry.advance(space)
    # L2 orders 3.50 and 3.83, H1 orders 2.72 and 2.91: the bicubic rates
    # are 4 and 3
    l2_orders, h1_orders = np.log2(np.array(errors[:-1]) / errors[1:]).T
    assert l2_orders[-1] == pytest.approx(4.0, abs=0.4)
    assert h1_orders[-1] == pytest.approx(3.0, abs=0.1)


def test_lshape_adaptive_smoke():
    problem, geometry = lshape_benchmark(4)
    cfg = SolveConfig(threshold=5e-3, max_levels=3, quadrature=5)
    sol, report = adaptive_solve(problem, geometry, cfg)
    etas = [r.eta_total for r in report.levels]
    h1s = [r.h1_error for r in report.levels]
    # refinement concentrates, in its last step, near the reentrant corner
    # preimage (1/2, 0).  Earlier levels cover most of the patch: the first
    # step marks all 16 level-0 cells.
    mesh = sol.space.mesh
    top = max(mesh.cell(cid).level for cid in mesh.active_cells())
    finest = [mesh.cell(cid) for cid in mesh.cells_of_level(top)]
    near = sum(1 for c in finest
               if np.hypot((float(c.s0) + float(c.s1)) / 2 - 0.5,
                           (float(c.t0) + float(c.t1)) / 2) <= 0.3)
    figures = (f"eta per level {np.round(etas, 4).tolist()}; "
               f"H1 per level {np.round(h1s, 4).tolist()}; "
               f"level {top}: {near} of {len(finest)} cells near (1/2, 0)")
    # the exact error falls at every step
    assert all(b < a for a, b in zip(h1s, h1s[1:])), "H1 error does not fall: " + figures
    # The estimator is checked over the whole run only: on the two cells
    # whose closure holds the degenerate point (1/2, 0) the interior
    # residual has no limit (it grows with the quadrature order), so a
    # split that moves Gauss points toward the point can raise eta.
    assert etas[-1] < etas[0], "eta ends above its start: " + figures
    assert top >= 2, "no cell refined twice: " + figures
    assert near / len(finest) >= 0.5, "finest level not near (1/2, 0): " + figures


# ----------------------------------------------------------------------
# The per-cell loops the block kernel replaced, kept as reference
# implementations: one cell at a time through `basis_on_cell`,
# `eval_on_cell` and `derivatives_on_cell`.

def _reference_quadrature(space, cid, q):
    c = space.mesh.cell(cid)
    x, w = _gauss01(q)
    uu, vv = np.meshgrid(x, x, indexing="ij")
    ww = np.outer(w, w).ravel() * float(c.width) * float(c.height)
    s = float(c.s0) + float(c.width) * uu.ravel()
    t = float(c.t0) + float(c.height) * vv.ravel()
    return s, t, ww


def _reference_gauss_pieces(mesh, cid, problem, q):
    """The Neumann pieces of one cell, each as (edge, s, t, w) at its q
    Gauss points."""
    x, w = _gauss01(q)
    for (edge, a, b, at) in _reference_edge_pieces(mesh, cid, problem.neumann):
        yield (edge,) + _reference_points(edge, a, b, at, x) + (w * (b - a),)


def _reference_inverse(J):
    det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    Jinv = np.empty_like(J)
    Jinv[:, 0, 0] = J[:, 1, 1] / det
    Jinv[:, 0, 1] = -J[:, 0, 1] / det
    Jinv[:, 1, 0] = -J[:, 1, 0] / det
    Jinv[:, 1, 1] = J[:, 0, 0] / det
    return det, Jinv


def _reference_normal(J, edge):
    det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    adjT = np.empty_like(J)
    adjT[:, 0, 0] = J[:, 1, 1]
    adjT[:, 0, 1] = -J[:, 1, 0]
    adjT[:, 1, 0] = -J[:, 0, 1]
    adjT[:, 1, 1] = J[:, 0, 0]
    npar = {"s0": (-1.0, 0.0), "s1": (1.0, 0.0), "t0": (0.0, -1.0), "t1": (0.0, 1.0)}[edge]
    nvec = np.einsum("qxy,y->qx", adjT, np.array(npar)) * np.sign(det)[:, None]
    nvec /= np.linalg.norm(nvec, axis=1)[:, None]
    return nvec[:, 0], nvec[:, 1]


def _reference_tangent_arc(J, edge):
    return np.linalg.norm(J[:, :, 1] if edge in ("s0", "s1") else J[:, :, 0], axis=1)


def _reference_physical(field, geometry, cid, s, t):
    d = field.eval_on_cell(cid, s, t, ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)))
    xy, J, H = geometry.derivatives_on_cell(cid, s, t)
    det, Jinv = _reference_inverse(J)
    grad_x = np.einsum("qp,qpx->qx", np.stack([d[1], d[2]], axis=-1), Jinv)
    Hpar = np.empty((len(s), 2, 2))
    Hpar[:, 0, 0] = d[3]
    Hpar[:, 0, 1] = Hpar[:, 1, 0] = d[4]
    Hpar[:, 1, 1] = d[5]
    rhs = Hpar - np.einsum("qx,qxab->qab", grad_x, H)
    Hx = np.einsum("qpa,qab,qbr->qpr", np.transpose(Jinv, (0, 2, 1)), rhs, Jinv)
    return xy, d[0], grad_x, Hx, np.abs(det)


def _reference_assemble(space, geometry, problem, q):
    mesh = space.mesh
    n = space.dim
    rows, cols, vals = [], [], []
    F = np.zeros(n)
    for cid in mesh.active_cells():
        s, t, ww = _reference_quadrature(space, cid, q)
        c = mesh.cell(cid)
        u = (s - float(c.s0)) / float(c.width)
        v = (t - float(c.t0)) / float(c.height)
        fids, bas = space.basis_on_cell(cid, u, v, ((0, 0), (1, 0), (0, 1)))
        if not fids:
            continue
        xy, J, _ = geometry.derivatives_on_cell(cid, s, t)
        det, Jinv = _reference_inverse(J)
        gx = np.einsum("fqp,qpx->fqx", np.stack([bas[1], bas[2]], axis=-1), Jinv)
        wdet = ww * np.abs(det)
        ids = np.asarray(fids)
        rows.append(np.repeat(ids, len(ids)))
        cols.append(np.tile(ids, len(ids)))
        vals.append(np.einsum("fqx,gqx,q->fg", gx, gx, wdet).ravel())
        F[ids] += np.einsum("fq,q->f", bas[0], problem.f(xy[:, 0], xy[:, 1]) * wdet)
    if problem.g_neumann is not None:
        for cid in mesh.active_cells():
            c = mesh.cell(cid)
            for (edge, s, t, w) in _reference_gauss_pieces(mesh, cid, problem, q):
                u = (s - float(c.s0)) / float(c.width)
                v = (t - float(c.t0)) / float(c.height)
                fids, bas = space.basis_on_cell(cid, u, v, ((0, 0),))
                xy, J, _ = geometry.derivatives_on_cell(cid, s, t)
                nx, ny = _reference_normal(J, edge)
                g = problem.g_neumann(xy[:, 0], xy[:, 1], nx, ny)
                arc = _reference_tangent_arc(J, edge)
                F[np.asarray(fids)] += np.einsum("fq,q->f", bas[0], g * arc * w)
    A = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n))
    A.sum_duplicates()
    return A, F


def _reference_error_indicators(u_h, problem, q):
    space, geometry = u_h.space, u_h.geometry
    mesh = space.mesh
    eta = {}
    for cid in mesh.active_cells():
        s, t, ww = _reference_quadrature(space, cid, q)
        xy, _, _, Hx, det = _reference_physical(u_h.field, geometry, cid, s, t)
        resid = Hx[:, 0, 0] + Hx[:, 1, 1] + problem.f(xy[:, 0], xy[:, 1])
        interior = float(np.sum(resid ** 2 * ww * det))
        h = geometry.physical_diameter(cid)
        boundary = 0.0
        if problem.g_neumann is not None:
            for (edge, es, et, w) in _reference_gauss_pieces(mesh, cid, problem, q):
                exy, _, egrad, _, _ = _reference_physical(u_h.field, geometry, cid, es, et)
                eJ = geometry.derivatives_on_cell(cid, es, et)[1]
                nx, ny = _reference_normal(eJ, edge)
                g = problem.g_neumann(exy[:, 0], exy[:, 1], nx, ny)
                mismatch = g - (egrad[:, 0] * nx + egrad[:, 1] * ny)
                boundary += float(np.sum(mismatch ** 2 * _reference_tangent_arc(eJ, edge) * w))
        eta[cid] = float(np.sqrt(h * h * interior + h * boundary))
    return ErrorIndicator(eta)


def _assert_block_diameters_match(space, geometry, q, neumann=()):
    """The walk's cell diameters (`_CellBlock.diameter`, the h of eta)
    against the per-cell reference `Geometry.physical_diameter`."""
    for blk in _cell_blocks(space, geometry, q, neumann):
        want = [geometry.physical_diameter(cid) for cid in blk.cells.tolist()]
        np.testing.assert_allclose(blk.diameter, want, rtol=1e-12)


def _reference_error_norms(u_h, q):
    problem = u_h.problem
    l2 = h1 = 0.0
    for cid in u_h.space.mesh.active_cells():
        s, t, ww = _reference_quadrature(u_h.space, cid, q)
        xy, vals, grad, _, det = _reference_physical(u_h.field, u_h.geometry, cid, s, t)
        l2 += float(np.sum((vals - problem.u_exact(xy[:, 0], xy[:, 1])) ** 2 * ww * det))
        dg = grad - problem.grad_exact(xy[:, 0], xy[:, 1])
        h1 += float(np.sum(np.sum(dg ** 2, axis=1) * ww * det))
    return float(np.sqrt(l2)), float(np.sqrt(h1))


def _lshape_two_rounds(n=4):
    """The L-shape patch `lshape_benchmark(n)` after two refinement rounds
    with H, V and C splits: every cell 'V', then 'H' for s < 1/4 and 'C'
    for s >= 1/2.  (The adaptive run's first two rounds split only in s.)"""
    problem, geometry = lshape_benchmark(n)
    space = geometry.space
    kinds = set()
    for label in (lambda s: "V", lambda s: "H" if s < 0.25 else "C" if s >= 0.5 else None):
        mesh = space.mesh
        marks = {cid: label(float(mesh.cell(cid).s0))
                 for cid in mesh.cells_of_level(mesh.current_level)}
        _, rep = refine(mesh, RefinementRequest(
            {cid: lab for cid, lab in marks.items() if lab}))
        kinds |= set(rep.final_labels.values())
        space = advance_level(space, rep)
        geometry = geometry.advance(space)
    assert kinds == {"H", "V", "C"}
    return problem, geometry


def _square_sin_after_hvc_rounds():
    """square_sin over the 10 x 10 start after the three random H/V/C
    rounds of `test_space._random_rounds("10x10", 0)`: of its 998 cells, 83
    carry 5 vertex groups and 3 carry 6, so the assembly pads groups."""
    _, space = _hvc_rounds("10x10", 0)
    groups = np.bincount((space.extraction(space.mesh.active_cells())[0] >= 0).sum(axis=1))
    assert groups[5:].tolist() == [83, 3]
    return square_sin_problem(), linear_geometry(space)


# 1x1 and 10x10: less than one block; 24x24: four full blocks and a partial one
_KERNEL_CASES = {
    "1x1": lambda: make_problem("square_sin", (1, 1)),
    "10x10": lambda: make_problem("square_sin", (10, 10)),
    "24x24": lambda: make_problem("square_sin", (24, 24)),
    "lshape_two_rounds": _lshape_two_rounds,
    "square_sin_hvc_rounds": _square_sin_after_hvc_rounds,
}


@pytest.fixture(scope="module", params=sorted(_KERNEL_CASES))
def kernel_case(request):
    problem, geometry = _KERNEL_CASES[request.param]()
    u_h, _ = _solve_round(geometry.space, geometry, problem, SolveConfig(quadrature=5))
    return problem, geometry, u_h


# segment lists whose pieces are checked in order against the nested
# loops: the L-shape's Neumann and Dirichlet parts, and one whose pieces end
# inside cell edges, two of them on one edge in descending order
_PIECE_SEGMENTS = (
    BUILTIN_PROBLEMS["lshape"]().neumann,
    BUILTIN_PROBLEMS["lshape"]().dirichlet,
    [("t1", 0.6, 1.0), ("s0", 0.0, 0.375), ("t0", 0.1, 0.7), ("t1", 0.0, 0.45),
     ("s1", 0.3, 1.0)],
)


def test_kernel_assemble_matches_reference(kernel_case):
    problem, geometry, _ = kernel_case
    mesh = geometry.space.mesh
    active = mesh.active_cells()
    for segments in _PIECE_SEGMENTS:
        k, e, a, b = _boundary_pieces(mesh, active, segments)
        got = [(active[kk], solver._EDGE_NAMES[ee], aa, bb)
               for kk, ee, aa, bb in zip(k.tolist(), e.tolist(), a.tolist(), b.tolist())]
        assert got == [(cid, edge, aa, bb) for cid in active
                       for edge, aa, bb, _ in _reference_edge_pieces(mesh, cid, segments)]
    A, F = assemble(geometry.space, geometry, problem, q=5)
    A = A.tocsr()
    A_ref, F_ref = _reference_assemble(geometry.space, geometry, problem, 5)
    assert np.array_equal(A.indptr, A_ref.indptr)
    assert np.array_equal(A.indices, A_ref.indices)
    assert np.max(np.abs(A.data - A_ref.data)) <= 1e-12 * np.max(np.abs(A_ref.data))
    assert np.max(np.abs(F - F_ref)) <= 1e-12 * np.max(np.abs(F_ref))


def test_kernel_indicators_match_reference(kernel_case):
    problem, _, u_h = kernel_case
    ind = error_indicators(u_h, problem, q=5)
    ref = _reference_error_indicators(u_h, problem, 5)
    assert list(ind.eta) == list(ref.eta)
    gaps = [abs(ind.eta[c] - ref.eta[c]) for c in ref.eta]
    assert max(gaps) <= 1e-10 * ref.total
    _assert_block_diameters_match(u_h.space, u_h.geometry, 5, solver._neumann_segments(problem))


def test_kernel_error_norms_match_reference(kernel_case):
    _, _, u_h = kernel_case
    l2, h1 = exact_error_norms(u_h, q=5)
    l2_ref, h1_ref = _reference_error_norms(u_h, 5)
    assert l2 == pytest.approx(l2_ref, rel=1e-8)
    assert h1 == pytest.approx(h1_ref, rel=1e-8)


def test_indicator_carries_the_exact_error_norms(kernel_case):
    problem, _, u_h = kernel_case
    ind = error_indicators(u_h, problem, q=5)
    assert (ind.l2_error, ind.h1_error) == exact_error_norms(u_h, q=5)
    # the norms ride along without touching eta, which matches the
    # per-cell oracle
    alone = error_indicators(u_h, dataclasses.replace(problem, u_exact=None, grad_exact=None), q=5)
    assert (alone.l2_error, alone.h1_error) == (None, None)
    assert list(alone.eta.items()) == list(ind.eta.items())
    _assert_block_diameters_match(u_h.space, u_h.geometry, 5)
    ref = _reference_error_indicators(u_h, problem, 5)
    assert max(abs(ind.eta[c] - ref.eta[c]) for c in ref.eta) <= 1e-10 * ref.total


def test_exact_error_norms_need_an_exact_solution():
    space, geometry = unit_setup(1)
    problem = dataclasses.replace(square_sin_problem(), u_exact=None, grad_exact=None)
    u_h = DiscreteSolution(SplineField(space, np.zeros(space.dim)), geometry, problem)
    with pytest.raises(ValueError, match="no exact solution"):
        exact_error_norms(u_h)


# the third case walks several blocks per round
_ROUNDS = pytest.mark.parametrize("build, config", [
    (lambda: lshape_benchmark(2), SolveConfig(max_levels=1)),
    (lambda: make_problem("square_sin", (4, 4)), SolveConfig(max_levels=1)),
    (lambda: make_problem("square_sin", (12, 12)), SolveConfig(max_levels=1))],
    ids=["lshape", "square_sin", "square_sin_12x12"])


@_ROUNDS
def test_each_round_evaluates_the_geometry_once(monkeypatch, build, config):
    # the assembly's walk evaluates the map at the Gauss points of every
    # active cell once per round, and the estimator reads those blocks
    # back; only the residual evaluates second derivatives
    phase, spaces, built, orders = [None], [], [], []
    cell_block, eval_patches = solver._CellBlock, solver._eval_patches

    def counted_block(space, geometry, cids, *args):
        built.append((phase[0], space.dim, list(cids)))
        return cell_block(space, geometry, cids, *args)

    def recorded_eval(P, tables, order, *args):
        orders.append((phase[0], order))
        return eval_patches(P, tables, order, *args)

    def in_phase(name, fn):
        def run(*args, **kwargs):
            phase[0] = name
            if name == "assemble":
                spaces.append(args[0])
            try:
                return fn(*args, **kwargs)
            finally:
                phase[0] = None
        return run

    monkeypatch.setattr(solver, "_CellBlock", counted_block)
    monkeypatch.setattr(solver, "_eval_patches", recorded_eval)
    monkeypatch.setattr(solver, "assemble", in_phase("assemble", solver.assemble))
    monkeypatch.setattr(solver, "error_indicators", in_phase("estimate", solver.error_indicators))
    problem, geometry = build()
    _, report = adaptive_solve(problem, geometry, config)
    assert len(report.levels) == 2 and report.final.h1_error is not None
    assert [space.dim for space in spaces] == [lev.dof for lev in report.levels]
    walked = {}
    for name, dim, cids in built:
        walked.setdefault((name, dim), []).extend(cids)
    assert walked == {("assemble", space.dim): space.mesh.active_cells() for space in spaces}
    # `_Points` takes the map's value and first derivatives by its own
    # matmul, so `_eval_patches` sees second derivatives only in the estimate
    assert not any(sum(order) == 2 for name, order in orders if name == "assemble")
    assert max(sum(order) for name, order in orders if name == "estimate") == 2

    # standalone calls walk and evaluate by themselves
    space = geometry.space
    u_h = DiscreteSolution(SplineField(space, np.zeros(space.dim)), geometry, problem)
    for call, second in ((lambda: assemble(space, geometry, problem), False),
                         (lambda: error_indicators(u_h, problem), True)):
        del built[:], orders[:]
        call()
        assert [cid for _, _, cids in built for cid in cids] == space.mesh.active_cells()
        assert any(sum(order) == 2 for _, order in orders) == second


@_ROUNDS
def test_a_round_reads_what_standalone_calls_compute(monkeypatch, build, config):
    # the round's system and indicator, from one walk, are bitwise those of
    # standalone `assemble` and `error_indicators` on the same solution
    systems, indicators = [], []
    assemble_round, estimate_round = solver.assemble, solver.error_indicators

    def kept_system(space, geometry, problem, q=5):
        systems.append((space, geometry, problem, q, assemble_round(space, geometry, problem, q)))
        return systems[-1][-1]

    def kept_indicator(u_h, problem=None, q=5):
        indicators.append((u_h.field, estimate_round(u_h, problem, q)))
        return indicators[-1][-1]

    monkeypatch.setattr(solver, "assemble", kept_system)
    monkeypatch.setattr(solver, "error_indicators", kept_indicator)
    problem, geometry = build()
    _, report = adaptive_solve(problem, geometry, config)
    assert len(systems) == len(indicators) == len(report.levels) == 2
    for (space, walked, problem, q, (A, F)), (field, ind) in zip(systems, indicators):
        assert isinstance(walked, solver._RoundGeometry)
        plain = Geometry(walked.field, walked.degenerate_params)
        A_ref, F_ref = assemble(space, plain, problem, q)
        assert all(getattr(A, name).tobytes() == getattr(A_ref, name).tobytes()
                   for name in ("indptr", "indices", "data"))
        assert F.tobytes() == F_ref.tobytes()
        ref = error_indicators(DiscreteSolution(field, plain, problem), problem, q)
        assert list(ind.eta) == list(ref.eta)
        assert np.array(list(ind.eta.values())).tobytes() == np.array(list(ref.eta.values())).tobytes()
        _assert_block_diameters_match(space, plain, q, solver._neumann_segments(problem))
        assert (ind.l2_error, ind.h1_error) == (ref.l2_error, ref.h1_error)
        assert ref.l2_error is not None and ref.h1_error is not None


def test_round_geometry_replays_only_its_own_walk():
    problem, geometry = lshape_benchmark(2)
    space = geometry.space
    u_h, _ = _solve_round(space, geometry, problem, SolveConfig())
    walked = solver._RoundGeometry(geometry)
    assemble(space, walked, problem)
    on_round = dataclasses.replace(u_h, geometry=walked)
    # another q, or the walk without the Neumann part, evaluates afresh
    assert error_indicators(on_round, problem, q=4).eta == error_indicators(u_h, problem, q=4).eta
    assert exact_error_norms(on_round) == exact_error_norms(u_h)
    assert walked.blocks
    # the same walk reads the kept blocks back once, and a third evaluates
    for _ in range(2):
        got = error_indicators(on_round, problem)
        assert got.eta == error_indicators(u_h, problem).eta and walked.blocks is None


def _round_objects():
    gc.collect()
    return sum(isinstance(o, (solver._CellBlock, solver._RoundGeometry)) for o in gc.get_objects())


def test_a_solve_keeps_no_round_geometry():
    # the kept blocks of the one round add about 1.4 MiB at this size, where
    # the round peaks at 4.8 MiB with blocks of 128 cells and the band of
    # its Cholesky factor filled from the stiffness blocks (with blocks of
    # 64: 4.6 MiB, and 5.0 MiB with the band copied from a CSR slice of the
    # matrix, 6.5 MiB on a reverse Cuthill-McKee order, 6.8 MiB with index
    # arrays over the whole matrix)
    assert _peak_mib(adaptive_solve, *make_problem("square_sin", (24, 24)),
                     SolveConfig(max_levels=0)) <= 5.5
    before = _round_objects()
    problem, geometry = make_problem("square_sin", (4, 4))
    solution, report = adaptive_solve(problem, geometry, SolveConfig(max_levels=1))
    assert len(report.levels) == 2
    assert type(solution.geometry) is Geometry
    assert _round_objects() == before


def test_assemble_reads_geometry_in_its_own_numbering():
    # the solution space numbers the functions differently from the space
    # the geometry coefficients belong to
    problem, geometry = lshape_benchmark(4)
    space = geometry.space
    permuted, order = permuted_space(space, seed=3)
    A, F = assemble(space, geometry, problem)
    A_perm, F_perm = assemble(permuted, geometry, problem)
    scale = np.max(np.abs(A.data))
    assert np.max(np.abs(A_perm.toarray() - A.toarray()[np.ix_(order, order)])) <= 1e-12 * scale
    assert np.max(np.abs(F_perm - F[order])) <= 1e-12 * np.max(np.abs(F))


def _peak_mib(fn, *args, **kwargs):
    gc.collect()
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_kernel_memory_is_bounded_by_blocks():
    # Blocks of 128 cells peak at 3.2 MiB for `assemble`, with the entries
    # it gathers for all cells at once, 1.6 MiB for `error_indicators` and
    # 1.2 MiB for `exact_error_norms` at this size; whole-mesh tables would
    # need about 7.1, 5.5 and 3.2 MiB.
    problem, geometry = make_problem("square_sin", (24, 24))
    u_h, _ = _solve_round(geometry.space, geometry, problem, SolveConfig(quadrature=5))
    assert _peak_mib(assemble, geometry.space, geometry, problem, q=5) <= 4.3
    assert _peak_mib(error_indicators, u_h, problem, q=5) <= 2.0
    assert _peak_mib(exact_error_norms, u_h, q=5) <= 2.0


def test_folded_geometry_raises_named_error():
    # the interior vertex at (1/2, 1/2) of the 4 x 4 map moved by 0.6 in x:
    # det J changes sign inside the cells right of it
    problem, geometry = make_problem("square_sin", (4, 4))
    space = geometry.space
    center = vertex_at(space.mesh, 0.5, 0.5)
    coefficients = geometry.field.coefficients.copy()
    k = space.vertex_row[center]
    coefficients[4 * k:4 * k + 4, 0] += collocation_block(space, center).solve([0.6, 0, 0, 0])
    folded = Geometry(SplineField(space, coefficients))
    match = r"geometry folds over cell \d+: det J = -\d\.\d+ at \(0\.\d+, 0\.\d+\)"
    for levels in (0, 2):
        with pytest.raises(ValueError, match=match):
            adaptive_solve(problem, folded, SolveConfig(max_levels=levels))
    with pytest.raises(ValueError, match=match):
        assemble(space, folded, problem)


def test_reflected_geometry_solves_like_the_original():
    # det J < 0 everywhere: a reversed orientation is no fold
    problem, geometry = make_problem("square_sin", (4, 4))
    reflected = linear_geometry(geometry.space, rect=(1, 0, 0, 1))
    assert np.all(solver._cell_blocks(geometry.space, reflected, 3).__next__().grid.det < 0)
    _, want = adaptive_solve(problem, geometry, SolveConfig(max_levels=1))
    _, got = adaptive_solve(problem, reflected, SolveConfig(max_levels=1))
    assert got.final.h1_error == pytest.approx(want.final.h1_error, rel=1e-9, abs=0)
    assert got.final.dof == want.final.dof


def test_degenerate_geometry_raises_named_error():
    space = build_initial_space(create_tensor_mesh(2, 2))
    geometry = linear_geometry(space, rect=(0.0, 0.0, 0.0, 1.0))   # det J = 0
    problem = square_sin_problem()
    u_h = DiscreteSolution(SplineField(space, np.ones(space.dim)), geometry, problem)
    match = r"singular geometry Jacobian at a quadrature point of cell \d+"
    with pytest.raises(RuntimeError, match=match):
        assemble(space, geometry, problem)
    with pytest.raises(RuntimeError, match=match):
        error_indicators(u_h, problem)
    with pytest.raises(RuntimeError, match=match):
        exact_error_norms(u_h)
