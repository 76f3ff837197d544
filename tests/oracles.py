"""Reference paths and health checks that only the tests use.

`naive_subdivide` splits marked cells as labeled, without the refinement
strategy, so that its failure modes can be reproduced and rejected.
`verify_space` is a numerical health report of a spline space.
`ring_expand` grows a cell set by one ring of edge neighbors, one cell at
a time, for the per-vertex control estimate of the fitting tests.
"""

import numpy as np

from anisoline.refine import _check_markable, _split
from anisoline.space import (
    DERIV_ORDERS, HERMITE_ORDERS, SplineField, _bernstein_tables, _blocks, _Cells,
    _eval_patches, field_from_vertex_data,
)


def naive_subdivide(mesh, request):
    """Split marked cells exactly as labeled, skipping the strategy.

    This is the path the strategy exists to replace; its output can
    violate the refinement guarantees and is used to exercise
    :func:`anisoline.refine.check_refinement_invariants`.
    """
    _check_markable(mesh, request.marked)
    return _split(mesh, [], request.labels, request.labels)


def ring_expand(mesh, cells):
    """Active cells sharing an edge with the given set, and the set."""
    out = set(cells)
    for cid in cells:
        out |= mesh.edge_neighbors(cid)
    return out


def interior_edge_samples(mesh, n_per_edge=3):
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
    pieces = interior_edge_samples(mesh)
    c1_jump = 0.0
    if pieces:
        a, b, es, et = (np.concatenate([np.broadcast_to(p[k], p[2].shape) for p in pieces])
                        for k in range(4))
        jump = field.eval_located(a, es, et, DERIV_ORDERS[:3]) - \
            field.eval_located(b, es, et, DERIV_ORDERS[:3])
        c1_jump = float(np.max(np.abs(jump))) / scale

    # the Hermite data of the round-trip field, read in one incident cell
    vids = space.vertices
    data = {vid: rng.standard_normal(4) for vid in vids}
    rt = field_from_vertex_data(space, data)
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
