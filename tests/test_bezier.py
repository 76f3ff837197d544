"""Bezier patch kernel: evaluation, de Casteljau splits, corner data."""

import numpy as np
import pytest

from anisoline import bezier
from anisoline.space import _bernstein_tables, _eval_patches
from oracles import corner_data, eval_patch


_SPLIT_LO = np.array([
    [1, 0, 0, 0],
    [1 / 2, 1 / 2, 0, 0],
    [1 / 4, 1 / 2, 1 / 4, 0],
    [1 / 8, 3 / 8, 3 / 8, 1 / 8],
])
_SPLIT_HI = _SPLIT_LO[::-1, ::-1].copy()
_CORNERS = [(0, 0), (1, 0), (0, 1), (1, 1)]        # (cs, ct) in corner code order cs + 2 * ct


def _reference_split_patch(p, kind):
    """The per-patch split the batched kernel replaced: children in mesh order."""
    if kind == "H":
        return (np.einsum("ki,ij...->kj...", _SPLIT_LO, p),
                np.einsum("ki,ij...->kj...", _SPLIT_HI, p))
    if kind == "V":
        return (np.einsum("kj,ij...->ik...", _SPLIT_LO, p),
                np.einsum("kj,ij...->ik...", _SPLIT_HI, p))
    bottom, top = _reference_split_patch(p, "H")
    return _reference_split_patch(bottom, "V") + _reference_split_patch(top, "V")


def _reference_zero_corner_block(p, corner):
    """The per-patch zeroing of a corner block, for the reference level advance."""
    p = np.array(p, dtype=float, copy=True)
    cs, ct = corner
    for i in ((0, 1) if ct == 0 else (2, 3)):
        for j in ((0, 1) if cs == 0 else (2, 3)):
            p[i, j] = 0.0
    return p


def random_patch(rng, arity=None):
    shape = (4, 4) if arity is None else (4, 4, arity)
    return rng.uniform(-2, 2, size=shape)


def bicubic_to_ordinates(coeffs):
    """Ordinates of sum_{a,b} coeffs[a,b] u^a v^b (a power of u, b of v)."""
    # power -> Bernstein change of basis for cubics
    M = np.array([
        [1, 0, 0, 0],
        [1, 1 / 3, 0, 0],
        [1, 2 / 3, 1 / 3, 0],
        [1, 1, 1, 1],
    ])
    # p(u,v) = sum coeffs[a,b] u^a v^b ; ordinates b[i,j] = sum M[j,a] M[i,b] coeffs[a,b]
    return np.einsum("ja,ib,ab->ij", M, M, coeffs)


def eval_power(coeffs, u, v, du=0, dv=0):
    c = np.array(coeffs, dtype=float)
    for _ in range(du):
        c = c[1:] * np.arange(1, c.shape[0])[:, None]
    for _ in range(dv):
        c = c[:, 1:] * np.arange(1, c.shape[1])[None, :]
    return sum(c[a, b] * u ** a * v ** b for a in range(c.shape[0]) for b in range(c.shape[1]))


def test_constant_patch_partition():
    p = np.ones((4, 4))
    for (u, v) in [(0, 0), (0.3, 0.8), (1, 1), (0.5, 0.5)]:
        assert eval_patch(p, u, v) == pytest.approx(1.0, abs=1e-15)


def test_endpoint_interpolation():
    rng = np.random.default_rng(0)
    p = random_patch(rng)
    assert eval_patch(p, 0, 0) == pytest.approx(p[0, 0], abs=1e-15)
    assert eval_patch(p, 1, 0) == pytest.approx(p[0, 3], abs=1e-15)
    assert eval_patch(p, 0, 1) == pytest.approx(p[3, 0], abs=1e-15)


def test_bilinear_uv_patch():
    # f(u,v) = u*v has ordinates b[i,j] = i*j/9
    p = np.fromfunction(lambda i, j: i * j / 9.0, (4, 4))
    assert eval_patch(p, 0.5, 0.5) == pytest.approx(0.25, abs=1e-14)
    assert eval_patch(p, 0.2, 0.7) == pytest.approx(0.14, abs=1e-14)


def test_polynomial_reproduction_with_derivatives():
    rng = np.random.default_rng(1)
    coeffs = rng.uniform(-1, 1, size=(4, 4))
    p = bicubic_to_ordinates(coeffs)
    pts = rng.uniform(0, 1, size=(50, 2))
    for (u, v) in pts:
        for (a, b) in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]:
            want = eval_power(coeffs, u, v, a, b)
            got = eval_patch(p, u, v, (a, b))
            assert got == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(2)
    p = random_patch(rng)
    h = 1e-5
    for (u, v) in rng.uniform(0.1, 0.9, size=(10, 2)):
        fd = (eval_patch(p, u + h, v) - eval_patch(p, u - h, v)) / (2 * h)
        assert eval_patch(p, u, v, (1, 0)) == pytest.approx(fd, abs=1e-6)
        fd = (eval_patch(p, u, v + h) - eval_patch(p, u, v - h)) / (2 * h)
        assert eval_patch(p, u, v, (0, 1)) == pytest.approx(fd, abs=1e-6)


def test_deriv_order_rejected():
    p = np.zeros((4, 4))
    with pytest.raises(ValueError):
        eval_patch(p, 0.5, 0.5, (2, 1))


def test_split_constant():
    P = np.full((3, 4, 4), 3.5)
    for kind, k in (("H", 2), ("V", 2), ("C", 4)):
        assert np.array_equal(bezier.split_patches(P, kind), np.full((3, k, 4, 4), 3.5))


@pytest.mark.parametrize("kind", ["H", "V", "C"])
def test_split_eval_agreement(kind):
    rng = np.random.default_rng(3)
    p = random_patch(rng)
    kids = bezier.split_patches(p[None], kind)[0]
    pts = rng.uniform(0, 1, size=(100, 2))
    for (u, v) in pts:
        want = eval_patch(p, u, v)
        if kind == "H":
            child, cu, cv = (kids[0], u, 2 * v) if v <= 0.5 else (kids[1], u, 2 * v - 1)
        elif kind == "V":
            child, cu, cv = (kids[0], 2 * u, v) if u <= 0.5 else (kids[1], 2 * u - 1, v)
        else:
            qi = (0 if v <= 0.5 else 2) + (0 if u <= 0.5 else 1)
            cu = 2 * u if u <= 0.5 else 2 * u - 1
            cv = 2 * v if v <= 0.5 else 2 * v - 1
            child = kids[qi]
        got = eval_patch(child, cu, cv)
        assert abs(got - want) <= 1e-12


def test_cross_split_is_v_then_h():
    rng = np.random.default_rng(4)
    P = np.stack([random_patch(rng) for _ in range(5)])
    left, right = np.moveaxis(bezier.split_patches(P, "V"), 1, 0)
    lb, lt = np.moveaxis(bezier.split_patches(left, "H"), 1, 0)
    rb, rt = np.moveaxis(bezier.split_patches(right, "H"), 1, 0)
    bl, br, tl, tr = np.moveaxis(bezier.split_patches(P, "C"), 1, 0)
    assert np.allclose(bl, lb, atol=1e-15)
    assert np.allclose(br, rb, atol=1e-15)
    assert np.allclose(tl, lt, atol=1e-15)
    assert np.allclose(tr, rt, atol=1e-15)


def test_split_vector_valued():
    # a vector-valued patch splits component by component
    rng = np.random.default_rng(5)
    p = random_patch(rng, arity=3)
    kids = bezier.split_patches(np.moveaxis(p, -1, 0), "C")
    assert kids.shape == (3, 4, 4, 4)
    got = eval_patch(np.moveaxis(kids[:, 3], 0, -1), 0.5, 0.5)
    want = eval_patch(p, 0.75, 0.75)
    assert np.allclose(got, want, atol=1e-13)


@pytest.mark.parametrize("kind", ["H", "V", "C"])
def test_split_patches_match_per_patch_reference(kind):
    rng = np.random.default_rng(8)
    P = rng.uniform(-2, 2, size=(50, 4, 4)) * 10.0 ** rng.integers(-3, 4, size=(50, 1, 1))
    got = bezier.split_patches(P, kind)
    assert got.shape == (50, 4 if kind == "C" else 2, 4, 4)
    for p, kids in zip(P, got):
        want = np.stack(_reference_split_patch(p, kind))
        assert np.max(np.abs(kids - want)) <= 1e-15 * np.max(np.abs(p))
    if kind != "C":
        # against the rule the Kronecker map replaced, stacks of 4x4
        # matmuls on the rows, then the columns: with one factor the
        # identity, the same four-term sums, bitwise
        split, keep = np.stack([_SPLIT_LO, _SPLIT_HI]), np.stack([np.eye(4)] * 2)
        rows, cols = (split, keep) if kind == "H" else (keep, np.swapaxes(split, 1, 2))
        assert got.tobytes() == (rows @ P[:, None] @ cols).tobytes()


def test_split_patches_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown split kind"):
        bezier.split_patches(np.zeros((1, 4, 4)), "X")


def test_corner_data_constant():
    p = np.ones((4, 4))
    for corner in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        d = corner_data(p, corner, 1.0, 1.0)
        assert np.allclose(d, [1, 0, 0, 0], atol=1e-15)


def test_corner_data_st_product():
    # f(s,t) = s*t on the unit cell
    p = np.fromfunction(lambda i, j: i * j / 9.0, (4, 4))
    d = corner_data(p, (1, 1), 1.0, 1.0)
    assert np.allclose(d, [1, 1, 1, 1], atol=1e-13)
    d = corner_data(p, (0, 0), 1.0, 1.0)
    assert np.allclose(d, [0, 0, 0, 1], atol=1e-13)


def test_corner_data_matches_eval_derivatives():
    rng = np.random.default_rng(6)
    p = random_patch(rng)
    w, h = 0.37, 2.25
    for corner in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        u, v = float(corner[0]), float(corner[1])
        want = [eval_patch(p, u, v, (0, 0)),
                eval_patch(p, u, v, (1, 0)) / w,
                eval_patch(p, u, v, (0, 1)) / h,
                eval_patch(p, u, v, (1, 1)) / (w * h)]
        got = corner_data(p, corner, w, h)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_corner_data_rejects_degenerate_cell():
    with pytest.raises(ValueError):
        corner_data(np.ones((4, 4)), (0, 0), 0.0, 1.0)


@pytest.mark.parametrize("kind", ["H", "V", "C"])
def test_split_corner_blocks_match_their_patches_split(kind):
    # a child's block at a parent corner depends on the parent's block
    # there alone, and is the same sum `split_patches` makes, so the
    # values agree with the split of the whole patch
    rng = np.random.default_rng(10)
    P = rng.uniform(-2, 2, size=(40, 4, 4)) * 10.0 ** rng.integers(-3, 4, size=(40, 1, 1))
    P[:5] = -0.0
    codes = rng.integers(0, 4, size=40)
    cs, ct = codes & 1, codes >> 1
    blocks = P.reshape(40, 2, 2, 2, 2)[np.arange(40), ct, :, cs, :]
    got = bezier.split_corner_blocks(blocks, codes, kind)
    kids = bezier.split_patches(P, kind).reshape(40, -1, 2, 2, 2, 2)
    want = kids[np.arange(40), bezier.CORNER_CHILD[kind][codes], ct, :, cs, :]
    assert got.shape == (40, 2, 2) and np.array_equal(got, want)
    # the child holding a corner lies on that corner's side of each cut
    assert [{"H": t, "V": s, "C": s + 2 * t}[kind] for s, t in _CORNERS] == \
        bezier.CORNER_CHILD[kind].tolist()


def test_eval_patch_many_matches_scalar():
    # the evaluation kernel of `space`, on three cells of unit size, with
    # points shared by all cells and with one row of points per cell
    rng = np.random.default_rng(7)
    P = np.stack([random_patch(rng) for _ in range(3)])            # (3, 4, 4)
    PV = np.moveaxis(np.stack([random_patch(rng, 2) for _ in range(3)]), -1, 1)
    u = rng.uniform(0, 1, (3, 20))
    v = rng.uniform(0, 1, (3, 20))
    ones = np.ones(3)
    for deriv in [(0, 0), (1, 0), (0, 2), (1, 1)]:
        shared = _eval_patches(P, _bernstein_tables(u[:1], v[:1], (deriv,)), deriv, ones, ones)
        rows = _eval_patches(PV, _bernstein_tables(u, v, (deriv,)), deriv, ones, ones)
        for c in range(3):
            single = [eval_patch(P[c], uu, vv, deriv) for uu, vv in zip(u[0], v[0])]
            assert np.allclose(shared[c], single, atol=1e-13)
            single = [eval_patch(np.moveaxis(PV[c], 0, -1), uu, vv, deriv)
                      for uu, vv in zip(u[c], v[c])]
            assert np.allclose(rows[c].T, single, atol=1e-13)
