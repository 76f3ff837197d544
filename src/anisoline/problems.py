"""Poisson model problems: -laplace(u) = f, u = g_D on the Dirichlet part,
du/dn = g_N on the Neumann part of the boundary.

Boundary parts are lists of parameter-boundary segments ("s0", lo, hi)
etc., naming the parameter-square edge and the parameter range along it.
The built-in registry carries the problems the command line exposes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import linear_geometry, lshape_geometry

__all__ = ["PoissonProblem", "BUILTIN_PROBLEMS", "make_problem", "lshape_benchmark",
           "lshape_exact", "lshape_exact_gradient"]

_EDGES = ("s0", "s1", "t0", "t1")


@dataclass
class PoissonProblem:
    """Problem data; callables take physical coordinate arrays."""
    name: str
    f: callable
    dirichlet: list                      # [(edge, lo, hi)] in parameters
    neumann: list = field(default_factory=list)
    g_dirichlet: callable = None         # None -> homogeneous
    g_neumann: callable = None           # (x, y, nx, ny) -> flux
    u_exact: callable = None
    grad_exact: callable = None

    def __post_init__(self):
        for seg in list(self.dirichlet) + list(self.neumann):
            if seg[0] not in _EDGES or not (seg[1] < seg[2]):
                raise ValueError(f"bad boundary segment {seg}")
        if not self.dirichlet:
            raise ValueError("the Dirichlet part must have positive length")
        cover = {e: [] for e in _EDGES}
        for seg in list(self.dirichlet) + list(self.neumann):
            cover[seg[0]].append((seg[1], seg[2]))
        for e, spans in cover.items():
            spans.sort()
            pos = 0.0
            for lo, hi in spans:
                if lo < pos - 1e-12:
                    raise ValueError(f"overlapping boundary segments on edge {e}")
                if lo > pos + 1e-12:
                    raise ValueError(f"edge {e} not fully covered by boundary parts")
                pos = hi
            if pos < 1.0 - 1e-12:
                raise ValueError(f"edge {e} not fully covered by boundary parts")


def _all_dirichlet():
    return [(e, 0.0, 1.0) for e in _EDGES]


def lshape_exact(x, y):
    """Harmonic benchmark solution r^(2/3) sin((2 theta - pi)/3), with the
    angle measured continuously from the positive x axis through the
    upper half plane (theta in [pi/2, 2 pi] on the L-shape)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = np.hypot(x, y)
    th = np.arctan2(y, x)
    th = np.where(th < np.pi / 2 - 1e-12, th + 2 * np.pi, th)
    out = r ** (2.0 / 3.0) * np.sin((2.0 * th - np.pi) / 3.0)
    return np.where(r == 0, 0.0, out)


def lshape_exact_gradient(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = np.hypot(x, y)
    th = np.arctan2(y, x)
    th = np.where(th < np.pi / 2 - 1e-12, th + 2 * np.pi, th)
    rm = np.where(r == 0, np.inf, r) ** (-1.0 / 3.0)
    ang = (th + np.pi) / 3.0
    ux = -(2.0 / 3.0) * rm * np.sin(ang)
    uy = (2.0 / 3.0) * rm * np.cos(ang)
    return np.stack([ux, uy], axis=-1)


def patch_linear_problem():
    a, b, c = 0.25, 0.7, 1.3

    def u(x, y):
        return a + b * np.asarray(x) + c * np.asarray(y)

    def grad(x, y):
        x = np.asarray(x, dtype=float)
        return np.stack([np.full_like(x, b), np.full_like(x, c)], axis=-1)

    return PoissonProblem(
        name="patch_linear",
        f=lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
        dirichlet=_all_dirichlet(),
        g_dirichlet=u,
        u_exact=u,
        grad_exact=grad,
    )


def square_sin_problem():
    def u(x, y):
        return np.sin(np.pi * np.asarray(x)) * np.sin(np.pi * np.asarray(y))

    def grad(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.stack([np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
                         np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)], axis=-1)

    return PoissonProblem(
        name="square_sin",
        f=lambda x, y: 2 * np.pi ** 2 * u(x, y),
        dirichlet=_all_dirichlet(),
        u_exact=u,
        grad_exact=grad,
    )


def lshape_problem():
    def g_neumann(x, y, nx, ny):
        g = lshape_exact_gradient(x, y)
        return g[..., 0] * nx + g[..., 1] * ny

    return PoissonProblem(
        name="lshape",
        f=lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
        dirichlet=[("t0", 0.0, 1.0)],
        neumann=[("s0", 0.0, 1.0), ("s1", 0.0, 1.0), ("t1", 0.0, 1.0)],
        g_neumann=g_neumann,
        u_exact=lshape_exact,
        grad_exact=lshape_exact_gradient,
    )


def lshape_benchmark(n=4):
    """Problem plus single-patch geometry for the corner-singularity run."""
    return lshape_problem(), lshape_geometry(n)


BUILTIN_PROBLEMS = {
    "patch_linear": patch_linear_problem,
    "square_sin": square_sin_problem,
    "lshape": lshape_problem,
}


def make_problem(name, initial_grid=(2, 2)):
    """Problem and matching geometry by registry name."""
    if name not in BUILTIN_PROBLEMS:
        raise KeyError(
            f"unknown problem {name!r}; registry: {sorted(BUILTIN_PROBLEMS)}")
    problem = BUILTIN_PROBLEMS[name]()
    if name == "lshape":
        ns = initial_grid[0]
        geometry = lshape_geometry(ns if ns % 2 == 0 else ns + 1)
    else:
        from .space import build_initial_space
        from .tmesh import create_tensor_mesh
        space = build_initial_space(create_tensor_mesh(*initial_grid))
        geometry = linear_geometry(space)
    return problem, geometry
