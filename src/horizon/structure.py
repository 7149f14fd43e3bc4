"""Scaling structure of vector fields.

Quasi-homogeneity verification (exact and asymptotic/numeric), and the
Newton polyhedron and diagram for planar fields at a degenerate equilibrium.

Conventions.  A field f = (f_1, ..., f_n) is quasi-homogeneous of type
``alpha`` and order ``k+1`` when every term ``c * x^e`` of f_j satisfies
``<alpha, e> = k + alpha_j`` exactly.  The Newton diagram of a planar field
with f(0) = 0 is built from support points ``e - unit_j + (1, 1)`` (one per
term of component j), the lower-left compact faces of the convex envelope of
``support + R_+^2``; each face carries the primitive positive integer weight
vector normal to it, which is the blow-up weight choice for that face.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DomainError, NonPolynomialError
from .genpoly import GenPoly, frac

__all__ = [
    "TypeVector",
    "NewtonDiagram",
    "AqhReport",
    "check_quasi_homogeneous",
    "qh_component",
    "check_aqh_numeric",
    "newton_data",
]


@dataclass(frozen=True)
class TypeVector:
    """Scaling type: per-variable weights ``alpha`` and order parameter ``k``
    (the field's order is k+1).  Rational entries are admitted so positive
    homogeneity like order 2 + 1/a fits."""

    alpha: tuple[Fraction, ...]
    k: Fraction

    @staticmethod
    def make(alpha: Sequence, k) -> "TypeVector":
        a = tuple(frac(x) for x in alpha)
        if any(x < 0 for x in a):
            raise ValueError("type entries must be nonnegative")
        if not any(x > 0 for x in a):
            raise ValueError("at least one positive type entry is required")
        return TypeVector(a, frac(k))

    @property
    def homogeneity_indices(self) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.alpha) if a > 0)


def check_quasi_homogeneous(f: Sequence[GenPoly], t: TypeVector) -> bool:
    """Exact scaling check: every term of f_j has weighted degree k + alpha_j."""
    for j, fj in enumerate(f):
        target = t.k + t.alpha[j]
        for ev, _ in fj.terms:
            w = sum(a * e for a, e in zip(t.alpha, ev))
            if w != target:
                return False
    return True


def qh_component(f: Sequence[GenPoly], t: TypeVector) -> list[GenPoly]:
    """The quasi-homogeneous part: terms whose weighted degree is exactly
    k + alpha_j (the scaling limit of the field at infinity)."""
    out = []
    for j, fj in enumerate(f):
        target = t.k + t.alpha[j]
        kept = {
            ev: c
            for ev, c in fj.terms
            if sum(a * e for a, e in zip(t.alpha, ev)) == target
        }
        out.append(GenPoly(fj.vars, kept))
    return out


@dataclass(frozen=True)
class AqhReport:
    """Residuals of the asymptotic quasi-homogeneity limit on a fixed mesh."""

    R_grid: tuple[float, ...]
    max_residual: tuple[float, ...]
    decays: bool
    mesh_size: int


def _unit_sphere_mesh(dim: int, n_angular: int = 32):
    """Deterministic mesh of the Euclidean unit sphere S^{dim-1}."""
    if dim == 1:
        return [(-1.0,), (1.0,)]
    if dim == 2:
        return [
            (math.cos(2 * math.pi * i / n_angular), math.sin(2 * math.pi * i / n_angular))
            for i in range(n_angular)
        ]
    # low-dimensional product mesh, normalized; fine for the casebook sizes
    pts = []
    grid = np.linspace(-1.0, 1.0, 7)
    for combo in itertools.product(grid, repeat=dim):
        v = np.asarray(combo)
        nrm = float(np.linalg.norm(v))
        if nrm < 1e-9:
            continue
        pts.append(tuple(v / nrm))
    return pts


def check_aqh_numeric(
    f: Sequence[GenPoly],
    t: TypeVector,
    R_grid: Sequence[float],
    *,
    boxes: dict[str, tuple[float, float]] | None = None,
    positive: Sequence[str] = (),
    n_angular: int = 32,
    box_points: int = 5,
) -> AqhReport:
    """Sample the asymptotic quasi-homogeneity residual on a fixed mesh.

    residual_j(R) = R^-(k+alpha_j) * |f_j(R^alpha . x) - R^(k+alpha_j) (f_qh)_j(x)|
    over x in a surrogate of U_1: sphere mesh for the weighted variables,
    a compact box grid for the others.  Reports the max residual per R and a
    monotone-decay verdict.
    """
    R_grid = tuple(float(R) for R in R_grid)
    if len(R_grid) < 4 or any(b <= a for a, b in zip(R_grid, R_grid[1:])):
        raise ValueError("R_grid must be increasing with at least 4 points")
    if R_grid[-1] < 1e4:
        raise ValueError("R_grid must reach at least 1e4")
    vars = f[0].vars
    n = len(vars)
    idx_alpha = t.homogeneity_indices
    idx_rest = tuple(i for i in range(n) if i not in idx_alpha)
    fqh = qh_component(f, t)

    sphere = _unit_sphere_mesh(len(idx_alpha), n_angular)
    if positive:
        keep = []
        for p in sphere:
            ok = all(
                p[j] > 0
                for j, i in enumerate(idx_alpha)
                if vars[i] in positive
            )
            if ok:
                keep.append(p)
        sphere = keep
    boxes = boxes or {}
    rest_axes = []
    for i in idx_rest:
        lo, hi = boxes.get(vars[i], (-1.0, 1.0))
        rest_axes.append(np.linspace(lo, hi, box_points))
    rest_pts = list(itertools.product(*rest_axes)) if rest_axes else [()]

    mesh = []
    for sp in sphere:
        for rp in rest_pts:
            x = [0.0] * n
            for j, i in enumerate(idx_alpha):
                x[i] = sp[j]
            for j, i in enumerate(idx_rest):
                x[i] = rp[j]
            mesh.append(tuple(x))
    if not mesh:
        raise ValueError("empty sampling mesh after domain filtering")

    maxres = []
    for R in R_grid:
        worst = 0.0
        for j, fj in enumerate(f):
            target = t.k + t.alpha[j]
            # residual polynomial R^-(k+a_j) f_j(R^a x) - (f_qh)_j(x):
            # quasi-homogeneous terms cancel exactly, the rest pick up the
            # explicit factor R^(w - target) < 1.
            resid_terms = {}
            for ev, c in fj.terms:
                w = sum(a * e for a, e in zip(t.alpha, ev))
                if w == target:
                    continue
                resid_terms[ev] = c * R ** float(w - target)
            if not resid_terms:
                continue
            resid = GenPoly(fj.vars, resid_terms)
            for x in mesh:
                try:
                    res = abs(resid.eval(x))
                except DomainError:
                    continue
                if res > worst:
                    worst = res
        maxres.append(worst)
    decays = all(b <= a * 1.001 + 1e-14 for a, b in zip(maxres, maxres[1:]))
    return AqhReport(R_grid, tuple(maxres), decays, len(mesh))


# -- Newton polyhedron / diagram (planar) ------------------------------------


@dataclass(frozen=True)
class NewtonDiagram:
    """Vertices and compact faces of the planar Newton polyhedron.

    ``vertices`` are support points on the lower-left boundary, sorted by
    first coordinate; ``faces`` are index pairs into ``vertices``; ``weights``
    holds the primitive positive normal (w1, w2) of each face.
    """

    support: frozenset[tuple[int, int]]
    vertices: tuple[tuple[int, int], ...]
    faces: tuple[tuple[int, int], ...]
    weights: tuple[tuple[int, int], ...]


def _support_points(X: Sequence[GenPoly]) -> set[tuple[int, int]]:
    """Support points of a planar vector field."""
    if len(X) != 2 or len(X[0].vars) != 2:
        raise NonPolynomialError("Newton diagrams are implemented for planar fields")
    pts: set[tuple[int, int]] = set()
    for j, fj in enumerate(X):
        for ev, _ in fj.terms:
            for e in ev:
                if e.denominator != 1 or e < 0:
                    raise NonPolynomialError(
                        f"support requires nonnegative integer exponents, got {ev}"
                    )
            if all(e == 0 for e in ev):
                raise NonPolynomialError("field must vanish at the origin")
            pts.add((int(ev[0]) + 1 - (1 if j == 0 else 0),
                     int(ev[1]) + 1 - (1 if j == 1 else 0)))
    return pts


def newton_data(X: Sequence[GenPoly]) -> NewtonDiagram:
    """Newton polyhedron vertices, compact faces, and per-face weights."""
    support = _support_points(X)
    pts = sorted(support)
    # Pareto-minimal points: anything dominated componentwise lies in the
    # interior of support + R_+^2 and cannot be a vertex.
    minimal = [
        p
        for p in pts
        if not any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in pts)
    ]
    # Sorted by x, minimal points have strictly decreasing y; the vertices are
    # the lower convex chain (exact integer orientation tests).
    chain: list[tuple[int, int]] = []
    for p in minimal:
        while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0:
            chain.pop()
        chain.append(p)
    vertices = tuple(chain)
    faces = []
    weights = []
    for i in range(len(vertices) - 1):
        (x1, y1), (x2, y2) = vertices[i], vertices[i + 1]
        dx, dy = x2 - x1, y2 - y1  # dx > 0, dy < 0
        g = math.gcd(dx, -dy)
        faces.append((i, i + 1))
        weights.append((-dy // g, dx // g))
    return NewtonDiagram(frozenset(support), vertices, tuple(faces), tuple(weights))


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
