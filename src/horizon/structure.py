"""Scaling structure of vector fields.

The exact certificate of a scaling type, the type of a planar field at
infinity, and the Newton diagram for planar fields at a degenerate equilibrium.

Conventions.  A field f = (f_1, ..., f_n) is quasi-homogeneous of type
``alpha`` and order ``k+1`` when every term ``c * x^e`` of f_j satisfies
``<alpha, e> = k + alpha_j`` exactly, and asymptotically quasi-homogeneous
(AQH) when every term has ``<alpha, e> <= k + alpha_j`` with some term
reaching it (:func:`certify_type`).  The Newton diagram of a planar field
with f(0) = 0 is built from support points ``e - unit_j + (1, 1)`` (one per
term of component j), the lower-left compact faces of the convex envelope of
``support + R_+^2``; each face carries the primitive positive integer weight
vector normal to it, which is the blow-up weight choice for that face.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import NonPolynomialError, ResidualSingularityError
from .genpoly import GenPoly, format_genpoly, frac

__all__ = [
    "TypeVector",
    "NewtonDiagram",
    "certify_type",
    "newton_data",
    "type_at_infinity",
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


def certify_type(f: Sequence[GenPoly], t: TypeVector) -> Fraction | None:
    """Certify exactly that ``f`` is asymptotically quasi-homogeneous of type
    ``t``: the type has one entry per component, no term ``c x^e`` of f_j
    lies above weighted degree ``k + alpha_j``, and some term reaches it.

    Returns None when every term reaches it (f is quasi-homogeneous), else
    the largest ``<alpha, e> - k - alpha_j`` over the lower terms: the power
    of R at which ``R^-(k+alpha_j) f_j(R^alpha x)`` approaches its limit
    (-1 for lienard).  Raises ResidualSingularityError naming the component
    and the term otherwise.
    """
    if len(t.alpha) != len(f):
        raise ResidualSingularityError(
            f"type ({_fmt(t.alpha)}) has length {len(t.alpha)} for a field "
            f"of dimension {len(f)}"
        )
    gap = None
    reached = False
    for j, fj in enumerate(f):
        target = t.k + t.alpha[j]
        for ev, c in fj.terms:
            d = sum(a * e for a, e in zip(t.alpha, ev)) - target
            if d > 0:
                term = format_genpoly(GenPoly(fj.vars, {ev: c}))
                raise ResidualSingularityError(
                    f"component {fj.vars[j]!r} has the term {term} of weighted "
                    f"degree {target + d} above k + alpha_j = {target}; the field "
                    f"is not asymptotically quasi-homogeneous of type "
                    f"({_fmt(t.alpha)}), k = {t.k}"
                )
            reached = reached or d == 0
            if d < 0 and (gap is None or d > gap):
                gap = d
    if not reached:
        raise ResidualSingularityError(
            f"no term reaches weighted degree k + alpha_j for type "
            f"({_fmt(t.alpha)}), k = {t.k}; k is too high for this field"
        )
    return gap


def type_at_infinity(f: Sequence[GenPoly]) -> TypeVector:
    """The type of a planar field at infinity: a normal ``alpha >= 0`` (least
    positive entry 1) of two points ``p = e - unit_j``, one per term ``c x^e`` of
    f_j, both at ``k = max <alpha, p>``; none or several raise an error listing them."""
    if len(f) != 2 or len(f[0].vars) != 2:
        raise ResidualSingularityError(
            f"a field of {len(f)} components over {len(f[0].vars)} variables is not planar")
    pts = {tuple(e - (i == j) for i, e in enumerate(ev))
           for j, fj in enumerate(f) for ev, _ in fj.terms}
    found = set()
    for n in {(q[1] - p[1], p[0] - q[0]) for p in pts for q in pts if p != q}:
        if min(n) >= 0:
            alpha = tuple(x / min(x for x in n if x > 0) for x in n)
            levels = sorted(alpha[0] * x + alpha[1] * y for x, y in pts)
            if levels[-1] == levels[-2]:
                found.add((alpha, levels[-1]))
    if len(found) != 1:
        raise ResidualSingularityError(
            f"the points {', '.join(f'({_fmt(p)})' for p in sorted(pts))} at infinity have "
            f"{len(found)} upper faces with a normal alpha >= 0"
            + "".join(f"; ({_fmt(a)}), k = {k}" for a, k in sorted(found)))
    return TypeVector(*found.pop())


def _fmt(alpha) -> str:
    return ", ".join(str(a) for a in alpha)


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
