"""Local analysis on the horizon: its equilibria and its periodic orbit.

Root finding on the horizon slice, the four-way classification of the exact
chart Jacobian (hyperbolic / semi-hyperbolic / nilpotent / linearly-zero),
one-dimensional center-manifold series with the decay law of the reduced
flow, type-I rate prediction from the scaling type, and the return map of
the periodic orbit on a quasi-polar horizon without equilibria
(:func:`horizon_orbit`, on the in-repo DOP853 of
:mod:`horizon._dop853_qags`).

Classification tolerance is relative, |lambda| <= 1e-9 * (1 + ||J||_inf), so
it is stable under chart rescaling.  A stationary point at infinity with at
least one stable eigenvalue induces type-I rates (t_max - t)^(-alpha_i/k);
the statement is applied with n_s >= 1.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from ._dop853_qags import dop853
from .compactify import ChartField, horizon_slice
from .errors import DegenerateBeyondDegreeError, DomainError
from .genpoly import GenPoly, format_genpoly, frac, rows_function
from .quasitrig import table
from .rates import RateModel
from .structure import TypeVector

__all__ = [
    "EquilibriumRecord",
    "CenterSeries",
    "CmAsymptotics",
    "HorizonOrbit",
    "horizon_equilibria",
    "equilibria_of",
    "check_seed",
    "classify",
    "center_manifold_series_1d",
    "cm_flow_asymptotics",
    "type1_rate_prediction",
    "horizon_orbit",
]


ZERO_TOL_SCALE = 1e-9
# the multi-start Newton search of the equilibria no closed form decides
N_STARTS = 64
NEWTON_TOL = 1e-13
NEWTON_MAX_ITER = 60
DEDUPE = 1e-8
POLISH_PASSES = 16
SEARCH_RANGE = (-2.0, 2.0)  # of each variable, before widening to expected roots


@dataclass(frozen=True)
class EquilibriumRecord:
    chart_desc: str
    coords: tuple[float, ...]          # full chart coordinates (radial included)
    jacobian: tuple[tuple[float, ...], ...]
    eigenvalues: tuple[complex, ...]
    classification: str                # hyperbolic | semi-hyperbolic | nilpotent | linearly-zero
    n_stable: int
    n_unstable: int
    n_center: int

    def to_dict(self):
        return {
            "chart": self.chart_desc,
            "coords": list(self.coords),
            "jacobian": [list(r) for r in self.jacobian],
            "eigenvalues": [[z.real, z.imag] for z in self.eigenvalues],
            "classification": self.classification,
            "n_stable": self.n_stable,
            "n_unstable": self.n_unstable,
            "n_center": self.n_center,
        }


def _zero_tol(J: np.ndarray) -> tuple[float, float]:
    """The infinity norm of ``J`` and the zero tolerance relative to it,
    ``ZERO_TOL_SCALE * (1 + norm)``."""
    norm = float(np.abs(J).sum(axis=1).max()) if J.size else 0.0
    return norm, ZERO_TOL_SCALE * (1.0 + norm)


def classify(J: np.ndarray):
    """Four-way classification with the relative zero tolerance.

    Returns (label, n_stable, n_unstable, n_center, eigenvalues).
    """
    J = np.asarray(J, dtype=float)
    n = J.shape[0]
    norm, tol = _zero_tol(J)
    if norm <= ZERO_TOL_SCALE:
        eig = tuple(0.0 + 0.0j for _ in range(n))
        return "linearly-zero", 0, 0, n, eig
    eig = np.linalg.eigvals(J)
    order = np.argsort(eig.real)
    eig = eig[order]
    small = np.abs(eig) <= tol
    ns = int(np.sum(eig.real < -tol))
    nu = int(np.sum(eig.real > tol))
    nc = n - ns - nu
    if not small.any() and nc == 0:
        label = "hyperbolic"
    elif int(small.sum()) == 1 and ns + nu == n - 1:
        label = "semi-hyperbolic"
    elif small.all():
        label = "nilpotent"
    else:
        # center-type spectrum (pure imaginary pairs etc.); report as center
        label = "center"
    return label, ns, nu, nc, tuple(complex(z) for z in eig)


def _needs_nonnegative(comps: Sequence[GenPoly], v: str) -> bool:
    """True when some exponent of v is fractional or negative, so evaluation
    at v < 0 would leave the field's domain."""
    for p in comps:
        if v not in p.vars:
            continue
        i = p.vars.index(v)
        for ev, _ in p.terms:
            e = ev[i]
            if e != 0 and (e.denominator != 1 or e < 0):
                return True
    return False


def _norm(v) -> float:
    """``np.linalg.norm(v)`` bit for bit, without its wrapper: the square
    root of the array's own ``dot``, the one ddot the wrapper calls."""
    a = np.array(v, dtype=float)
    return math.sqrt(a.dot(a))


# where the Newton search cannot evaluate the field: a point outside its
# domain, or a power past the float range (a failed candidate, not an error)
_NO_VALUE = (DomainError, OverflowError)


def _norms(a: np.ndarray) -> np.ndarray:
    """:func:`_norm` of each row of the 2-D array ``a``, bit for bit: the
    matmul of a row with itself is numpy's vector ``dot``, the same ddot."""
    return np.sqrt(np.matmul(a[:, None, :], a[:, :, None])[:, 0, 0])


def _solves(J: np.ndarray, b: np.ndarray) -> list:
    """``np.linalg.solve(J[i], b[i])`` for each i by one stacked solve (each
    matrix through the same dgesv as alone).  A stack with a singular member
    raises, so it is halved until that member stands alone, and gives None."""
    try:
        return list(np.linalg.solve(J, b[..., None])[..., 0])
    except np.linalg.LinAlgError:
        if len(J) == 1:
            return [None]
        h = len(J) // 2
        return _solves(J[:h], b[:h]) + _solves(J[h:], b[h:])


def _values(fn, x: np.ndarray, width: int):
    """The rows of ``x`` where the :func:`rows_function` ``fn`` has values,
    as an index array, and those values as a ``(rows, width)`` array."""
    out = fn(x.tolist())
    ok = [i for i, v in enumerate(out) if type(v) is tuple]
    return np.array(ok, dtype=np.intp), np.array(
        [out[i] for i in ok], dtype=float).reshape(len(ok), width)


def _lockstep_newton(components, grads, starts, clip):
    """Damped Newton from every start at once, iterated until the step
    stalls, so multiple roots are followed all the way in instead of
    stopping on their flat residual basin; start by start, the root (a
    list of floats) or None.  Each start takes the float path it would
    take alone and ends where it would: its Jacobian has no value or is
    singular, its step is not finite, no trial of the halving line search
    lowers its residual norm, or the accepted step is below 1e-14 (1 + |x|).
    """
    m, n = len(components), len(clip)
    F, JF = rows_function(components), rows_function([g for row in grads for g in row])
    clip = np.array(clip, dtype=bool)
    x = np.array(starts, dtype=float).reshape(len(starts), n)
    idx, fx = _values(F, x, m)
    x = x[idx]
    nf = _norms(fx)
    live = np.arange(len(idx))
    for _ in range(NEWTON_MAX_ITER):
        if not len(live):
            break
        ok, J = _values(JF, x[live], m * n)
        live = live[ok]
        steps = _solves(J.reshape(len(ok), m, n), -fx[live])
        step = np.array([np.full(n, math.nan) if s is None else s  # singular
                         for s in steps]).reshape(len(steps), n)
        finite = np.isfinite(step).all(axis=1)
        live, step = live[finite], step[finite]
        xs, nfs = x[live], nf[live]
        tol = 1e-14 * (1.0 + _norms(xs))
        going, lam = [], 1.0
        for _ in range(8):
            cand = xs + lam * step
            cand[clip & (cand < 0.0)] = 0.0
            ok, fc = _values(F, cand, m)
            nc = _norms(fc)
            better = nc < nfs[ok]
            ok, fc, nc = ok[better], fc[better], nc[better]
            k, cand = live[ok], cand[ok]
            stalled = _norms(cand - xs[ok]) <= tol[ok]
            x[k], fx[k], nf[k] = cand, fc, nc
            going.append(k[~stalled])
            if len(ok) == len(live):
                break
            rest = np.ones(len(live), dtype=bool)
            rest[ok] = False
            live, step, xs, nfs, tol = live[rest], step[rest], xs[rest], nfs[rest], tol[rest]
            lam *= 0.5
        live = np.concatenate(going)
    root = nf <= NEWTON_TOL * (1.0 + _norms(x))
    found = dict(zip(idx[root].tolist(), x[root].tolist()))
    return [found.get(i) for i in range(len(starts))]


def _polish(F, x):
    """Step one coordinate at a time to a neighbouring double while that
    lowers the float residual norm, or keeps it and makes the last bit
    even, for at most ``POLISH_PASSES`` passes over the coordinates (near a
    degenerate root the residual can keep falling for many ulps).  It stops
    at a local minimum of the float residual, so runs from different starts
    can end some ulps apart even near a simple root: fhn m=2's root 1/4
    reads ``0.25`` at most seeds and ``0.24999999999999994`` at some."""
    x = list(x)
    best = (_norm(F(x)), _odd(x))
    for _ in range(POLISH_PASSES):
        moved = False
        for i in range(len(x)):
            for toward in (-math.inf, math.inf):
                trial = x.copy()
                trial[i] = math.nextafter(x[i], toward)
                try:
                    key = (_norm(F(trial)), _odd(trial))
                except _NO_VALUE:
                    continue
                if key < best:
                    x, best, moved = trial, key, True
        if not moved:
            break
    return x


def _odd(x) -> int:
    """How many coordinates of x have an odd last bit."""
    return sum(struct.unpack("<q", struct.pack("<d", v))[0] & 1 for v in x)


def _snap_axis_values(F, x):
    """Replace near-axis coordinates by their exact values when the residual
    allows it; keeps coordinate-set equilibria exact and deterministic."""
    out = list(x)
    for i in range(len(out)):
        for c in (0.0, 1.0, -1.0):
            if out[i] != c and abs(out[i] - c) < 1e-6:
                trial = out.copy()
                trial[i] = c
                try:
                    if _norm(F(trial)) <= NEWTON_TOL * (1.0 + _norm(trial)):
                        out = trial
                except _NO_VALUE:
                    pass
    return out


def check_seed(seed) -> None:
    """Raise ``ValueError`` unless ``seed`` is an int, 0 or more (a bool is
    not); the Newton search draws its starts from it."""
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValueError(f"seed = {seed!r} is not an int, 0 or more")


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uniforms(seed: int, n: int) -> list[float]:
    """The first ``n`` doubles of ``np.random.default_rng(seed).random()``,
    bit for bit, without importing ``numpy.random``.

    numpy's ``SeedSequence`` hashes the seed's 32-bit words (least
    significant first) into a pool of 4 words and draws 4 uint64 words from
    it (``generate_state(4, np.uint64)``): the PCG64 state and increment.
    Each draw steps the 128-bit LCG and takes its XSL-RR output x (O'Neill,
    2014); the double is ``(x >> 11) * 2**-53``.
    """
    check_seed(seed)
    words = [seed >> s & _M32 for s in range(0, seed.bit_length(), 32)]
    hc = 0x43B0D7E5  # numpy's INIT_A, MULT_A, MIX_MULT_L and MIX_MULT_R follow

    def hashmix(v):
        nonlocal hc
        v ^= hc
        hc = hc * 0x931E8875 & _M32
        v = v * hc & _M32
        return v ^ v >> 16

    def mix(x, y):
        v = 0xCA01F9DD * x - 0x4973F715 * y & _M32
        return v ^ v >> 16

    pool = [hashmix(w) for w in (words + [0] * 4)[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    hc, out = 0x8B51F9DD, []  # INIT_B and MULT_B: 8 uint32, so 4 uint64 words
    for i in range(8):
        v = pool[i % 4] ^ hc
        hc = hc * 0x58F38DED & _M32
        v = v * hc & _M32
        out.append(v ^ v >> 16)
    s0, s1, i0, i1 = (out[k] | out[k + 1] << 32 for k in range(0, 8, 2))
    # pcg64_set_seed: from state 0 and inc 2 i + 1, step, add s, step
    inc = (i0 << 64 | i1) << 1 & _M128 | 1
    state = (inc + (s0 << 64 | s1)) * _PCG_MULT + inc & _M128
    draws = []
    for _ in range(n):
        state = state * _PCG_MULT + inc & _M128
        x, r = (state >> 64 ^ state) & _M64, state >> 122
        x = (x >> r | x << (64 - r)) & _M64
        draws.append((x >> 11) * 2.0**-53)
    return draws


@np.errstate(over="ignore")  # the norm of a huge residual reads inf, silently
def _newton_roots(components, variables, grads, box, seed):
    """Roots of ``components`` (polynomials in ``variables``) by multi-start
    damped Newton; ``grads[i][j]`` is the partial of component i in
    variable j.

    Starts are ``N_STARTS`` points in the search box (``SEARCH_RANGE``
    where it declares none), their coordinates drawn one after another from
    numpy's ``default_rng(seed)`` PCG64 stream as :func:`_uniforms`
    reproduces it, and the origin.  Roots more than 0.5 outside the box are
    dropped; the rest are snapped to exact axis values, deduplicated,
    polished by :func:`_polish` (whose double can depend on the start, so on
    ``seed``, in its last bits), snapped again and sorted.

    The starts move in lockstep (:func:`_lockstep_newton`): per iteration
    one :func:`rows_function` call gives every live start's Jacobian, the
    ``GenPoly.eval`` values of the partials, and one stacked LAPACK solve
    its step (:func:`_solves`); per line-search trial one call gives the
    residuals and one batch their norms (:func:`_norms`, each row's own
    ddot, as ``np.linalg.norm`` computes it).  So the roots are bitwise
    those of the search one start at a time on numpy's norm.
    """
    dim = len(variables)
    box = box or {}
    lows = [float(box.get(v, SEARCH_RANGE)[0]) for v in variables]
    highs = [float(box.get(v, SEARCH_RANGE)[1]) for v in variables]
    # clip only where evaluation is genuinely restricted (fractional or
    # negative exponents); sign-masked variables may still host formal
    # equilibria outside the physical sector
    clip = [_needs_nonnegative(components, v) for v in variables]
    for i, c in enumerate(clip):
        if c and lows[i] < 0.0:
            lows[i] = 0.0

    u = iter(_uniforms(seed, N_STARTS * dim))
    starts = [[lo + (hi - lo) * next(u) for lo, hi in zip(lows, highs)]
              for _ in range(N_STARTS)]
    starts.append([0.0] * dim)

    def F(x):
        return [comp.eval(x) for comp in components]

    roots = []
    for x in _lockstep_newton(components, grads, starts, clip):
        if x is None:
            continue
        if any(xi < lo - 0.5 or xi > hi + 0.5 for xi, lo, hi in zip(x, lows, highs)):
            continue
        x = _snap_axis_values(F, x)
        if not any(_norm([a - b for a, b in zip(x, r)]) <= DEDUPE for r in roots):
            roots.append(x)
    roots = [_snap_axis_values(F, _polish(F, x)) for x in roots]
    roots.sort(key=tuple)
    return roots


def _binomial_roots(p: GenPoly, nonnegative: bool) -> list[float]:
    """The real roots, sorted, of ``c_a v^a + c_b v^b`` (a < b) or ``c_a v^a``:
    ``v = 0`` when a > 0, and each solution of ``v^(b-a) = -c_a/c_b`` (only
    ``v >= 0`` when ``nonnegative``) as the double nearest it."""
    (a, ca), *rest = [(ev[0], Fraction(c)) for ev, c in p.terms]
    roots = [0.0] if a > 0 else []
    if rest:
        (b, cb), = rest
        R, m, n = -ca / cb, (b - a).numerator, (b - a).denominator
        if R > 0:
            v = _nearest_root(R, n, m)
            roots += [v] if nonnegative or m % 2 else [-v, v]
        elif not nonnegative and m % 2:  # integer exponents: n = 1
            roots.append(-_nearest_root(-R, 1, m))
    return sorted(roots)


def _nearest_root(R: Fraction, n: int, m: int) -> float:
    """The double nearest ``R^(n/m)`` (R > 0): from its float estimate, step
    by one ulp while the root lies past a midpoint to a neighbouring double,
    compared exactly as ``mid^m`` against ``R^n``.  A root that rounds to 0
    or past the largest double raises :class:`DomainError`."""
    target, e = R**n, R.numerator.bit_length() - R.denominator.bit_length()
    k, r = divmod(e * n, m)
    try:  # from R = M 2^e with M near 1, so that any R has an estimate
        v = math.ldexp(float(R / Fraction(2) ** e) ** (n / m) * 2.0 ** (r / m), k)
    except OverflowError:
        v = math.inf
    # an estimate that underflowed or overflowed starts at the end it passed
    v = min(max(v, math.ulp(0.0)), sys.float_info.max)
    while 0.0 < v < math.inf:
        lo = (Fraction(v) + Fraction(math.nextafter(v, 0.0))) / 2
        hi = Fraction(v) + Fraction(math.ulp(v)) / 2
        if lo**m < target < hi**m:
            return v
        if target in (lo**m, hi**m):  # a midpoint: round half to even
            try:
                v = float(lo if target == lo**m else hi)
            except OverflowError:
                v = math.inf
            break
        v = math.nextafter(v, math.inf if target > hi**m else 0.0)
    if 0.0 < v < math.inf:
        return v
    raise DomainError(f"horizon root {R}^({n}/{m}) outside the float range")


def _jacobian_at(C: ChartField, state) -> np.ndarray:
    """``C.jacobian`` at the chart state ``state``."""
    pt = C.state_to_poly_point(state)
    return np.array([[g.eval(pt) for g in row] for row in C.jacobian])


def _equilibrium_record(C: ChartField, coords) -> EquilibriumRecord:
    """``C.jacobian`` and its classification at an equilibrium of ``C``."""
    J = _jacobian_at(C, coords)
    label, ns, nu, nc, eig = classify(J)
    return EquilibriumRecord(
        chart_desc="->".join(s.op for s in C.provenance),
        coords=tuple(float(v) for v in coords),
        jacobian=tuple(map(tuple, J.tolist())),
        eigenvalues=eig,
        classification=label,
        n_stable=ns,
        n_unstable=nu,
        n_center=nc,
    )


def horizon_equilibria(
    C: ChartField,
    *,
    box: dict[str, tuple[float, float]] | None = None,
    seed: int = 0,
) -> list[EquilibriumRecord]:
    """All equilibria of the desingularized field on the horizon {r = 0}.

    A slice in one variable with one or two terms is solved in closed form
    (:func:`_binomial_roots`), any other by the Newton search of
    :func:`_newton_roots` in ``box`` on the r-free parts of ``C.jacobian``
    (on a quasi-polar chart: the sign changes of the angular component over
    one period), each root augmented with the full-space Jacobian and
    classification.  A ``seed`` :func:`check_seed` refuses raises ValueError.
    """
    check_seed(seed)
    if C.quasipolar_index is not None:
        return _quasipolar_horizon_equilibria(C)
    slice_vars, slice_comps = horizon_slice(C)
    ri = C.vars.index(C.radial)
    if len(slice_vars) == 1 and 1 <= len(slice_comps[0].terms) <= 2:
        nonneg = _needs_nonnegative(slice_comps, slice_vars[0])
        roots = [[v] for v in _binomial_roots(slice_comps[0], nonneg)]
    else:
        grads = [[C.radial_part(g, 0) for j, g in enumerate(row) if j != ri]
                 for i, row in enumerate(C.jacobian) if i != ri]
        roots = _newton_roots(slice_comps, slice_vars, grads, box, seed)
    return [_equilibrium_record(C, [*x[:ri], 0.0, *x[ri:]]) for x in roots]


def equilibria_of(
    C: ChartField,
    *,
    box: dict[str, tuple[float, float]] | None = None,
    seed: int = 0,
) -> list[EquilibriumRecord]:
    """Equilibria of the full chart field (no horizon restriction).

    Used for degenerate-level-set problems where the singular object is a
    finite equilibrium rather than a point at infinity.  The Newton search
    of :func:`_newton_roots` in ``box`` with the rows of ``C.jacobian``,
    records as :func:`horizon_equilibria`.  A quasi-polar chart, whose
    components range over Cs and Sn and not its angle, and a ``seed`` that
    :func:`check_seed` refuses raise ValueError.
    """
    if C.quasipolar_index is not None:
        raise ValueError("equilibria_of needs a chart without a quasi-polar angle")
    roots = _newton_roots(C.components, C.vars, C.jacobian, box, seed)
    return [_equilibrium_record(C, x) for x in roots]


def _quasipolar_horizon_equilibria(C: ChartField):
    """Roots of the angular component on {r = 0} over one period."""
    tab = table(C.quasipolar_index)
    b0 = C.radial_part(C.components[C.vars.index(C.angle)], 0)

    def g(theta):  # the angular component at (r, Cs, Sn) = (0, Cs(theta), Sn(theta))
        return b0.eval(tab.lookup(theta))

    thetas = np.linspace(0.0, tab.T, 257).tolist()
    vals = [g(th) for th in thetas]
    roots = []
    for a, b, va, vb in zip(thetas, thetas[1:], vals, vals[1:]):
        if va == 0.0:
            roots.append(a)
        elif va * vb < 0.0:
            lo, hi, glo = a, b, va
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                gmid = g(mid)
                if glo * gmid <= 0:
                    hi = mid
                else:
                    lo, glo = mid, gmid
            roots.append(0.5 * (lo + hi))
    uniq = []
    for r in roots:
        if not any(abs(r - u) <= DEDUPE for u in uniq):
            uniq.append(r)
    return [_equilibrium_record(C, (0.0, th)) for th in uniq]


# -- center manifolds ---------------------------------------------------------


@dataclass(frozen=True)
class CenterSeries:
    """1-D center manifold x_s = h(x_c) and the reduced flow on it."""

    center_var: str
    stable_var: str
    coefficients: GenPoly          # h as a polynomial in the center variable
    reduced_flow: GenPoly          # dx_c/dtau restricted to the manifold
    d: Fraction                    # least exponent of the reduced flow
    c_d: object                    # its coefficient (exact when inputs exact)
    degree: Fraction               # truncation degree used
    exact: bool

    def on_manifold(self, p: GenPoly) -> GenPoly:
        """p(x_c, h(x_c)) in the center variable, cut at ``degree`` + 4."""
        return _substitute_series(p, self.center_var, self.stable_var, self.coefficients,
                                  self.degree + 4)


def center_manifold_series_1d(C: ChartField, degree=6) -> CenterSeries:
    """Solve the invariance equation order by order at a planar chart's origin.

    The origin must be a semi-hyperbolic equilibrium, its center direction a
    coordinate axis (a Jacobian column zero to :func:`classify`'s tolerance),
    on a chart without a quasi-polar angle.  Rational-exponent fields are
    handled on their exponent lattice (series in x^(1/q)).
    """
    if len(C.vars) != 2 or C.quasipolar_index is not None:
        raise ValueError("center-manifold series needs a planar chart "
                         "without a quasi-polar angle")
    degree = frac(degree)
    comps, vars = C.components, C.vars
    J = _jacobian_at(C, (0.0, 0.0))
    label, *_ = classify(J)
    if label != "semi-hyperbolic":
        raise ValueError(f"equilibrium is {label}, not semi-hyperbolic")
    # center direction must be a coordinate axis: the Jacobian column of the
    # center variable vanishes
    _, tol = _zero_tol(J)
    if abs(J[:, 0]).max() <= tol:
        c_idx, s_idx = 0, 1
    elif abs(J[:, 1]).max() <= tol:
        c_idx, s_idx = 1, 0
    else:
        raise ValueError("center direction is not a coordinate axis")

    cvar, svar = vars[c_idx], vars[s_idx]
    Fc, Fs = comps[c_idx], comps[s_idx]
    exact = all(
        isinstance(c, (int, Fraction)) for p in comps for _, c in p.terms
    )
    # the linear transverse coefficient, kept exact when the field is exact
    lam_c = 0 if exact else 0.0
    for ev, c in Fs.terms:
        if ev[s_idx] == 1 and ev[c_idx] == 0:
            lam_c = lam_c + c
    if lam_c == 0:
        raise ValueError("transverse eigenvalue vanished symbolically")

    # G_s = F_s - lam * x_s
    Gs = Fs - GenPoly.var(vars, svar, 1, lam_c)

    # h = (h' F_c(x, h) - G_s(x, h)) / lam, solved one lattice order at a
    # time: on a triangular system the coefficient at key k reads h below k
    # only, and it is summed exactly as the whole map at its fixed point sums it
    q = _lattice((Fc, Gs), cvar)
    top = math.floor(degree * q)
    fc_terms = _lattice_terms(Fc, cvar, svar, q)
    gs_terms = _lattice_terms(Gs, cvar, svar, q)
    terms = fc_terms + gs_terms
    if any(es > 0 and ec < 0 for ec, es, _ in terms) or any(
        es == 0 and ec <= q for ec, es, _ in fc_terms
    ):
        raise ValueError("invariance equation is not triangular on the exponent lattice")
    inv = _invert_coeff(lam_c)
    # powers[n] is h^n cut at the degree; powers[1] is h itself
    powers = [{0: 1}] + [{} for _ in range(max([1] + [es for _, es, _ in terms]))]
    h = powers[1]
    hprime, fc_h = {}, {}
    for k in range(min([0] + [ec for ec, _, _ in terms]), top + 1):
        for n in range(2, len(powers)):
            _store(powers[n], k, _product_at(powers[n - 1], h, k))
        rhs = _product_at(hprime, fc_h, k)
        gs = _substituted_at(gs_terms, powers, k)
        if gs is not None:
            rhs = -gs if rhs is None else rhs + (-gs)
        if rhs is not None and _store(h, k, rhs * inv):
            c = h[k]
            if k <= q:  # h(0) = h'(0) = 0
                raise ArithmeticError(f"center series has low-order term {(Fraction(k, q),)}: {c}")
            e = Fraction(k, q)
            _store(hprime, k - q, c * e if isinstance(c, (int, Fraction)) else c * float(e))
        _store(fc_h, k, _substituted_at(fc_terms, powers, k))
    h = _from_lattice(h, cvar, q)
    reduced = _from_lattice(fc_h, cvar, q)
    if reduced.is_zero():
        raise DegenerateBeyondDegreeError(
            f"reduced flow vanishes to degree {degree}",
            series=CenterSeries(cvar, svar, h, reduced, frac(0), 0, degree, exact),
        )
    ev0, c0 = reduced.terms[0]
    return CenterSeries(
        center_var=cvar,
        stable_var=svar,
        coefficients=h,
        reduced_flow=reduced,
        d=ev0[0],
        c_d=c0,
        degree=degree,
        exact=exact,
    )


def _invert_coeff(c):
    if isinstance(c, (int, Fraction)):
        return Fraction(1, 1) / Fraction(c)
    return 1.0 / c


# A one-variable series on the exponent lattice of x_c is a dict from the
# integer key k of x_c^(k/q) to its nonzero coefficient, keys ascending.  Each
# coefficient is summed in the order GenPoly sums it, so Fraction, int and
# float coefficients come out as GenPoly arithmetic gives them.


def _lattice(polys, cvar) -> int:
    """The least q with every exponent of ``cvar`` in ``polys`` in Z/q."""
    q = 1
    for p in polys:
        i = p.vars.index(cvar)
        for ev, _ in p.terms:
            q = math.lcm(q, ev[i].denominator)
    return q


def _lattice_terms(p: GenPoly, cvar, svar, q) -> list:
    """p's terms in order as (x_c key, x_s power, coefficient)."""
    ci, si = p.vars.index(cvar), p.vars.index(svar)
    out = []
    for ev, c in p.terms:
        es = ev[si]
        if es.denominator != 1 or es < 0:
            raise ValueError("transverse exponents must be nonnegative integers")
        out.append((int(ev[ci] * q), int(es), c))
    return out


def _from_lattice(series: dict, cvar, q) -> GenPoly:
    return GenPoly((cvar,), {(Fraction(k, q),): c for k, c in series.items()})


def _store(series: dict, k, c) -> bool:
    """Keep a coefficient that is not None or zero, as a GenPoly keeps it."""
    if c is None or c == 0:
        return False
    series[k] = c
    return True


def _product_at(a: dict, b: dict, k):
    """The key-k coefficient of a*b, None if it vanishes: ``GenPoly.__mul__``
    sums it over a's keys ascending, from 0, and drops a zero sum."""
    acc = 0
    for i, c1 in a.items():
        c2 = b.get(k - i)
        if c2 is not None:
            acc = acc + c1 * c2
    return None if acc == 0 else acc


def _substituted_at(terms, powers, k):
    """The key-k coefficient of sum c x_c^ec h^es over ``terms`` in order,
    given the powers of h; None if it vanishes.  Each term's product and
    each partial sum is a GenPoly, so a zero one is dropped."""
    acc = None
    for ec, es, c in terms:
        v = powers[es].get(k - ec)
        if v is None:
            continue
        prod = c * v
        if prod == 0:
            continue
        acc = prod if acc is None else acc + prod
        if acc == 0:
            acc = None
    return acc


def _substitute_series(p: GenPoly, cvar, svar, h: GenPoly, degree) -> GenPoly:
    """p(x_c, h(x_c)) truncated at the degree; s-exponents must be integers."""
    q = _lattice((p, h), cvar)
    top = math.floor(frac(degree) * q)
    terms = _lattice_terms(p, cvar, svar, q)
    hk = {int(ev[0] * q): c for ev, c in h.terms}
    powers = [{0: 1}]
    for _ in range(max((es for _, es, _ in terms), default=0)):
        prev, cur = powers[-1], {}
        for k in sorted({i + j for i in prev for j in hk if i + j <= top}):
            _store(cur, k, _product_at(prev, hk, k))
        powers.append(cur)
    out = {}
    for k in sorted({ec + j for ec, es, _ in terms for j in powers[es] if ec + j <= top}):
        _store(out, k, _substituted_at(terms, powers, k))
    return _from_lattice(out, cvar, q)


@dataclass(frozen=True)
class CmAsymptotics:
    """Decay law of the reduced flow dx/dtau = c_d x^d (c_d < 0, d >= 2)."""

    d: int
    c_d: float
    exponent: float          # x ~ const * tau^exponent
    constant: float          # exact-solution constant ((d-1)|c_d|)^(-1/(d-1))
    alt_constant: float      # 1/sqrt(d-1); agrees with `constant` at d = 3
    constant_note: str

    def law(self, tau, x0: float = 1.0) -> float:
        """Exact solution x(tau) of dx/dtau = c_d x^d from x(0) = x0 > 0."""
        d, cd = self.d, self.c_d
        return ((d - 1) * (-cd) * tau + x0 ** (1 - d)) ** (-1.0 / (d - 1))


def cm_flow_asymptotics(d: int, c_d: float) -> CmAsymptotics:
    """Asymptotics x(tau) ~ ((d-1)|c_d| tau)^(-1/(d-1)) of the reduced flow."""
    if d < 2 or int(d) != d:
        raise ValueError("d must be an integer >= 2")
    if not (c_d < 0):
        raise ValueError("c_d must be negative (decay toward the equilibrium)")
    d = int(d)
    const = ((d - 1) * abs(c_d)) ** (-1.0 / (d - 1))
    alt = 1.0 / math.sqrt(d - 1)
    return CmAsymptotics(
        d=d,
        c_d=float(c_d),
        exponent=-1.0 / (d - 1),
        constant=const,
        alt_constant=alt,
        constant_note=(
            "emitted law uses the exact-solution constant ((d-1)|c_d|)^(-1/(d-1)); "
            "the 1/sqrt(d-1) form is recorded alongside (equal at d = 3)"
        ),
    )


def type1_rate_prediction(t: TypeVector, i: int) -> RateModel:
    """Componentwise type-I rate |y_i| ~ C (t_max - t)^(-alpha_i/k)."""
    if t.alpha[i] <= 0:
        raise ValueError("component is not a homogeneity direction")
    return RateModel(rho=float(t.alpha[i] / t.k), q=0.0)


# -- the periodic orbit on a quasi-polar horizon --------------------------------


@dataclass(frozen=True)
class HorizonOrbit:
    """The horizon {r = 0} of a quasi-polar chart as a periodic orbit: the
    period ``T`` of its angle and the return map
    r -> beta1 r + beta2 r^2 + O(r^3) of the section theta = 0."""

    T: float
    beta1: float
    beta2: float


def horizon_orbit(C: ChartField) -> HorizonOrbit:
    """The return map of the horizon orbit of a quasi-polar chart.

    Split by their power of r (:meth:`ChartField.radial_part`), the
    components are r' = a1 r + a2 r^2 + ... and theta' = b0 + b1 r + ...,
    each a_i, b_i a polynomial in (Cs, Sn), so
    dr/dtheta = A1 r + A2 r^2 + O(r^3) with A1 = a1/b0 and
    A2 = a2/b0 - a1 b1/b0^2.  The coefficients solve rho1' = A1 rho1 and
    rho2' = A1 rho2 + A2 rho1^2 from (1, 0) over one Cs/Sn period T in the
    flow's direction (the sign of b0), on the in-repo DOP853
    (:func:`horizon._dop853_qags.dop853`) at ``rtol=1e-13``, ``atol=1e-15``,
    with the angle a state moving at unit speed.

    Raises ValueError for a chart that is not quasi-polar, one with
    equilibria on its horizon (:func:`horizon_equilibria`), an r' with an
    r-free term, and a power of r that is not a nonnegative integer below 3
    in r' or below 2 in theta' (where it would enter A1 or A2).
    """
    if C.quasipolar_index is None:
        raise ValueError("horizon_orbit needs a quasi-polar chart")
    if horizon_equilibria(C):
        raise ValueError("the horizon holds equilibria, not a periodic orbit")
    dr, dth = (C.components[C.vars.index(v)] for v in (C.radial, C.angle))
    ri, split = C.poly_vars.index(C.radial), ((dr, 3), (dth, 2))
    for p, below in split:
        for e in (ev[ri] for ev, _ in p.terms):
            if e < below and (e < 0 or e.denominator != 1):
                raise ValueError(f"power r^{e} of {format_genpoly(p)} has no "
                                 "place in the return map's expansion")
    a, b = ([C.radial_part(p, k) for k in range(below)] for p, below in split)
    if not a[0].is_zero():
        raise ValueError("r' has an r-free term, so the horizon is not invariant")
    tab = table(C.quasipolar_index)
    sign = 1.0 if b[0].eval(tab.lookup(0.0)) > 0.0 else -1.0

    def fun(y):
        cs_sn = tab.lookup(y[0])
        a1, a2, b0, b1 = (p.eval(cs_sn) for p in (a[1], a[2], b[0], b[1]))
        A1, A2 = a1 / b0, a2 / b0 - a1 * b1 / b0**2
        return np.array([sign, sign * A1 * y[1], sign * (A1 * y[2] + A2 * y[1] ** 2)])

    end = dop853(fun, [0.0, 1.0, 0.0], tab.T, 1e-13, 1e-15, np.array([tab.T]))[:, -1]
    return HorizonOrbit(tab.T, float(end[1]), float(end[2]))
