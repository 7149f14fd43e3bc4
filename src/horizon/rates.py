"""Singularity-rate models and fitting.

Every rate produced by the pipeline has the two-parameter form

    y ~ C * s^(-rho) * (log 1/s)^q,      s -> 0+,

where s is the distance to the singular time (t_max - t) or to a singular
frame coordinate (xi - xi_edge).  Blow-up has rho > 0, extinction and
quenching edges carry rho < 0 (y vanishes like s^|rho|), and q is the
logarithmic correction exponent.  One fitter serves all cases:

    log y = -rho * log s + q * log log(1/s) + log C

by linear least squares, with a refit that drops the most singular decade to
expose exponent drift, and a collinearity guard when the log-log regressor
has no usable range.  ``compare_rate`` returns the report's verdict on one
fitted rate against its predicted pair.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CollinearityWarning, InsufficientSpanError
from .dynamics import TmaxEstimate, Trajectory, lstsq, remaining_time_at_sections

__all__ = [
    "RateModel",
    "FitResult",
    "fit_rate",
    "compare_rate",
    "phase_section_sampler",
]

MIN_SPAN = 1e3


@dataclass(frozen=True)
class RateModel:
    """Predicted singularity rate y ~ C s^-rho (log 1/s)^q."""

    rho: float
    q: float = 0.0


@dataclass(frozen=True)
class FitResult:
    rho: float
    q: float
    logC: float
    rho_se: float
    q_se: float
    r2: float
    window: tuple[float, float]  # (s_min, s_max)
    n_samples: int
    drift_rho: float             # exponent shift after dropping the most singular decade
    collinear_q: bool            # q pinned to 0 (log-log range too small)

    @property
    def C(self) -> float:
        return math.exp(self.logC)


def fit_rate(s, y, *, min_samples: int = 50) -> FitResult:
    """Fit log y = -rho log s + q log log(1/s) + log C.

    Requires at least ``min_samples`` positive samples with s spanning at
    least ``MIN_SPAN`` multiplicatively and s < 1 throughout (so log 1/s is
    positive).  Emits CollinearityWarning and pins q = 0 when the log-log
    regressor spans less than 0.5.
    """
    s = np.asarray(s, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = (s > 0) & (y > 0) & np.isfinite(s) & np.isfinite(y)
    s, y = s[keep], y[keep]
    if len(s) < min_samples:
        raise InsufficientSpanError(f"only {len(s)} usable samples (need {min_samples})")
    if s.max() >= 1.0:
        raise InsufficientSpanError("samples with s >= 1 cannot carry the log-log model")
    span = s.max() / s.min()
    if span < MIN_SPAN:
        raise InsufficientSpanError(f"s spans only {span:.3g} (need {MIN_SPAN:g})")

    logs = np.log(s)
    loglog = np.log(-logs)
    logy = np.log(y)
    ll_range = float(loglog.max() - loglog.min())
    collinear = ll_range < 0.5
    if collinear:
        warnings.warn(
            f"log log(1/s) spans only {ll_range:.3f}; q is indeterminate and pinned to 0",
            CollinearityWarning,
        )

    rho, q, logC, rho_se, q_se, r2 = _solve(logs, loglog, logy, collinear)

    # refit dropping the most singular decade to report drift
    cut = s >= 10.0 * s.min()
    drift = math.nan
    if cut.sum() >= min_samples and s[cut].max() / s[cut].min() >= 10.0:
        rho2, *_ = _solve(logs[cut], loglog[cut], logy[cut], collinear)
        drift = abs(rho2 - rho)

    return FitResult(
        rho=rho,
        q=q,
        logC=logC,
        rho_se=rho_se,
        q_se=q_se,
        r2=r2,
        window=(float(s.min()), float(s.max())),
        n_samples=len(s),
        drift_rho=drift,
        collinear_q=collinear,
    )


def _solve(logs, loglog, logy, collinear):
    if collinear:
        A = np.column_stack([-logs, np.ones_like(logs)])
    else:
        A = np.column_stack([-logs, loglog, np.ones_like(logs)])
    coef, ss_res, r2 = lstsq(A, logy)
    dof = max(len(logy) - A.shape[1], 1)
    cov = ss_res / dof * np.linalg.inv(A.T @ A)
    if collinear:
        rho, logC = coef
        return float(rho), 0.0, float(logC), math.sqrt(cov[0, 0]), math.inf, r2
    rho, q, logC = coef
    return (
        float(rho),
        float(q),
        float(logC),
        math.sqrt(cov[0, 0]),
        math.sqrt(cov[1, 1]),
        r2,
    )


def compare_rate(fit: FitResult, predicted: RateModel, tol_rho: float, tol_q: float,
                 name: str) -> dict:
    """The verdict ``rate of <name>`` that ``report.json`` carries: passed
    iff |rho_fit - rho_pred| <= tol_rho and |q_fit - q_pred| <= tol_q, with
    its one-line ``detail`` and the ``fitted`` and ``predicted`` pairs."""
    d_rho = abs(fit.rho - predicted.rho)
    d_q = abs(fit.q - predicted.q)
    passed = bool(d_rho <= tol_rho and d_q <= tol_q)
    q = "q pinned to 0 (not fitted)" if fit.collinear_q else f"q {fit.q:+.4f}"
    return {
        "name": f"rate of {name}",
        "passed": passed,
        "detail": f"{'PASS' if passed else 'FAIL'} {name}: rho {fit.rho:+.4f} vs "
                  f"{predicted.rho:+.4f} (|d|={d_rho:.4f} <= {tol_rho}), {q} vs "
                  f"{predicted.q:+.4f} (|d|={d_q:.4f} <= {tol_q})",
        "fitted": {"rho": fit.rho, "q": fit.q},
        "predicted": {"rho": predicted.rho, "q": predicted.q},
    }


def phase_section_sampler(traj: Trajectory, est: TmaxEstimate):
    """(s_j, r_j, t_j) at the recorded angular-section crossings.

    Sampling the radial variable once per revolution removes the Cs/Sn
    oscillation, leaving a clean power law in s = t_max - t.  Only runs on
    quasi-polar charts record crossings, and each of those has a radial
    variable.
    """
    if not len(traj.sections):
        raise ValueError("trajectory carries no section crossings")
    ri = traj.chart.vars.index(traj.chart.radial)
    r, t = traj.sections["state"][:, ri], traj.sections["t"]
    if math.isfinite(est.value):
        s = remaining_time_at_sections(traj, est)
    else:
        s = np.full(len(r), math.nan)
    return s, r, t
