"""Numerical helpers shared across the package: the lockstep bisection
that finds every root in the library, and linear fits for tests, sweeps
and the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

# scipy.optimize.bisect's tolerances and iteration cap, as used for every root
BISECT_XTOL, BISECT_RTOL, BISECT_MAXITER = 1e-15, 8.9e-16, 100


def bisect_lockstep(func, xa, xb, fa, fb, targets):
    """Roots of func(x) = targets, one per bracket [xa, xb], bisected together.

    Each step is scipy.optimize.bisect's update applied to every open
    bracket, with one vector evaluation of func, so every root is the one
    scipy returns for its bracket alone; a bracket may run either way
    (xa > xb).  fa and fb are func - targets at the bracket ends; only the
    sign of fa is used past the first test.
    """
    roots = np.where(fa == 0.0, xa, xb)
    open_ = np.nonzero((fa != 0.0) & (fb != 0.0))[0]
    xa, fa, targets = xa[open_], fa[open_], targets[open_]
    dm = xb[open_] - xa
    for _ in range(BISECT_MAXITER):
        if len(open_) == 0:
            break
        dm = 0.5 * dm
        xm = xa + dm
        fm = func(xm) - targets
        if np.any(np.isnan(fm)):
            raise NumericalError("function is NaN inside a root bracket")
        xa = np.where(fm * fa >= 0.0, xm, xa)
        done = (fm == 0.0) | (np.abs(dm) < BISECT_XTOL + BISECT_RTOL * np.abs(xm))
        roots[open_[done]] = xm[done]
        keep = ~done
        open_, xa, fa, dm, targets = open_[keep], xa[keep], fa[keep], dm[keep], targets[keep]
    if len(open_):
        raise NumericalError(
            f"{len(open_)} roots still open after {BISECT_MAXITER} bisections"
        )
    return roots


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    rms_residual: float
    max_abs_residual: float

    def predict(self, x):
        return self.slope * np.asarray(x, dtype=float) + self.intercept


def linear_fit(x, y) -> FitResult:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    design = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    return FitResult(
        slope=float(coef[0]),
        intercept=float(coef[1]),
        rms_residual=float(np.sqrt(np.mean(resid**2))),
        max_abs_residual=float(np.max(np.abs(resid))),
    )
