"""Numerical helpers shared across the package: the lockstep bisection
that finds every root in the library, taking several bisection steps per
vector call of the function, and linear fits for tests, sweeps and the
CLI.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

# scipy.optimize.bisect's tolerances and iteration cap, as used for every root
BISECT_XTOL, BISECT_RTOL, BISECT_MAXITER = 1e-15, 8.9e-16, 100
# bisection steps taken per call of func: each call evaluates the
# 2**BISECT_LEVELS - 1 midpoints those steps could visit
BISECT_LEVELS = 5


def bisect_lockstep(func, xa, xb, fa, fb, targets):
    """Roots of func(x) = targets, one per bracket [xa, xb], bisected together.

    Each step is scipy.optimize.bisect's update applied to every open
    bracket, so every root is the one scipy returns for its bracket alone;
    a bracket may run either way (xa > xb).  fa and fb are func - targets
    at the bracket ends; only the sign of fa is used past the first test.

    One vector call of func serves BISECT_LEVELS steps: it evaluates every
    midpoint the next steps could visit, built with the sequential step's
    own arithmetic, and the steps then walk that tree by the sign test.
    func must be elementwise, each value independent of the array it sits
    in.  A NaN raises NumericalError only where the walk reaches it.
    """
    roots = np.where(fa == 0.0, xa, xb)
    open_ = np.nonzero((fa != 0.0) & (fb != 0.0))[0]
    xa, fa, targets = xa[open_], fa[open_], targets[open_]
    dm = xb[open_] - xa
    steps = 0
    while len(open_) and steps < BISECT_MAXITER:
        levels = min(BISECT_LEVELS, BISECT_MAXITER - steps)
        n = len(open_)
        # midpoints in heap order: node i's children are 2i + 1 (xa kept)
        # and 2i + 2 (xa moved to node i's midpoint)
        xm = np.empty((n, 2**levels - 1))
        dms, base = [], xa[:, None]
        for level in range(levels):
            dm = 0.5 * dm
            mid = base + dm[:, None]
            xm[:, 2**level - 1:2 ** (level + 1) - 1] = mid
            base = np.stack([base, mid], axis=-1).reshape(n, -1)
            dms.append(dm)
        fm = func(xm.ravel()).reshape(n, -1) - targets[:, None]
        rows, node = np.arange(n), np.zeros(n, dtype=np.intp)
        live = np.ones(n, dtype=bool)
        for d in dms:
            x, f = xm[rows, node], fm[rows, node]
            if np.any(np.isnan(f[live])):
                raise NumericalError("function is NaN inside a root bracket")
            moved = f * fa >= 0.0
            xa = np.where(moved, x, xa)
            done = live & ((f == 0.0) | (np.abs(d) < BISECT_XTOL + BISECT_RTOL * np.abs(x)))
            roots[open_[done]] = x[done]
            live &= ~done
            node = 2 * node + 1 + moved
        steps += levels
        open_, xa, fa, dm, targets = open_[live], xa[live], fa[live], dm[live], targets[live]
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
