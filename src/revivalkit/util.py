"""Small fitting helpers shared by tests, sweeps and the CLI."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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

