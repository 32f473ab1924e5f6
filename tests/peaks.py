"""Peak finding on sampled return series, for the tests' recurrence checks."""

from dataclasses import dataclass

import numpy as np

from revivalkit.errors import NumericalFailure


class NoPeaks(NumericalFailure):
    """No peaks found above threshold."""


@dataclass(frozen=True)
class PeakData:
    times: np.ndarray
    heights: np.ndarray
    period_estimate: float | None


def detect_peaks(times, values, threshold: float) -> PeakData:
    """Local maxima above threshold with parabolic position refinement."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    inner = np.nonzero(
        (v[1:-1] > v[:-2]) & (v[1:-1] >= v[2:]) & (v[1:-1] >= threshold)
    )[0] + 1
    if len(inner) == 0:
        raise NoPeaks(f"no local maxima above threshold {threshold:g}")
    peak_t, peak_v = [], []
    for i in inner:
        denom = v[i - 1] - 2.0 * v[i] + v[i + 1]
        offset = 0.0 if denom == 0.0 else 0.5 * (v[i - 1] - v[i + 1]) / denom
        offset = float(np.clip(offset, -0.5, 0.5))
        dt = t[i + 1] - t[i] if offset >= 0 else t[i] - t[i - 1]
        peak_t.append(t[i] + offset * dt)
        peak_v.append(v[i] - 0.25 * (v[i - 1] - v[i + 1]) * offset)
    period = None
    if len(peak_t) >= 2:
        period = float(np.median(np.diff(peak_t)))
    return PeakData(
        times=np.array(peak_t), heights=np.array(peak_v), period_estimate=period
    )
