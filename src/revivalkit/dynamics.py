"""Return/autocorrelation series and their order-1/order-2 approximants.

All series are weighted exponential sums over the packet's index offsets.
Linear and quadratic phases are reduced modulo 1 before exponentiation
(offsets are integers), which keeps huge time shifts exact; shifts given
as Fractions combine with an exactly-known T_rev/T_hyp ratio in rational
arithmetic, the test seam for revival identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from .errors import (
    NoPeaks,
    ParameterError,
    ProfileError,
    SupportError,
    TimeScaleError,
)


@dataclass(frozen=True)
class PhaseData:
    """Taylor data of the eigenvalue ladder at the packet center.

    a0, a1, a2, a3 are the ladder value and its first three derivatives
    with respect to 2*pi*(index); the hyperbolic and revival periods are
    1/a1 and 1/(pi*a2).  Both may be negative; time grids use their
    magnitudes while phases keep the signs.
    """

    a0: float
    a1: float
    a2: float
    a3: float = 0.0
    a3_bound: float = 0.0
    curvature_at_root: float | None = None
    ratio_exact: Fraction | None = None

    @property
    def t_hyp(self) -> float:
        return 1.0 / self.a1

    @property
    def t_rev(self) -> float:
        return 1.0 / (math.pi * self.a2)

    @property
    def ratio(self) -> float:
        if self.ratio_exact is not None:
            return float(self.ratio_exact)
        return self.t_rev / self.t_hyp

    @property
    def n_h(self) -> int:
        if self.ratio_exact is not None:
            return math.floor(self.ratio_exact)
        return math.floor(self.ratio)

    @property
    def theta_frac(self) -> float:
        if self.ratio_exact is not None:
            return float(self.ratio_exact - math.floor(self.ratio_exact))
        return self.ratio - math.floor(self.ratio)

    @classmethod
    def synthetic(
        cls,
        t_hyp: float,
        n_h: int,
        theta: Fraction | float = Fraction(0),
        a0: float = 0.0,
    ) -> "PhaseData":
        """Phase data with a prescribed (exact when theta is a Fraction) ratio."""
        if isinstance(theta, Fraction):
            ratio_exact = n_h + theta
            ratio = float(ratio_exact)
        else:
            ratio_exact = None
            ratio = n_h + float(theta)
        if not 0.0 <= ratio - n_h < 1.0:
            raise ParameterError("theta must lie in [0, 1)")
        a1 = 1.0 / t_hyp
        a2 = 1.0 / (math.pi * ratio * t_hyp)
        return cls(a0=a0, a1=a1, a2=a2, ratio_exact=ratio_exact)


def _wrap_unit(x: np.ndarray | float):
    """Reduce modulo 1 into [0, 1)."""
    return np.asarray(x, dtype=float) % 1.0


def _shift_parts(phase: PhaseData, shift_hyp, shift_rev):
    """Linear and quadratic phase offsets (mod 1) of t -> t + shifts.

    shift_hyp counts multiples of T_hyp, shift_rev multiples of T_rev.
    """
    exact = (
        phase.ratio_exact is not None
        and isinstance(shift_hyp, (int, Fraction))
        and isinstance(shift_rev, (int, Fraction))
    )
    if exact:
        r = phase.ratio_exact
        lin = Fraction(shift_hyp) + Fraction(shift_rev) * r
        quad = Fraction(shift_hyp) / r + Fraction(shift_rev)
        return float(lin - math.floor(lin)), float(quad - math.floor(quad))
    r = phase.ratio
    lin = float(shift_hyp) + float(shift_rev) * r
    quad = float(shift_hyp) / r + float(shift_rev)
    return float(_wrap_unit(lin)), float(_wrap_unit(quad))


def _weighted_sum(weights, phases):
    """sum_n w_n exp(-2 pi i phases[:, n])."""
    return np.exp(-2j * np.pi * phases) @ weights


def _order1_phase(phase: PhaseData, t, shift_hyp):
    """Linear phase (mod 1) per unit offset at t + shift_hyp * T_hyp."""
    lin_shift, _ = _shift_parts(phase, shift_hyp, 0)
    return _wrap_unit(t / phase.t_hyp + lin_shift)


def order1_series(packet, phase: PhaseData, t, shift_hyp=0):
    """Linear-phase approximant at t + shift_hyp * T_hyp (no a0 factor)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    u = _order1_phase(phase, t, shift_hyp)
    return _weighted_sum(packet.weights, np.outer(u, packet.offsets))


def order2_series(packet, phase: PhaseData, t, shift_hyp=0, shift_rev=0):
    """Quadratic-phase approximant at t + shift_hyp*T_hyp + shift_rev*T_rev."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    lin_shift, quad_shift = _shift_parts(phase, shift_hyp, shift_rev)
    u = _wrap_unit(t / phase.t_hyp + lin_shift)
    v = _wrap_unit(t / phase.t_rev + quad_shift)
    offs = packet.offsets.astype(float)
    phases = np.outer(u, offs) + np.outer(v, offs**2)
    return _weighted_sum(packet.weights, phases)


def order1(packet, phase: PhaseData, t, alpha: float | None = None):
    """Guarded order-1 approximant with the carrier phase included."""
    spec = packet.spec
    alpha = default_alpha(spec.gamma) if alpha is None else alpha
    check_time_scale(t, spec.h, alpha)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return np.exp(-1j * t * phase.a0) * order1_series(packet, phase, t)


def order2(packet, phase: PhaseData, t, beta: float | None = None):
    """Guarded order-2 approximant with the carrier phase included."""
    spec = packet.spec
    beta = default_beta(spec.gamma) if beta is None else beta
    if beta > 3.0 - 2.0 * spec.gamma and not spec.gamma < 1.0 / 3.0:
        raise ParameterError(
            "revival-scale time grids require gamma < 1/3; "
            f"got gamma={spec.gamma:g}"
        )
    check_time_scale(t, spec.h, beta)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return np.exp(-1j * t * phase.a0) * order2_series(packet, phase, t)


def default_alpha(gamma: float) -> float:
    return min(2.0, 3.0 - 2.0 * gamma - 0.1)


def default_beta(gamma: float) -> float:
    return min(3.5, 4.0 - 3.0 * gamma - 0.1)


def check_time_scale(t, h: float, exponent: float) -> None:
    """Refuse a time grid reaching past the approximant horizon |ln h|^exponent."""
    t_max = float(np.max(np.asarray(t)))
    horizon = abs(math.log(h)) ** exponent
    if t_max > horizon * (1.0 + 1e-12):
        raise TimeScaleError(
            f"time grid reaches {t_max:g}, beyond the approximant horizon "
            f"|ln h|^{exponent:g} = {horizon:g}"
        )


def frac_distance(t, period: float):
    """Distance from t/|period| to the nearest integer, in [0, 1/2]."""
    u = np.asarray(t, dtype=float) / abs(period)
    return np.abs(u - np.round(u))


def order1_closed_form(packet, phase: PhaseData, t):
    """Poisson-resummed envelope of the order-1 approximant's modulus."""
    chi = packet.spec.chi
    fourier = getattr(chi, "chi2_fourier", None)
    if fourier is None:
        raise ProfileError(
            f"profile {getattr(chi, 'label', chi)!r} has no closed-form "
            "Fourier data"
        )
    d = frac_distance(t, phase.t_hyp)
    return fourier(packet.width * d) / fourier(0.0)


def exact_series(eigenvalues: Mapping[int, float], packet, t):
    """Return series sum_n w_n exp(-i t lambda_n) over the packet support."""
    missing = [int(n) for n in packet.indices if int(n) not in eigenvalues]
    if missing:
        raise SupportError(
            f"{len(missing)} packet indices outside the spectral window "
            f"(first few: {missing[:4]})"
        )
    lam = np.array([eigenvalues[int(n)] for n in packet.indices])
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty(len(t), dtype=complex)
    chunk = max(1, 2_000_000 // max(1, len(lam)))
    for i in range(0, len(t), chunk):
        out[i : i + chunk] = np.exp(-1j * np.outer(t[i : i + chunk], lam)) @ packet.weights
    return out


@dataclass(frozen=True)
class FractionalComparison:
    """Clone-sum prediction vs the shifted order-2 approximant."""

    p: int
    q: int
    ell: int
    clone_sum: np.ndarray
    shifted_order2: np.ndarray
    sup_difference: float


def fractional_prediction(packet, phase: PhaseData, p: int, q: int, t):
    """Compare sum_k b~_k a1(t + T_hyp(k/ell + p N_h/q)) with a2(t + (p/q) N_h T_hyp).

    The clone sum is one weighted sum: exp(-2 pi i (u + k/ell) n) factors
    into exp(-2 pi i u n) exp(-2 pi i k n/ell), so the clone coefficients
    fold into the weights w_n sum_k b~_k exp(-2 pi i k n/ell), with k n
    reduced modulo ell in integers.
    """
    from .gausssum import coefficients, periodicity_set

    ell = periodicity_set(p, q).generator
    coeffs = coefficients(p, q, int(packet.center))
    base_shift = Fraction(p * phase.n_h, q)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    offs = packet.offsets
    unit_roots = np.exp(-2j * np.pi * np.arange(ell) / ell)
    modes = unit_roots[np.outer(np.arange(ell), offs % ell) % ell]
    weights = packet.weights * (coeffs.phased @ modes)
    u = _order1_phase(phase, t, base_shift)
    clone = _weighted_sum(weights, np.outer(u, offs))
    shifted = order2_series(packet, phase, t, shift_hyp=base_shift)
    sup = float(np.max(np.abs(clone - shifted)))
    return FractionalComparison(
        p=p, q=q, ell=ell, clone_sum=clone, shifted_order2=shifted,
        sup_difference=sup,
    )


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
