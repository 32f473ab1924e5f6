"""Return/autocorrelation series and their order-1/order-2 approximants.

All series are weighted exponential sums over the packet's index offsets,
sum_n w_n exp(-2 pi i (u n + v n^2)) at each time.  Linear and quadratic
phases are reduced modulo 1 (offsets are integers), which keeps huge time
shifts exact; shifts given as Fractions combine with an exactly-known
T_rev/T_hyp ratio in rational arithmetic, the test seam for revival
identities.  The terms are generated by recurrence over consecutive
offsets, outward from n = 0: at most three exponentials per time,
x = exp(-2 pi i u), y = exp(-2 pi i v) and y^2, then complex multiplies,
in memory linear in the number of times.  A fractional revival's clone
sum and its shifted order-2 series share u, so one sweep gives both.
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
        return cls(a0=0.0, a1=a1, a2=a2, ratio_exact=ratio_exact)


def _phases(phase: PhaseData, t, shift_hyp=0, shift_rev=0):
    """Linear and quadratic phases (mod 1) per unit offset at t + shifts.

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
        lin, quad = float(lin - math.floor(lin)), float(quad - math.floor(quad))
    else:
        r = phase.ratio
        lin = (float(shift_hyp) + float(shift_rev) * r) % 1.0
        quad = (float(shift_hyp) / r + float(shift_rev)) % 1.0
    return (t / phase.t_hyp + lin) % 1.0, (t / phase.t_rev + quad) % 1.0


def _split(a):
    """Veltkamp split a = hi + lo, hi carrying at most 26 significant bits."""
    t = 134217729.0 * a  # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


# 2 pi = _TWO_PI + _TWO_PI_LO to twice double precision; _TWO_PI in halves
_TWO_PI = 2.0 * math.pi
_TWO_PI_LO = 2.4492935982947064e-16
_TWO_PI_HI, _TWO_PI_HI_LO = _split(_TWO_PI)


def _unit_phasor(w):
    """exp(-2 pi i w) for w in [0, 1), to about one ulp in phase.

    The recurrence raises y^2 to every power up to the largest offset, so
    z_n carries its phase error n^2/2 times.  So w is taken to [-1/2, 1/2),
    and the rounding of 2 pi w, which exp cannot see, is recovered exactly
    (Dekker's product) and applied to first order.
    """
    w = w - (w >= 0.5)
    theta = _TWO_PI * w
    w_hi, w_lo = _split(w)
    err = ((_TWO_PI_HI * w_hi - theta) + _TWO_PI_HI * w_lo + _TWO_PI_HI_LO * w_hi
           + _TWO_PI_HI_LO * w_lo + _TWO_PI_LO * w)
    return np.exp(-1j * theta) * (1.0 - 1j * err)


# complex terms held at once: a block of samples times every row's
# offsets (8 MB), so memory stays linear in the samples at any support
_BLOCK_TERMS = 1 << 19


def _weighted_sum(weights, offsets, u, v=None, clone=None):
    """sum_n w_n exp(-2 pi i (u n + v n^2)) at each u (and v), both reduced mod 1.

    With x = exp(-2 pi i u) and y = exp(-2 pi i v), the terms
    z_n = x^n y^(n^2) run outward from z_0 = 1 by z_{n+1} = z_n r_n and
    r_{n+1} = r_n y^2, from r_0 = x y going up and conj(x) y going down:
    three exponentials and O(max |n|) multiplies per sample.  Both
    directions advance together, one block of samples at a time; each
    block's terms are then weighted in one matrix-vector product, with
    zero weight at the integers that are not offsets.

    Given clone weights c_n, the same sweep returns the pair (weighted sum,
    sum_n c_n x^n): a third row advances x^n beside the two directions, and
    the downward terms are its conjugates, since the conjugate recurrence
    reproduces conj(x)^n = conj(x^n) bit for bit.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    u = np.asarray(u, dtype=float)
    v = None if v is None else np.asarray(v, dtype=float)
    dist, down = np.abs(offsets), offsets < 0
    reach = int(dist.max())
    rows = 2 if clone is None else 3
    # ladder[j] holds the weights of +j and -j (offsets are distinct), 0 on x^n
    ladder = np.zeros((reach + 1, rows), dtype=complex)
    ladder[dist, down.astype(np.intp)] = weights
    out = np.full(u.shape, ladder[0, 0], dtype=complex)
    if clone is not None:
        # the clone's upward weights, and the conjugates of its downward ones
        clone_ladder = np.zeros((2, reach + 1), dtype=complex)
        clone_ladder[0, dist[~down]] = clone[~down]
        clone_ladder[1, dist[down]] = np.conj(clone[down])
        clone_out = np.full(u.shape, clone_ladder[0, 0], dtype=complex)
    step = max(1, _BLOCK_TERMS // (rows * max(reach, 1)))
    # a lone offset at n = 0 has no terms to sweep
    for s in range(0, len(u) if reach else 0, step):
        block = slice(s, s + step)
        if v is None:
            x = np.exp(-2j * np.pi * u[block])
        else:
            x, y = np.exp(-2j * np.pi * np.stack([u[block], v[block]]))
        # the up, down and (with clone weights) x^n rows start at x, conj(x), x
        r = np.empty((rows, len(x)), dtype=complex)
        r[::2] = x
        np.conj(x, out=r[1])
        if v is not None:
            r[:2] *= y
            # one row per direction: same-shape products, no broadcasting
            y2 = np.empty((2, len(x)), dtype=complex)
            y2[:] = _unit_phasor((2.0 * v[block]) % 1.0)
        z = np.empty((reach,) + r.shape, dtype=complex)
        z[0] = r
        for k in range(1, reach):
            if v is not None:
                r[:2] *= y2
            np.multiply(z[k - 1], r, out=z[k])
        out[block] += ladder[1:].reshape(-1) @ z.reshape(rows * reach, -1)
        if clone is not None:
            xn = z[:, 2]
            clone_out[block] += clone_ladder[0, 1:] @ xn + np.conj(clone_ladder[1, 1:] @ xn)
    return out if clone is None else (out, clone_out)


def order1_series(packet, phase: PhaseData, t, shift_hyp=0):
    """Linear-phase approximant at t + shift_hyp * T_hyp (no a0 factor)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    u, _ = _phases(phase, t, shift_hyp)
    return _weighted_sum(packet.weights, packet.offsets, u)


def order2_series(packet, phase: PhaseData, t, shift_hyp=0, shift_rev=0):
    """Quadratic-phase approximant at t + shift_hyp*T_hyp + shift_rev*T_rev."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    u, v = _phases(phase, t, shift_hyp, shift_rev)
    return _weighted_sum(packet.weights, packet.offsets, u, v)


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

    The clone sum is one order-1 sum: exp(-2 pi i (u + k/ell) n) factors
    into exp(-2 pi i u n) exp(-2 pi i k n/ell), so the clone coefficients
    fold into the weights w_n sum_k b~_k exp(-2 pi i k n/ell), the length-ell
    FFT of b~ read at n mod ell.  It shares its linear phase with the
    shifted order-2 series, so one sweep of ``_weighted_sum`` gives both:
    x, y and y^2 taken once per sample, and x^n built by multiplication
    beside the order-2 terms, not exponentiated per sample and offset.
    """
    from .gausssum import coefficients

    coeffs = coefficients(p, q, int(packet.center))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    u, v = _phases(phase, t, Fraction(p * phase.n_h, q))
    folded = packet.weights * np.fft.fft(coeffs.phased)[packet.offsets % coeffs.ell]
    shifted, clone = _weighted_sum(packet.weights, packet.offsets, u, v, clone=folded)
    sup = float(np.abs(clone - shifted).max())
    return FractionalComparison(
        p=p, q=q, ell=coeffs.ell, clone_sum=clone, shifted_order2=shifted,
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
