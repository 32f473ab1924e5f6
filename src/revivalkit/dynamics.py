"""Return/autocorrelation series and their order-1/order-2 approximants.

All series are weighted exponential sums over the packet's index offsets,
sum_n w_n exp(-2 pi i (u n + v n^2)) at each time.  Linear and quadratic
phases are reduced modulo 1 (offsets are integers), which keeps huge time
shifts exact; shifts given as Fractions combine with an exactly-known
T_rev/T_hyp ratio in rational arithmetic, the test seam for revival
identities.  The approximants take each sample's own phases, as one row
of terms.  A fractional revival's clone sum and its shifted order-2
series share u, so one run gives both; on a uniform grid of T times,
t[a B + b] = left[a] + right[b] with B = ceil(sqrt(T)), and each of its
terms factors into its values at the two factor times, so terms are
generated only at the ~2 sqrt(T) factor samples and each sum is one
matrix product over the offsets.  The terms come by recurrence over
consecutive offsets, outward from n = 0: three exponentials per factor
sample, x = exp(-2 pi i u), y = exp(-2 pi i v) and y^2, then complex
multiplies, in memory linear in the factor samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from .errors import (
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
    """Linear and quadratic phases (mod 1) per unit offset at t + shifts, as two rows.

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
    phases = t / np.array([[phase.t_hyp], [phase.t_rev]]) + np.array([[lin], [quad]])
    # x - floor(x) is x % 1 to the bit, in fewer operations
    return phases - np.floor(phases)


def _row_length(t) -> int:
    """Length B of the rows that t splits into, t[a B + b] = left[a] + right[b].

    A uniform grid, t[j] = t[0] + j * step to the bit as np.linspace makes
    it (its last sample is the end point itself), takes B = ceil(sqrt(T)):
    about 2 sqrt(T) factor samples, left = t[::B] - t[0] and right = t[:B],
    whose A x B sums cover t row by row and pad the last row.  Any other
    grid is one row, B = T (B = 1 without samples), with left = 0 and
    right = t.
    """
    n = len(t)
    if n > 2 and np.array_equal(t[:-1], np.arange(n - 1) * ((t[-1] - t[0]) / (n - 1)) + t[0]):
        return math.isqrt(n - 1) + 1
    return max(n, 1)


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


def _terms(phases, rows: int, reach: int):
    """Terms for n = 0..reach at each sample, as (reach + 1, rows, samples).

    phases holds u (and v) per sample.  With x = exp(-2 pi i u) and
    y = exp(-2 pi i v), rows 0 and 1 hold x^n y^(n^2) and conj(x)^n y^(n^2),
    the terms of +n and -n; rows 2 and 3 (rows = 4) hold x^n and conj(x)^n.
    The terms are running products z_{n+1} = z_n r_n from z_0 = 1, with
    ratios r_{n+1} = r_n y^2 from r_0 = x y and conj(x) y (x and conj(x)
    throughout on rows 2 and 3): three exponentials per sample, then
    multiplies, each recurrence one accumulate over n.
    """
    xy = np.exp(-2j * np.pi * phases)
    z = np.empty((reach + 1, rows, xy.shape[1]), dtype=complex)
    z[0] = 1.0
    ratios = z[1:]
    ratios[:, ::2] = xy[0]
    ratios[:, 1::2] = np.conj(xy[0])
    if len(phases) > 1:
        ratios[:1, :2] *= xy[1]
        ratios[1:, :2] = _unit_phasor((2.0 * phases[1]) % 1.0)
        np.multiply.accumulate(ratios[:, :2], axis=0, out=ratios[:, :2])
    return np.multiply.accumulate(z, axis=0, out=z)


# complex terms held at once: one row of many samples is taken in
# blocks, and 8 MB of terms keeps its memory linear in the samples at any
# support
_BLOCK_TERMS = 1 << 19


def _weighted_sum(weights, offsets, left, right, clone=None):
    """sum_n w_n exp(-2 pi i (u n + v n^2)) at every u = u_a + u_b, v = v_a + v_b.

    left holds the phases of A factor samples as rows u_a (and v_a),
    right those of B samples, all reduced mod 1.  Since n and n^2 are
    integers, every term factors into z_n(u_a, v_a) z_n(u_b, v_b), so
    ``_terms`` runs once over the A + B factor samples, and each A x B
    table of sums is one matrix product over the offsets.  Given clone
    weights c_n, the same run also gives sum_n c_n x^n from its x^n rows.
    Returns (1 or 2, A, B): the weighted sum, then the clone sum.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    dist = np.abs(offsets)
    reach = int(dist.max())
    sets = [weights] if clone is None else [weights, clone]
    n_sets, n_left = len(sets), left.shape[1]
    # ladder[s, j] holds set s's weights of +j and -j (offsets are distinct)
    ladder = np.zeros((n_sets, reach + 1, 2), dtype=complex)
    ladder[:, dist, (offsets < 0).astype(np.intp)] = sets
    out = np.empty((n_sets, n_left, right.shape[1]), dtype=complex)
    phases = np.concatenate([left, right], axis=1)
    # the left factors all come in the first block, and stay
    step = max(n_left + 1, _BLOCK_TERMS // (2 * n_sets * (reach + 1)))
    for s in range(0, phases.shape[1], step):
        z = _terms(phases[:, s : s + step], 2 * n_sets, reach)
        # each set's own two rows of terms, as (offset, direction) rows
        z = z.reshape(reach + 1, n_sets, 2, -1).transpose(1, 0, 2, 3)
        if s == 0:
            zl, z = z[..., :n_left], z[..., n_left:]
            # weights times left terms, as (set, (offset, direction), a)
            lw = (ladder[..., None] * zl).reshape(n_sets, 2 * (reach + 1), n_left)
        b = max(s - n_left, 0)
        zr = z.reshape(n_sets, 2 * (reach + 1), -1)
        out[..., b : b + z.shape[3]] = lw.swapaxes(1, 2) @ zr
    return out


def order1_series(packet, phase: PhaseData, t, shift_hyp=0):
    """Linear-phase approximant at t + shift_hyp * T_hyp (no a0 factor)."""
    u = _phases(phase, np.asarray(t, dtype=float), shift_hyp)[:1]
    return _weighted_sum(packet.weights, packet.offsets, np.zeros((1, 1)), u)[0, 0]


def order2_series(packet, phase: PhaseData, t, shift_hyp=0, shift_rev=0):
    """Quadratic-phase approximant at t + shift_hyp*T_hyp + shift_rev*T_rev."""
    uv = _phases(phase, np.asarray(t, dtype=float), shift_hyp, shift_rev)
    return _weighted_sum(packet.weights, packet.offsets, np.zeros((2, 1)), uv)[0, 0]


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
    shifted order-2 series, so one run of ``_weighted_sum`` gives both:
    x, y and y^2 taken once per factor sample, and x^n built by
    multiplication beside the order-2 terms, not exponentiated per sample
    and offset.  The run takes t's factor split, the left factors at
    t[::B] - t[0] and the right ones at t[:B] plus the shift, so both sums
    are taken at phases within a few ulp of t / T_hyp of each sample's
    own: ~1e-15 over a few T_hyp, and the same for the two sums.
    """
    from .gausssum import coefficients

    coeffs = coefficients(p, q, int(packet.center))
    folded = packet.weights * np.fft.fft(coeffs.phased)[packet.offsets % coeffs.ell]
    t = np.atleast_1d(np.asarray(t, dtype=float))
    b = _row_length(t)
    left = _phases(phase, t[::b] - t[:1])
    right = _phases(phase, t[:b], Fraction(p * phase.n_h, q))
    sums = _weighted_sum(packet.weights, packet.offsets, left, right, folded)
    shifted, clone = sums.reshape(2, -1)[:, : len(t)]
    sup = float(np.max(np.abs(clone - shifted), initial=0.0))
    return FractionalComparison(
        p=p, q=q, ell=coeffs.ell, clone_sum=clone, shifted_order2=shifted,
        sup_difference=sup,
    )
