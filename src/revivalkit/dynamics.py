"""Return/autocorrelation series and their order-1/order-2 approximants.

All series are weighted exponential sums over the packet's index offsets,
sum_n w_n exp(-2 pi i (u n + v n^2)) at each time.  Linear and quadratic
phases are reduced modulo 1 (offsets are integers), which keeps huge time
shifts exact; shifts given as Fractions combine with an exactly-known
T_rev/T_hyp ratio in rational arithmetic, the test seam for revival
identities.  The terms come by recurrence over consecutive offsets,
outward from n = 0: three exponentials per sample, x = exp(-2 pi i u),
y = exp(-2 pi i v) and y^2, then complex multiplies.  The approximants
take each sample's own phases, as one row of terms summed in blocks, in
memory linear in the samples.

A fractional revival's clone sum and its shifted order-2 series are taken
at t's unshifted phases, with the pair's shift and clone coefficients in
two weight columns.  On a uniform grid of T times, t[a B + b] = left[a] +
right[b] with B = ceil(sqrt(T)), so each term is a product of three
factors: its values at the two factor times, which do not depend on the
pair, and the pair's weight.  The first two are tabulated at the
~2 sqrt(T) factor samples and kept for the last phase, grid and offsets
seen, so each pair is one small batched matrix product over the offsets.
Any other grid is taken as one row of samples in blocks, and kept nowhere.
"""

from __future__ import annotations

import functools
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


def _shift(phase: PhaseData, shift_hyp=0, shift_rev=0):
    """Linear and quadratic phase (mod 1) per unit offset of a time shift.

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
    lin = (float(shift_hyp) + float(shift_rev) * r) % 1.0
    return lin, (float(shift_hyp) / r + float(shift_rev)) % 1.0


def _phases(phase: PhaseData, t, shift_hyp=0, shift_rev=0):
    """Linear and quadratic phases (mod 1) per unit offset at t + shifts, as two rows."""
    shift = np.array(_shift(phase, shift_hyp, shift_rev))[:, None]
    phases = t / np.array([[phase.t_hyp], [phase.t_rev]]) + shift
    # x - floor(x) is x % 1 to the bit, in fewer operations
    return phases - np.floor(phases)


def _uniform_head(start, stop, n: int):
    """The first n - 1 of n uniform samples from start to stop, as np.linspace makes them."""
    return np.arange(n - 1) * ((stop - start) / (n - 1)) + start


def _row_length(t) -> int:
    """Length B of the rows that t splits into, t[a B + b] = left[a] + right[b].

    A uniform grid, t[j] = t[0] + j * step to the bit as np.linspace makes
    it (its last sample is the end point itself), takes B = ceil(sqrt(T)):
    about 2 sqrt(T) factor samples, left = t[::B] - t[0] and right = t[:B],
    whose A x B sums cover t row by row and pad the last row.  Such a grid
    is fixed by t[0], t[-1] and T.  Any other grid is one row, B = T
    (B = 1 without samples).
    """
    n = len(t)
    if n > 2 and np.array_equal(t[:-1], _uniform_head(t[0], t[-1], n)):
        return math.isqrt(n - 1) + 1
    return max(n, 1)


def _split(a):
    """Veltkamp split a = hi + lo, each half carrying at most 26 significant bits."""
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


def _weighted_sum(weights, offsets, phases):
    """sum_n w_n exp(-2 pi i (u n + v n^2)) at each sample's u (and v).

    phases holds u (and v) per sample as rows, reduced mod 1.  ``_terms``
    runs over the samples in blocks of _BLOCK_TERMS terms, and each block's
    sums are a multiply-and-sum over the offsets: a BLAS product of this
    shape would wake a second thread for no gain.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    dist = np.abs(offsets)
    reach = int(dist.max())
    # ladder[j] holds the weights of +j and -j (offsets are distinct)
    ladder = np.zeros((reach + 1, 2, 1), dtype=complex)
    ladder[dist, (offsets < 0).astype(np.intp), 0] = weights
    out = np.empty(phases.shape[1], dtype=complex)
    step = max(1, _BLOCK_TERMS // (2 * (reach + 1)))
    for s in range(0, len(out), step):
        z = _terms(phases[:, s : s + step], 2, reach)
        z *= ladder
        out[s : s + step] = z.sum(axis=(0, 1))
    return out


_LIMB = 1 << 26


def _limbs(offsets):
    """n and n^2 per offset as a high and a low limb, (2, 2, N) floats.

    The high limb is a multiple of 2^26 below 2^53 in magnitude while
    |n| < 2^26.5, the low one lies in [0, 2^26): each has at most 27
    significant bits, so its product with a 26-bit half of ``_split`` is
    exact.
    """
    m = np.stack([offsets, offsets * offsets])
    low = m & (_LIMB - 1)
    return np.stack([m - low, low], axis=1).astype(float)


def _shift_phasors(lin: float, quad: float, limbs):
    """exp(-2 pi i lin n) and exp(-2 pi i (lin n + quad n^2)) per offset, as two rows.

    lin and quad split into 26-bit halves and n, n^2 into limbs
    (``_limbs``), so that every partial product is exact and reduces mod 1
    exactly; only the sum of the reduced products rounds, to a few ulp of
    a turn at any offset, where lin n + quad n^2 in floats loses n^2 ulp.
    """
    halves = np.array([_split(lin), _split(quad)])
    products = halves[:, :, None, None] * limbs[:, None]
    turns = (products - np.round(products)).sum(axis=(1, 2))
    turns[1] += turns[0]
    return np.exp(-2j * np.pi * (turns - np.round(turns)))


@functools.lru_cache(maxsize=1)
def _factor_tables(key: bytes, n_samples: int, offsets: bytes):
    """The pair-free factors of the clone comparison on a uniform grid.

    key holds the bits of a1, a2 and the grid's first and last samples;
    with n_samples and the offsets' bytes they fix the tables, which are
    built from these bits alone, so a memo hit gives what a miss gives.
    One ``_terms`` run over the A + B factor samples, unshifted, gathered
    at the offsets: left (2, A, N) and right (2, N, B), row 0 the x^n
    terms of the clone sum, row 1 the order-2 terms; and the offsets'
    ``_limbs``.  Read-only.
    """
    a1, a2, start, stop = np.frombuffer(key).tolist()
    offsets = np.frombuffer(offsets, dtype=np.int64)
    t = np.append(_uniform_head(start, stop, n_samples), stop)
    b = _row_length(t)
    phase = PhaseData(a0=0.0, a1=a1, a2=a2)
    n_left = len(t[::b])
    phases = np.concatenate([_phases(phase, t[::b] - t[:1]), _phases(phase, t[:b])], axis=1)
    dist = np.abs(offsets)
    neg = (offsets < 0).astype(np.intp)
    z = _terms(phases, 4, int(dist.max()))[dist, np.stack([2 + neg, neg])]
    tables = (
        np.ascontiguousarray(z[..., :n_left].swapaxes(1, 2)),
        np.ascontiguousarray(z[..., n_left:]),
        _limbs(offsets),
    )
    for table in tables:
        table.flags.writeable = False
    return tables


def order1_series(packet, phase: PhaseData, t, shift_hyp=0):
    """Linear-phase approximant at t + shift_hyp * T_hyp (no a0 factor)."""
    u = _phases(phase, np.asarray(t, dtype=float), shift_hyp)[:1]
    return _weighted_sum(packet.weights, packet.offsets, u)


def order2_series(packet, phase: PhaseData, t, shift_hyp=0, shift_rev=0):
    """Quadratic-phase approximant at t + shift_hyp*T_hyp + shift_rev*T_rev."""
    uv = _phases(phase, np.asarray(t, dtype=float), shift_hyp, shift_rev)
    return _weighted_sum(packet.weights, packet.offsets, uv)


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
    """Refuse a time grid holding a NaN or reaching past the horizon |ln h|^exponent."""
    t_max = float(np.max(np.asarray(t), initial=-np.inf))
    if math.isnan(t_max):
        raise ParameterError("time grid holds a NaN")
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
    FFT of b~ read at n mod ell.  The shift's phases fold into the weights
    too (``_shift_phasors``), so both sums are taken at t's own unshifted
    phases.  On a uniform grid each term is a product of three factors:
    its values at the two factor times, kept per grid (``_factor_tables``),
    and the pair's weight; each pair is then one batched product.  Any
    other grid is taken as one row, in blocks.
    """
    from .gausssum import coefficients

    coeffs = coefficients(p, q, int(packet.center))
    offsets = np.asarray(packet.offsets, dtype=np.int64)
    folded = packet.weights * np.fft.fft(coeffs.phased)[offsets % coeffs.ell]
    t = np.atleast_1d(np.asarray(t, dtype=float))
    uniform = _row_length(t) < len(t)
    if uniform:
        key = np.array([phase.a1, phase.a2, t[0], t[-1]]).tobytes()
        left, right, limbs = _factor_tables(key, len(t), offsets.tobytes())
    else:
        limbs = _limbs(offsets)
    # the clone weights, then the order-2 ones, each with the shift's phases
    weights = _shift_phasors(*_shift(phase, Fraction(p * phase.n_h, q)), limbs)
    weights[0] *= folded
    weights[1] *= packet.weights
    if uniform:
        clone, shifted = ((left * weights[:, None]) @ right).reshape(2, -1)[:, : len(t)]
    else:
        uv = _phases(phase, t)
        clone = _weighted_sum(weights[0], offsets, uv[:1])
        shifted = _weighted_sum(weights[1], offsets, uv)
    sup = float(np.max(np.abs(clone - shifted), initial=0.0))
    return FractionalComparison(
        p=p, q=q, ell=coeffs.ell, clone_sum=clone, shifted_order2=shifted,
        sup_difference=sup,
    )
