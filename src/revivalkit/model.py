"""Quantization functions of the barrier-top spectral model.

Builds the two phase functions whose 2*pi*k level crossings give the two
interleaved eigenvalue families in the window [-h, h], together with
their first three derivatives (via digamma/trigamma/tetragamma) and the
inverse-function derivative records used by the dynamics module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev, chebval

from . import packet
from .dynamics import PhaseData
from .errors import DomainError, MonotonicityError, NumericalError, ParameterError, SupportError
from .potential import Potential, regularized_action, validate_saddle
from .specfun import arg_gamma_half_line, digamma, tetragamma, trigamma
from .util import bisect_lockstep

TWO_PI = 2.0 * math.pi
# packets sit on the alpha family's ladder
LADDER_FAMILY = "alpha"


@dataclass(frozen=True)
class PanelSeries:
    """A function and its first three derivatives as local Chebyshev series.

    Panel j spans [breaks[j], breaks[j+1]], with centre[j] and halfwidth[j];
    coef[k, d, j] is the k-th coefficient of the order-d derivative on
    panel j in the panel variable t = (E - centre[j]) / halfwidth[j], and is
    zero past that series' lengths[d, j] kept terms.
    """

    breaks: np.ndarray
    centre: np.ndarray
    halfwidth: np.ndarray
    coef: np.ndarray
    lengths: np.ndarray

    def __call__(self, energy):
        """The function at energy."""
        return self._clenshaw(energy, 0)

    def derivatives(self, energy) -> np.ndarray:
        """Derivatives 1..3 at energy, stacked on a new first axis, in one Clenshaw pass."""
        return self._clenshaw(energy, slice(1, 4))

    def _clenshaw(self, energy, orders):
        """One Clenshaw pass as long as the longest series of the panels hit."""
        energy = np.asarray(energy, dtype=float)
        # the panel of each point; past either end, the end panel
        j = np.searchsorted(self.breaks[1:-1], energy, side="right")
        first = j.flat[0] if j.size else 0
        if (j == first).all():
            # one panel (every point at small h): its coefficients broadcast
            t = (energy - self.centre[first]) / self.halfwidth[first]
            coef = self.coef[: self.lengths[orders, first].max(), orders, first]
            # one series runs faster untensored; stacked orders need the outer product
            return chebval(t, coef, tensor=coef.ndim > 1)
        t = (energy - self.centre[j]) / self.halfwidth[j]
        n = self.lengths[orders][..., j].max()
        return chebval(t, self.coef[:n, orders, j], tensor=False)


@dataclass(frozen=True)
class ActionTable:
    """The regularized lobe actions on [-delta, delta], as panel series.

    total and diff hold theta_+ + theta_- and theta_+ - theta_- with their
    first three derivatives; diff is None for an even potential, whose two
    lobes have one action.  chop_bound is the largest sum of the
    coefficients dropped from one panel series, relative to the largest
    sample of its series: a bound on the relative chop error.
    """

    delta: float
    total: PanelSeries
    diff: PanelSeries | None
    chop_bound: float


# energy half-width of the table, Chebyshev nodes, Gauss-Jacobi nodes per action
ACTION_DELTA, FIT_NODES, QUAD_NODES = 0.1, 160, 600
# Chebyshev-graded panels (odd, so that E = 0 lies inside the middle one),
# Chebyshev nodes per panel, and per derivative order 0..3 the chop tolerance
# relative to a series' largest panel coefficient: orders 2-3 are sampled
# within ~5 rounding steps of their largest value, not ~1, and their panel
# tails settle up to ~1.5 steps high, so they are cut at 16
PANELS, PANEL_NODES = 31, 40
CHOP_TOL = np.finfo(float).eps * np.array([1.0, 1.0, 16.0, 16.0])

_TABLE_CACHE: dict[str, ActionTable] = {}


def _interpolant(values: np.ndarray, delta: float) -> tuple[Chebyshev, ...]:
    """The degree N-1 Chebyshev series through values at the N nodes
    delta cos((2j+1) pi / 2N), with its first three derivatives.

    Its coefficients are the DCT-II of the values, taken from one real FFT
    of their even extension.
    """
    n = len(values)
    spectrum = np.fft.rfft(np.concatenate([values, values[::-1]]))[:n]
    coef = np.real(np.exp(-0.5j * np.pi * np.arange(n) / n) * spectrum) / n
    coef[0] *= 0.5
    f = Chebyshev(coef, domain=[-delta, delta])
    return (f,) + tuple(f.deriv(k) for k in (1, 2, 3))


def _sample_panels(coef: np.ndarray, centre: np.ndarray, halfwidth: np.ndarray,
                   t: np.ndarray, delta: float) -> np.ndarray:
    """sum_k coef[k] T_k(x) at x = (centre + halfwidth t) / delta, per column
    of coef, panel (centre, halfwidth) and node t: shape (column, panel, node).

    Panels with |centre| < delta / 2 take Clenshaw's recurrence in x.  The
    outer ones are mirrored to u = |x|, by T_k(-u) = (-1)^k T_k(u), and take
    Reinsch's form of it in d = 2 (u - 1), which keeps the relative
    precision of u - 1 near u = 1 because centre - delta is exact there.  In
    x, Clenshaw's recurrence loses hundreds of rounding steps near x = +-1
    on the derivative series, whose coefficients grow with k; Reinsch's
    form near x = 0 loses a few, which would put the panel tails of the
    difference's slope within a factor 2 of their chop tolerance.
    """
    inner = np.abs(centre) < 0.5 * delta
    out = np.empty((coef.shape[1], len(centre), len(t)))
    out[:, inner] = chebval((centre[inner, None] + halfwidth[inner, None] * t) / delta, coef)
    side = np.sign(centre[~inner])
    d = 2.0 * ((side * centre[~inner] - delta)[:, None] + (side * halfwidth[~inner])[:, None] * t) / delta
    mirrored = coef[:, :, None, None] * side[:, None] ** np.arange(len(coef))[:, None, None, None]
    # Clenshaw's b_k = c_k + 2u b_{k+1} - b_{k+2} in r_k = b_k - b_{k+1}:
    # r_k = c_k + d b_{k+1} + r_{k+1} and b_k = r_k + b_{k+1}
    b, r = np.zeros((2,) + mirrored.shape[1:-1] + d.shape[-1:])
    step = np.empty_like(b)
    for c in mirrored[:0:-1]:
        np.multiply(d, b, out=step)
        r += step
        r += c
        b += r
    # the sum b_0 - u b_1 = r_0 - (d / 2) b_1
    out[:, ~inner] = mirrored[0] + r + 0.5 * d * b
    return out


def _panel_table(delta: float, total: tuple[Chebyshev, ...],
                 diff: tuple[Chebyshev, ...] | None) -> ActionTable:
    """Re-expand the interpolants and their derivatives on PANELS panels.

    The breaks are delta cos(pi j / PANELS).  Every series is sampled at
    PANEL_NODES Chebyshev nodes per panel (_sample_panels), and all panels
    are interpolated by one DCT-II matrix product.  The product takes each
    panel's samples less its middle one, which is added back to c0 after:
    c0 then rounds once, not PANEL_NODES times.  Each panel series of
    derivative order d is cut after its last coefficient above CHOP_TOL[d]
    times the largest coefficient of its series on any panel.
    """
    series = total + (diff or ())
    breaks = delta * np.cos(np.pi * np.arange(PANELS, -1, -1) / PANELS)
    centre, halfwidth = 0.5 * (breaks[1:] + breaks[:-1]), 0.5 * (breaks[1:] - breaks[:-1])
    k = np.arange(PANEL_NODES)
    stacked = np.zeros((len(series[0].coef), len(series)))
    for s, f in enumerate(series):
        stacked[: len(f.coef), s] = f.coef
    nodes = np.cos((2 * k + 1) * np.pi / (2 * PANEL_NODES))
    samples = _sample_panels(stacked, centre, halfwidth, nodes, delta)  # (series, panel, node)
    middle = samples[..., PANEL_NODES // 2, None]
    # cos(k theta_j), with k (2j+1) reduced mod 4N so that the angle stays below 2 pi
    cosines = np.cos(np.outer(2 * k + 1, k) % (4 * PANEL_NODES) * (np.pi / (2 * PANEL_NODES)))
    coef = (samples - middle) @ cosines * (2.0 / PANEL_NODES)
    coef[..., 0] = 0.5 * coef[..., 0] + middle[..., 0]
    size = np.abs(coef)
    tol = np.tile(CHOP_TOL, len(series) // 4)[:, None, None]
    above = size > tol * size.max(axis=(1, 2), keepdims=True)
    lengths = np.max(np.where(above, k + 1, 1), axis=-1)
    if np.any(above[..., -1]):
        raise NumericalError(f"an action-table panel needs more than {PANEL_NODES} terms")
    kept = k < lengths[..., None]
    sup = np.max(np.abs(samples), axis=(1, 2))
    dropped = np.sum(np.where(kept, 0.0, size), axis=-1) / sup[:, None]
    coef = np.where(kept, coef, 0.0)[..., : lengths.max()]
    coef = np.ascontiguousarray(np.moveaxis(coef, -1, 0))  # (k, series, panel)

    def panels(rows: slice) -> PanelSeries:
        return PanelSeries(breaks, centre, halfwidth, coef[:, rows], lengths[rows])

    return ActionTable(delta, panels(slice(0, 4)),
                       None if diff is None else panels(slice(4, 8)), float(np.max(dropped)))


def build_action_table(potential: Potential) -> ActionTable:
    """Sample the regularized actions at Chebyshev nodes on [-delta, delta],
    interpolate, and re-expand the interpolants on panels."""
    hit = _TABLE_CACHE.get(potential.descriptor)
    if hit is not None:
        return hit
    delta = ACTION_DELTA
    j = np.arange(FIT_NODES)
    nodes = delta * np.cos((2 * j + 1) * np.pi / (2 * FIT_NODES))
    plus = regularized_action(potential, nodes, +1, QUAD_NODES)
    if potential.even:
        # both lobes carry the same action
        table = _panel_table(delta, _interpolant(2.0 * plus, delta), None)
    else:
        minus = regularized_action(potential, nodes, -1, QUAD_NODES)
        table = _panel_table(delta, _interpolant(plus + minus, delta),
                             _interpolant(plus - minus, delta))
    _TABLE_CACHE[potential.descriptor] = table
    return table


@dataclass(frozen=True)
class SpectrumWindow:
    """The two eigenvalue families inside [-h, h], as {index k: lambda_k} maps."""

    h: float
    alpha_lambdas: dict[int, float]
    beta_lambdas: dict[int, float]

    def family(self, name: str) -> list[tuple[int, float]]:
        """(index, eigenvalue) pairs of one family, by increasing eigenvalue."""
        lams = {"alpha": self.alpha_lambdas, "beta": self.beta_lambdas}[name]
        return sorted(((k, self.h * lam) for k, lam in lams.items()), key=lambda kv: kv[1])

    @property
    def alphas(self) -> list[tuple[int, float]]:
        return self.family("alpha")

    @property
    def betas(self) -> list[tuple[int, float]]:
        return self.family("beta")

    def gaps(self, name: str) -> np.ndarray:
        vals = np.array([v for _, v in self.family(name)])
        return np.abs(np.diff(vals))

    def all_sorted(self) -> list[tuple[str, int, float]]:
        rows = [("alpha", k, v) for k, v in self.alphas]
        rows += [("beta", l, v) for l, v in self.betas]
        return sorted(rows, key=lambda r: r[2])

    def csv_rows(self) -> list[tuple]:
        """Rows (family, index, lambda, eigenvalue, gap_to_next) per family."""
        rows = []
        for name, lam_map in (("alpha", self.alpha_lambdas), ("beta", self.beta_lambdas)):
            pairs = self.family(name)
            for i, (k, v) in enumerate(pairs):
                gap = pairs[i + 1][1] - v if i + 1 < len(pairs) else float("nan")
                rows.append((name, k, lam_map[k], v, gap))
        return rows


class SpectralModel:
    """Phase functions for one potential at one value of h.

    Evaluations admit any lambda with |lambda * h| <= delta, the energy
    half-width of the action table: the window [-h, h] is lambda in
    [-1, 1], and the extended ladder beyond it feeds the dynamics.  So h
    itself must lie in (0, delta], or ParameterError is raised.
    """

    def __init__(self, potential: Potential, h: float):
        validate_saddle(potential)
        self.table = build_action_table(potential)
        if not 0.0 < h <= self.table.delta:
            raise ParameterError(f"h must lie in (0, {self.table.delta:g}], the action table's "
                                 f"half-width, got {h:g}")
        self.potential = potential
        self.h = float(h)
        self.lnh = math.log(h)
        self.w = potential.curvature_scale

    # -- plumbing ---------------------------------------------------------

    def _check_domain(self, lam):
        lam = np.asarray(lam, dtype=float)
        if np.any(np.abs(lam) * self.h > self.table.delta):
            raise DomainError(f"|lambda*h| exceeds delta={self.table.delta:g}")
        return lam

    def epsilon_over_h(self, lam):
        """epsilon(lambda h)/h at leading order: lambda / sqrt(-V''(0))."""
        return np.asarray(lam, dtype=float) / self.w

    # -- the quantization phases ------------------------------------------

    def f_h(self, lam):
        lam = self._check_domain(lam)
        y = self.epsilon_over_h(lam)
        theta_sum = self.table.total(lam * self.h) / (2.0 * self.h)
        return -theta_sum + 0.5 * np.pi + y * self.lnh + arg_gamma_half_line(y)

    def _g(self, lam):
        return self.table.diff(lam * self.h) / (2.0 * self.h)

    def _tunneling_angle(self, lam):
        """arccos(cos g / sqrt(1 + e^{2z})) with z = pi eps/h, taken overflow-safe
        as atan2(sqrt(e^{2z} + sin^2 g), cos g): the same angle, accurate also
        where the arccos argument nears +-1.  An even potential has g = 0: arctan(e^z)."""
        lam = np.asarray(lam, dtype=float)
        e = np.exp(np.clip(np.pi * lam / self.w, None, 700.0))
        if self.potential.even:
            return np.arctan(e)
        g = self._g(lam)
        return np.arctan2(np.hypot(e, np.sin(g)), np.cos(g))

    def y_h(self, lam):
        return self.f_h(lam) - self._tunneling_angle(lam)

    def z_h(self, lam):
        return self.f_h(lam) + self._tunneling_angle(lam)

    def _phase(self, family: str):
        return {"alpha": self.y_h, "beta": self.z_h}[family]

    # -- derivatives -------------------------------------------------------

    def _tunneling_angle_derivatives(self, lam):
        """First three lambda-derivatives of the tunneling angle: in general,
        _chain through cos(g) and (1 + q)^(-1/2), q = e^{2z}, the product rule
        for their product u, and _chain through arccos(u), with 1 - u^2 taken
        without cancellation as (q + sin^2 g) / (1 + q)."""
        c = np.pi / self.w
        if self.potential.even:
            z = c * lam
            az = np.abs(z)
            sech = 2.0 * np.exp(-az) / (1.0 + np.exp(-2.0 * az))
            tanh = np.tanh(z)
            return (
                0.5 * c * sech,
                -0.5 * c**2 * sech * tanh,
                -0.5 * c**3 * sech * (2.0 * sech**2 - 1.0),
            )
        h = self.h
        q = np.exp(2.0 * c * lam)
        s = (1.0 + q) ** -0.5
        g = self._g(lam)
        cg, sg = np.cos(g), np.sin(g)
        gd = [d * h ** k / 2.0 for k, d in enumerate(self.table.diff.derivatives(lam * h))]
        cd = _chain(gd, (-sg, -cg, sg))
        sd = _chain([q * (2.0 * c) ** k for k in (1, 2, 3)],
                    (-0.5 * s**3, 0.75 * s**5, -1.875 * s**7))
        u = cg * s
        ud = (cd[0] * s + cg * sd[0],
              cd[1] * s + 2.0 * cd[0] * sd[0] + cg * sd[1],
              cd[2] * s + 3.0 * (cd[1] * sd[0] + cd[0] * sd[1]) + cg * sd[2])
        om = (q + sg * sg) / (1.0 + q)
        if np.any(om < 1e-14):
            raise NumericalError("tunneling angle too close to its endpoint")
        return _chain(ud, (-om**-0.5, -u * om**-1.5, -(1.0 + 2.0 * u * u) * om**-2.5))

    def _tunneling_angle_slope(self, lam):
        """The first of _tunneling_angle_derivatives, by the same arithmetic."""
        c = np.pi / self.w
        if self.potential.even:
            az = np.abs(c * lam)
            return 0.5 * c * (2.0 * np.exp(-az) / (1.0 + np.exp(-2.0 * az)))
        q = np.exp(2.0 * c * lam)
        s = (1.0 + q) ** -0.5
        g = self._g(lam)
        cg, sg = np.cos(g), np.sin(g)
        cd = -sg * (self.table.diff.derivatives(lam * self.h)[0] / 2.0)
        sd = -0.5 * s**3 * (q * (2.0 * c))
        om = (q + sg * sg) / (1.0 + q)
        if np.any(om < 1e-14):
            raise NumericalError("tunneling angle too close to its endpoint")
        return -om**-0.5 * (cd * s + cg * sd)

    def _slope(self, lam, family: str):
        """The first of _derivatives, by the same arithmetic: digamma alone, no higher chains."""
        lam = self._check_domain(lam)
        sign = {"alpha": -1.0, "beta": 1.0}[family]
        w = self.w
        d = -(self.table.total.derivatives(lam * self.h)[0] / 2.0) + np.real(digamma(0.5 + 1j * lam / w)) / w
        return d + self.lnh / w + sign * self._tunneling_angle_slope(lam)

    def _derivatives(self, lam, family: str = "alpha"):
        """First three lambda-derivatives of one family's phase (y_h or z_h)."""
        lam = self._check_domain(lam)
        h, w = self.h, self.w
        sign = {"alpha": -1.0, "beta": 1.0}[family]
        z = 0.5 + 1j * lam / w
        arg_gamma = (
            np.real(digamma(z)) / w,
            -np.imag(trigamma(z)) / w**2,
            -np.real(tetragamma(z)) / w**3,
        )
        angle = self._tunneling_angle_derivatives(lam)
        total = self.table.total.derivatives(lam * h)
        out = []
        for k in (1, 2, 3):
            d = -(total[k - 1] * h ** (k - 1) / 2.0) + arg_gamma[k - 1]
            if k == 1:
                d = d + self.lnh / w
            out.append(d + sign * angle[k - 1])
        return tuple(out)

    # -- root solving ------------------------------------------------------

    def _solve_on(self, func, lam_lo: float, lam_hi: float, n_grid: int = 4097):
        grid = np.linspace(lam_lo, lam_hi, n_grid)
        fv = func(grid)
        dv = np.diff(fv)
        if not (np.all(dv < 0.0) or np.all(dv > 0.0)):
            raise MonotonicityError(
                "sampled quantization phase is not strictly monotone"
            )
        lo, hi = float(min(fv[0], fv[-1])), float(max(fv[0], fv[-1]))
        # lo / 2 pi can round across an integer that 2 pi k does not: take
        # one k past each end, then every k whose target lies in [lo, hi]
        ks = np.arange(math.ceil(lo / TWO_PI) - 1, math.floor(hi / TWO_PI) + 2)
        targets = TWO_PI * ks
        keep = (targets >= lo) & (targets <= hi)
        ks, targets = ks[keep], targets[keep]
        # first sample interval [i, i+1] with the target between its ends,
        # the left one when the target equals a sample exactly
        rising = fv[-1] > fv[0]
        up, t_up = (fv, targets) if rising else (-fv, -targets)
        i = np.maximum(np.searchsorted(up, t_up, side="left") - 1, 0)
        lams = bisect_lockstep(func, grid[i], grid[i + 1],
                                fv[i] - targets, fv[i + 1] - targets, targets)
        return {int(k): float(lam) for k, lam in zip(ks, lams)}

    def solve_families(self) -> SpectrumWindow:
        """Enumerate both families inside the window [-h, h]."""
        return SpectrumWindow(
            h=self.h,
            alpha_lambdas=self._solve_on(self.y_h, -1.0, 1.0),
            beta_lambdas=self._solve_on(self.z_h, -1.0, 1.0),
        )

    def solve_ladder(self, lam_center: float, n_side: int):
        """Every LADDER_FAMILY root within n_side indices of the one nearest lam_center.

        Returns {index k: lambda_k} for those indices, as far as the table's
        domain |lambda h| <= 0.95 delta reaches.  The gaps widen away from the
        barrier top, so each side is sized by the smaller of the slopes at
        lam_center and where the log term's slope ln(h)/w alone would end it,
        and doubled until it holds n_side roots past the nearest one.
        """
        func, c = self._phase(LADDER_FAMILY), lam_center
        lam_max = 0.95 * self.table.delta / self.h
        reach = (n_side + 3) * TWO_PI
        guess = reach * self.w / abs(self.lnh)
        probe = np.clip(c + np.array([0.0, -guess, guess]), -lam_max, lam_max)
        slope = np.abs(self._slope(probe, LADDER_FAMILY))
        span = reach / np.minimum(slope[0], slope[1:])
        n_grid = max(4097, 16 * (2 * n_side + 8))
        while True:
            lo, hi = max(c - span[0], -lam_max), min(c + span[1], lam_max)
            roots = self._solve_on(func, lo, hi, n_grid)
            by_lam = sorted(roots, key=roots.get)
            i = by_lam.index(select_alpha_near(roots, c))
            short = np.array([i < n_side and lo > -lam_max,
                              len(by_lam) - 1 - i < n_side and hi < lam_max])
            if not short.any():
                k0 = by_lam[i]
                return {k: lam for k, lam in roots.items() if abs(k - k0) <= n_side}
            span = np.where(short, 2.0 * span, span)

    def root_checks(self, window: SpectrumWindow, ladder: dict[int, float] | None = None) -> dict:
        """Root diagnostics over the window's two families and, if given, the alpha ladder.

        max_root_residual_rad is the largest |phase(lambda_k) - 2 pi k|;
        max_root_resolution_lambda is the largest ulp(2 pi k)/|phase'(lambda_k)|,
        the width in lambda of one rounding step of the phase at the root.
        """
        sets = [("alpha", window.alpha_lambdas), ("beta", window.beta_lambdas)]
        if ladder is not None:
            sets.append(("alpha", ladder))
        residual = resolution = 0.0
        for family, roots in sets:
            if roots:
                targets = TWO_PI * np.array(list(roots.keys()), dtype=float)
                lams = np.array(list(roots.values()))
                err = np.abs(self._phase(family)(lams) - targets)
                step = np.spacing(np.abs(targets)) / np.abs(self._slope(lams, family))
                residual = max(residual, float(np.max(err)))
                resolution = max(resolution, float(np.max(step)))
        return {"max_root_residual_rad": residual, "max_root_resolution_lambda": resolution}

    def phase_data(self, roots: dict[int, float], n0: int) -> PhaseData:
        """Inverse-function derivative records at the index-n0 root."""
        lam0 = roots[n0]
        # the root rides at the end of the window grid: one derivative pass
        lam = np.append(np.linspace(-1.0, 1.0, 201), lam0)
        y1, y2, y3 = self._derivatives(lam)
        yp, ypp, yppp = float(y1[-1]), float(y2[-1]), float(y3[-1])
        a1 = 1.0 / yp
        a2 = -ypp / yp**3
        a3 = -yppp / yp**4 + 3.0 * ypp**2 / yp**5
        a3_bound = float(
            np.max(np.abs(-y3[:-1] / y1[:-1]**4 + 3.0 * y2[:-1]**2 / y1[:-1]**5))
        )
        return PhaseData(a0=lam0, a1=a1, a2=a2, a3=a3, a3_bound=a3_bound, curvature_at_root=ypp)


def _chain(inner, outer):
    """Derivatives 1..3 of f(v(x)) by Faa di Bruno's formula, from the
    derivatives 1..3 of v at x (inner) and of f at v(x) (outer)."""
    (v1, v2, v3), (f1, f2, f3) = inner, outer
    return f1 * v1, f2 * v1 * v1 + f1 * v2, f3 * v1**3 + 3.0 * f2 * v1 * v2 + f1 * v3


def select_alpha_near(roots: dict[int, float], lam_target: float) -> int:
    """Index of the ladder root nearest the target lambda."""
    return min(roots, key=lambda k: abs(roots[k] - lam_target))


@dataclass(frozen=True)
class LadderPoint:
    """Window, packet centred on the extended alpha ladder, phase data at its centre."""

    model: SpectralModel
    window: SpectrumWindow
    center_beta: int
    ladder: dict[int, float]
    packet: packet.CoefficientSequence
    phase: PhaseData


def ladder_point(potential: Potential, spec: packet.PacketSpec) -> LadderPoint:
    """The point pipeline: window -> centres -> ladder -> packet -> phase data.

    The ladder reaches three roots past the packet's truncation radius on
    each side.  Where the action table's domain ends inside that radius
    (large h), the packet would be clipped, and SupportError is raised.
    """
    model = SpectralModel(potential, spec.h)
    window = model.solve_families()
    n0, m0 = packet.select_centers(window, spec.energy)
    radius = math.ceil(packet.RADIUS_FACTOR * spec.width)
    ladder = model.solve_ladder(window.alpha_lambdas[n0], n_side=radius + 3)
    if not all(n in ladder for n in range(n0 - radius, n0 + radius + 1)):
        raise SupportError(
            f"at h={spec.h:g} the ladder, cut at the action table's domain, "
            f"does not reach the packet's indices {n0} +- {radius}"
        )
    coeffs = packet.build_coefficients(spec, n0, index_set=ladder.keys())
    return LadderPoint(model, window, m0, ladder, coeffs, model.phase_data(ladder, n0))


def interleaving_violations(window: SpectrumWindow) -> int:
    """Number of adjacent same-family pairs in the sorted pooled spectrum."""
    fams = [f for f, _, _ in window.all_sorted()]
    return sum(1 for a, b in zip(fams, fams[1:]) if a == b)

