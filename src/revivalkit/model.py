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
from numpy.polynomial.chebyshev import Chebyshev

from . import packet
from .dynamics import PhaseData
from .errors import (
    DomainError,
    MonotonicityError,
    NumericalError,
    RootBracketError,
)
from .potential import Potential, regularized_action, validate_saddle
from .specfun import arg_gamma_half_line, digamma, tetragamma, trigamma
from .util import bisect_lockstep

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ActionTable:
    """Chebyshev fits of the regularized lobe actions on [-delta, delta].

    plus[k] and minus[k] are the k-th derivatives (k = 0..3) of the right-
    and left-lobe fits.
    """

    delta: float
    plus: tuple[Chebyshev, ...]
    minus: tuple[Chebyshev, ...]


# energy half-width of the fit, Chebyshev nodes, Gauss-Jacobi nodes per action
ACTION_DELTA, FIT_NODES, QUAD_NODES = 0.1, 160, 600

_TABLE_CACHE: dict[str, ActionTable] = {}


def build_action_table(potential: Potential) -> ActionTable:
    """Sample the regularized actions at Chebyshev nodes on [-delta, delta] and fit."""
    hit = _TABLE_CACHE.get(potential.descriptor)
    if hit is not None:
        return hit
    delta = ACTION_DELTA
    j = np.arange(FIT_NODES)
    nodes = delta * np.cos((2 * j + 1) * np.pi / (2 * FIT_NODES))
    fits = []
    for side in (+1,) if potential.even else (+1, -1):
        vals = regularized_action(potential, nodes, side, QUAD_NODES)
        fit = Chebyshev.fit(nodes, vals, deg=FIT_NODES - 1, domain=[-delta, delta])
        fits.append((fit,) + tuple(fit.deriv(k) for k in (1, 2, 3)))
    # an even potential's lobes share one fit
    table = ActionTable(delta=delta, plus=fits[0], minus=fits[-1])
    _TABLE_CACHE[potential.descriptor] = table
    return table


@dataclass(frozen=True)
class SpectrumWindow:
    """The two eigenvalue families inside [-h, h]."""

    h: float
    alphas: list[tuple[int, float]]
    betas: list[tuple[int, float]]
    alpha_lambdas: dict[int, float]
    beta_lambdas: dict[int, float]

    def family(self, name: str) -> list[tuple[int, float]]:
        if name == "alpha":
            return self.alphas
        if name == "beta":
            return self.betas
        raise KeyError(name)

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
            pairs = sorted(self.family(name), key=lambda kv: kv[1])
            for i, (k, v) in enumerate(pairs):
                gap = pairs[i + 1][1] - v if i + 1 < len(pairs) else float("nan")
                rows.append((name, k, lam_map[k], v, gap))
        return rows


class SpectralModel:
    """Phase functions for one potential at one value of h.

    Evaluations admit any lambda with |lambda * h| <= delta, the energy
    half-width of the action table: the window [-h, h] is lambda in
    [-1, 1], and the extended ladder beyond it feeds the dynamics.
    """

    def __init__(self, potential: Potential, h: float):
        if not 0.0 < h < 1.0:
            raise DomainError(f"h must lie in (0, 1), got {h:g}")
        validate_saddle(potential)
        self.potential = potential
        self.h = float(h)
        self.lnh = math.log(h)
        self.w = potential.curvature_scale
        self.table = build_action_table(potential)

    # -- plumbing ---------------------------------------------------------

    def _lobe_sum(self, order: int, energy):
        """Sum of the two lobe actions' order-th derivatives at the energies."""
        plus = self.table.plus[order](energy)
        if self.potential.even:
            # both lobes share one fit: a + a == 2a exactly
            return 2.0 * plus
        return plus + self.table.minus[order](energy)

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
        theta_sum = self._lobe_sum(0, lam * self.h) / (2.0 * self.h)
        return -theta_sum + 0.5 * np.pi + y * self.lnh + arg_gamma_half_line(y)

    def g_h(self, lam):
        return self._g(self._check_domain(lam))

    def _g(self, lam):
        if self.potential.even:
            return np.zeros_like(lam)
        table = self.table
        return (table.plus[0](lam * self.h) - table.minus[0](lam * self.h)) / (2.0 * self.h)

    def _tunneling_angle(self, lam):
        """arccos(cos g / sqrt(1 + e^{2 pi eps/h})), overflow-safe when g = 0."""
        lam = np.asarray(lam, dtype=float)
        z = np.pi * lam / self.w
        if self.potential.even:
            # arccos(1/sqrt(1+e^{2z})) = arctan(e^z)
            return np.arctan(np.exp(np.clip(z, None, 700.0)))
        g = self._g(lam)
        arg = np.cos(g) / np.sqrt(1.0 + np.exp(2.0 * np.clip(z, None, 350.0)))
        over = np.abs(arg) - 1.0
        if np.any(over > 1e-12):
            raise NumericalError("tunneling-angle argument exceeds 1 by > 1e-12")
        return np.arccos(np.clip(arg, -1.0, 1.0))

    def y_h(self, lam):
        return self.f_h(lam) - self._tunneling_angle(lam)

    def z_h(self, lam):
        return self.f_h(lam) + self._tunneling_angle(lam)

    # -- derivatives -------------------------------------------------------

    def _arg_gamma_derivative(self, lam, order: int):
        z = 0.5 + 1j * np.asarray(lam, dtype=float) / self.w
        if order == 1:
            return np.real(digamma(z)) / self.w
        if order == 2:
            return -np.imag(trigamma(z)) / self.w**2
        if order == 3:
            return -np.real(tetragamma(z)) / self.w**3
        raise ValueError(order)

    def _tunneling_angle_derivative(self, lam, order: int):
        lam = np.asarray(lam, dtype=float)
        c = np.pi / self.w
        if self.potential.even:
            z = c * lam
            az = np.abs(z)
            sech = 2.0 * np.exp(-az) / (1.0 + np.exp(-2.0 * az))
            tanh = np.tanh(z)
            if order == 1:
                return 0.5 * c * sech
            if order == 2:
                return -0.5 * c**2 * sech * tanh
            if order == 3:
                return -0.5 * c**3 * sech * (2.0 * sech**2 - 1.0)
            raise ValueError(order)
        # general potentials: chain rule through u = cos(g) * (1+q)^(-1/2)
        h = self.h
        q = np.exp(2.0 * c * lam)
        qd = [q * (2.0 * c) ** k for k in range(4)]
        s = (1.0 + q) ** -0.5
        sp = -0.5 * (1.0 + q) ** -1.5 * qd[1]
        spp = 0.75 * (1.0 + q) ** -2.5 * qd[1] ** 2 - 0.5 * (1.0 + q) ** -1.5 * qd[2]
        sppp = (
            -1.875 * (1.0 + q) ** -3.5 * qd[1] ** 3
            + 2.25 * (1.0 + q) ** -2.5 * qd[1] * qd[2]
            - 0.5 * (1.0 + q) ** -1.5 * qd[3]
        )
        g = self._g(lam)
        gd = [
            (self.table.plus[k](lam * h) - self.table.minus[k](lam * h))
            * h ** (k - 1)
            / 2.0
            for k in range(1, 4)
        ]
        cg, sg = np.cos(g), np.sin(g)
        u = cg * s
        up = -sg * gd[0] * s + cg * sp
        upp = (
            -cg * gd[0] ** 2 * s
            - sg * gd[1] * s
            - 2.0 * sg * gd[0] * sp
            + cg * spp
        )
        uppp = (
            sg * gd[0] ** 3 * s
            - 3.0 * cg * gd[0] * gd[1] * s
            - 3.0 * cg * gd[0] ** 2 * sp
            - sg * gd[2] * s
            - 3.0 * sg * gd[1] * sp
            - 3.0 * sg * gd[0] * spp
            + cg * sppp
        )
        om = 1.0 - u * u
        if np.any(om < 1e-14):
            raise NumericalError("tunneling angle too close to its endpoint")
        if order == 1:
            return -up * om**-0.5
        if order == 2:
            return -upp * om**-0.5 - u * up**2 * om**-1.5
        if order == 3:
            return (
                -uppp * om**-0.5
                - 3.0 * u * up * upp * om**-1.5
                - up**3 * om**-1.5
                - 3.0 * u**2 * up**3 * om**-2.5
            )
        raise ValueError(order)

    def _phase_derivative(self, lam, order: int, sign: float):
        lam = self._check_domain(lam)
        h = self.h
        theta_sum_d = self._lobe_sum(order, lam * h) * h ** (order - 1) / 2.0
        out = -theta_sum_d + self._arg_gamma_derivative(lam, order)
        if order == 1:
            out = out + self.lnh / self.w
        return out + sign * self._tunneling_angle_derivative(lam, order)

    def y_derivative(self, lam, order: int):
        """Analytic derivative of the alpha-family phase, order 1, 2 or 3."""
        if order not in (1, 2, 3):
            raise ValueError(f"order must be 1, 2 or 3, got {order}")
        return self._phase_derivative(lam, order, -1.0)

    def z_derivative(self, lam, order: int):
        if order not in (1, 2, 3):
            raise ValueError(f"order must be 1, 2 or 3, got {order}")
        return self._phase_derivative(lam, order, +1.0)

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
        ks = np.arange(int(np.ceil(lo / TWO_PI)), int(np.floor(hi / TWO_PI)) + 1)
        targets = TWO_PI * ks
        # first sample interval [i, i+1] with the target between its ends,
        # the left one when the target equals a sample exactly
        rising = fv[-1] > fv[0]
        up, t_up = (fv, targets) if rising else (-fv, -targets)
        first = np.searchsorted(up, t_up, side="left")
        missing = (first == len(fv)) | (up[0] > t_up)
        if np.any(missing):
            k = int(ks[np.argmax(missing)])
            raise RootBracketError(f"could not bracket the k={k} root")
        i = np.maximum(first - 1, 0)
        lams = bisect_lockstep(func, grid[i], grid[i + 1],
                                fv[i] - targets, fv[i + 1] - targets, targets)
        return {int(k): float(lam) for k, lam in zip(ks, lams)}

    def solve_families(self) -> SpectrumWindow:
        """Enumerate both families inside the window [-h, h]."""
        ya = self._solve_on(self.y_h, -1.0, 1.0)
        zb = self._solve_on(self.z_h, -1.0, 1.0)
        alphas = sorted(((k, self.h * lam) for k, lam in ya.items()),
                        key=lambda kv: kv[1])
        betas = sorted(((l, self.h * lam) for l, lam in zb.items()),
                       key=lambda kv: kv[1])
        return SpectrumWindow(
            h=self.h,
            alphas=alphas,
            betas=betas,
            alpha_lambdas=ya,
            beta_lambdas=zb,
        )

    def solve_ladder(self, lam_center: float, n_side: int, family: str = "alpha"):
        """Roots of the phase function around lam_center on the extended domain.

        Returns {index k: lambda_k} for roughly n_side indices on each side
        of the one nearest lam_center; the domain is capped at
        |lambda| <= delta/h.
        """
        func = self.y_h if family == "alpha" else self.z_h
        deriv = self.y_derivative if family == "alpha" else self.z_derivative
        slope = abs(float(deriv(np.array([lam_center]), 1)[0]))
        gap = TWO_PI / slope
        lam_max = 0.95 * self.table.delta / self.h
        lo = max(lam_center - (n_side + 3) * gap, -lam_max)
        hi = min(lam_center + (n_side + 3) * gap, lam_max)
        n_grid = max(4097, 16 * (2 * n_side + 8))
        return self._solve_on(func, lo, hi, n_grid)

    def root_residual(
        self, window: SpectrumWindow, ladder: dict[int, float] | None = None
    ) -> float:
        """Largest |phase(lambda_k) - 2 pi k|, in radians, over the window's
        two families and, if given, the alpha ladder."""
        sets = [(self.y_h, window.alpha_lambdas), (self.z_h, window.beta_lambdas)]
        if ladder is not None:
            sets.append((self.y_h, ladder))
        worst = 0.0
        for func, roots in sets:
            if roots:
                ks = np.array(list(roots.keys()), dtype=float)
                lams = np.array(list(roots.values()))
                worst = max(worst, float(np.max(np.abs(func(lams) - TWO_PI * ks))))
        return worst

    def phase_data(self, roots: dict[int, float], n0: int) -> PhaseData:
        """Inverse-function derivative records at the index-n0 root."""
        lam0 = roots[n0]
        # the root rides at the end of the window grid: one call per order
        lam = np.append(np.linspace(-1.0, 1.0, 201), lam0)
        y1, y2, y3 = (self.y_derivative(lam, order) for order in (1, 2, 3))
        yp, ypp, yppp = float(y1[-1]), float(y2[-1]), float(y3[-1])
        a1 = 1.0 / yp
        a2 = -ypp / yp**3
        a3 = -yppp / yp**4 + 3.0 * ypp**2 / yp**5
        a3_bound = float(
            np.max(np.abs(-y3[:-1] / y1[:-1]**4 + 3.0 * y2[:-1]**2 / y1[:-1]**5))
        )
        return PhaseData(
            a0=lam0,
            a1=a1,
            a2=a2,
            a3=a3,
            a3_bound=a3_bound,
            curvature_at_root=ypp,
        )


def select_alpha_near(roots: dict[int, float], lam_target: float) -> int:
    """Index of the ladder root nearest the target lambda."""
    return min(roots, key=lambda k: abs(roots[k] - lam_target))


@dataclass(frozen=True)
class LadderPoint:
    """Window, packet centred on the extended alpha ladder, phase data at its centre."""

    window: SpectrumWindow
    center_beta: int
    ladder: dict[int, float]
    packet: packet.CoefficientSequence
    phase: PhaseData


def ladder_point(potential: Potential, spec: packet.PacketSpec) -> LadderPoint:
    """The point pipeline: window -> centres -> ladder -> packet -> phase data.

    The ladder reaches three roots past the packet's truncation radius on
    each side, so the packet support is never clipped by the ladder.
    """
    model = SpectralModel(potential, spec.h)
    window = model.solve_families()
    n0, m0 = packet.select_centers(window, spec.energy)
    radius = math.ceil(packet.RADIUS_FACTOR * spec.width)
    ladder = model.solve_ladder(window.alpha_lambdas[n0], n_side=radius + 3)
    coeffs = packet.build_coefficients(spec, n0, index_set=ladder.keys())
    return LadderPoint(window, m0, ladder, coeffs, model.phase_data(ladder, n0))


def interleaving_violations(window: SpectrumWindow) -> int:
    """Number of adjacent same-family pairs in the sorted pooled spectrum."""
    fams = [f for f, _, _ in window.all_sorted()]
    return sum(1 for a, b in zip(fams, fams[1:]) if a == b)

