"""Energy-localized initial states as coefficient sequences on the ladder."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyWindow, ParameterError, ProfileError


@dataclass(frozen=True)
class GaussianProfile:
    """chi(x) = exp(-x^2/2); Fourier data of chi^2 is closed-form."""

    label: str = "gaussian"

    def __call__(self, x):
        return np.exp(-0.5 * np.asarray(x, dtype=float) ** 2)

    def chi2_fourier(self, xi):
        """F(chi^2)(xi) = integral exp(-x^2) exp(-2 pi i x xi) dx."""
        return math.sqrt(math.pi) * np.exp(-np.pi**2 * np.asarray(xi, dtype=float) ** 2)


@dataclass(frozen=True)
class BumpProfile:
    """Compactly supported even bump; no closed-form Fourier data."""

    label: str = "bump"
    chi2_fourier = None

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        inside = np.abs(x) < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - x[inside] ** 2))
        return out


PROFILES = {"gaussian": GaussianProfile(), "bump": BumpProfile()}

# truncation radius in units of the packet width: the dropped Gaussian tail
# stays below 1e-14
RADIUS_FACTOR = 10.0


def _validate_profile(chi) -> None:
    grid = np.linspace(-3.0, 3.0, 121)
    vals = np.asarray(chi(grid), dtype=float)
    if not float(chi(0.0)) > 0.0:
        raise ProfileError("profile must be positive at the origin")
    if np.any(vals < -1e-15):
        raise ProfileError("profile must be non-negative")
    if np.max(np.abs(vals - vals[::-1])) > 1e-12:
        raise ProfileError("profile must be even")


@dataclass(frozen=True)
class PacketSpec:
    """Localization parameters of the initial state."""

    energy: float
    gamma: float
    gamma_prime: float
    h: float
    chi: object = field(default_factory=GaussianProfile)

    def __post_init__(self):
        if not -1.0 <= self.energy <= 1.0:
            raise ParameterError(
                f"rescaled energy must lie in [-1, 1], got {self.energy:g}"
            )
        if not 0.0 < self.h < 1.0:
            raise ParameterError(f"h must lie in (0, 1), got {self.h:g}")
        if not 0.0 <= self.gamma_prime < 1.0:
            raise ParameterError(
                f"gamma_prime must lie in [0, 1), got {self.gamma_prime:g}"
            )
        if not self.gamma < 1.0:
            raise ParameterError(f"gamma must be < 1, got {self.gamma:g}")
        if not self.gamma + self.gamma_prime > 1.0:
            raise ParameterError(
                "gamma + gamma_prime > 1 is required so the near-center index "
                f"set dominates the packet (got {self.gamma:g} + {self.gamma_prime:g})"
            )
        _validate_profile(self.chi)

    @property
    def log_scale(self) -> float:
        return abs(math.log(self.h))

    @property
    def width(self) -> float:
        """Index-space localization breadth |ln h|^(1-gamma')."""
        return self.log_scale ** (1.0 - self.gamma_prime)

    @property
    def delta_radius(self) -> float:
        """Near-center set radius |ln h|^gamma."""
        return self.log_scale**self.gamma


def select_centers(window, energy: float) -> tuple[int, int]:
    """Indices of the alpha/beta eigenvalues closest to h * energy.

    Ties break toward the smaller index for reproducibility.
    """
    target = window.h * energy
    out = []
    for name in ("alpha", "beta"):
        fam = window.family(name)
        if not fam:
            raise EmptyWindow(f"{name} family is empty at h={window.h:g}")
        best = min(fam, key=lambda kv: (abs(kv[1] - target), kv[0]))
        out.append(best[0])
    return out[0], out[1]


@dataclass(frozen=True)
class CoefficientSequence:
    """Truncated, normalized packet coefficients around one center index."""

    spec: PacketSpec
    center: int
    indices: np.ndarray
    values: np.ndarray
    k_exact: float
    k_closed_form: float | None
    truncation_radius: int

    @property
    def offsets(self) -> np.ndarray:
        return self.indices - self.center

    @property
    def weights(self) -> np.ndarray:
        return self.values**2

    @property
    def width(self) -> float:
        return self.spec.width

    def csv_rows(self):
        for n, off, a in zip(self.indices, self.offsets, self.values):
            yield (int(n), int(off), float(a), float(a * a))


def build_coefficients(
    spec: PacketSpec,
    center: int,
    index_set=None,
    radius_factor: float = RADIUS_FACTOR,
) -> CoefficientSequence:
    """Evaluate chi((n - center)/width), truncate, and normalize exactly.

    The truncation radius is radius_factor * width.  When index_set is
    given the support is intersected with it.
    """
    width = spec.width
    radius = int(math.ceil(radius_factor * width))
    ns = np.arange(center - radius, center + radius + 1)
    if index_set is not None:
        members = np.array(sorted(set(int(i) for i in index_set)))
        ns = ns[np.isin(ns, members)]
    if len(ns) == 0:
        raise EmptyWindow("packet support is empty after truncation")
    raw = np.asarray(spec.chi((ns - center) / width), dtype=float)
    norm = float(np.sqrt(np.sum(raw**2)))
    if norm == 0.0:
        raise ProfileError("profile vanishes on the whole support")
    fourier = getattr(spec.chi, "chi2_fourier", None)
    k_closed = None
    if fourier is not None:
        k_closed = 1.0 / math.sqrt(float(fourier(0.0)) * width)
    return CoefficientSequence(
        spec=spec,
        center=center,
        indices=ns,
        values=raw / norm,
        k_exact=1.0 / norm,
        k_closed_form=k_closed,
        truncation_radius=radius,
    )


@dataclass(frozen=True)
class SplitSets:
    """Near-center index set and the mass left outside it."""

    delta_indices: np.ndarray
    delta_cardinality: int
    gamma_mass: float


def split_sets(spec: PacketSpec, seq: CoefficientSequence) -> SplitSets:
    """Split the support at |n - center| <= |ln h|^gamma."""
    radius = spec.delta_radius
    inside = np.abs(seq.offsets) <= radius
    mass_inside = float(np.sum(seq.weights[inside]))
    return SplitSets(
        delta_indices=seq.indices[inside],
        delta_cardinality=2 * int(math.floor(radius)) + 1,
        gamma_mass=max(0.0, 1.0 - mass_inside),
    )
