"""Grid-discretized operator oracle: -(h^2/2) d^2/dx^2 + V on [-L, L].

Dirichlet walls, second- or fourth-order stencils, and a shift-invert
Lanczos solve for the eigenpairs nearest the barrier energy.  Serves as
the independent cross-check of the spectral model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, eigsh

from .errors import ResolutionError, SolverFailure, TruncationError
from .potential import Potential


@dataclass(frozen=True)
class DiscretizedOperator:
    potential: Potential
    h: float
    grid: np.ndarray
    dx: float
    order: int
    matrix: sp.spmatrix
    boundary: str = "dirichlet"


def resolution_bound(potential: Potential, h: float) -> float:
    """Spacing bound h / (10 sqrt(2 (h - min V))) from the window top."""
    xs = np.linspace(-potential.domain_halfwidth, potential.domain_halfwidth, 4001)
    v_min = float(np.min(potential.evaluate(xs)))
    return h / (10.0 * math.sqrt(2.0 * (h - v_min)))


def discretize(
    potential: Potential,
    h: float,
    L: float | None = None,
    dx: float | None = None,
    order: int = 2,
    margin: float = 0.5,
) -> DiscretizedOperator:
    """Assemble the symmetric finite-difference operator."""
    if order not in (2, 4):
        raise ValueError("order must be 2 or 4")
    L = potential.domain_halfwidth if L is None else float(L)
    bound = resolution_bound(potential, h)
    dx = bound if dx is None else float(dx)
    if dx > bound * (1.0 + 1e-12):
        raise ResolutionError(
            f"dx={dx:g} coarser than the window-top bound {bound:g}"
        )
    if not (potential.evaluate(L) > h + margin and potential.evaluate(-L) > h + margin):
        raise TruncationError(
            f"V(+-{L:g}) must exceed h + {margin:g} to confine windowed states"
        )
    n_cells = int(math.ceil(2.0 * L / dx))
    if n_cells % 2 == 1:
        n_cells += 1  # keep x = 0 on the grid so reflection is exact
    x = np.linspace(-L, L, n_cells + 1)[1:-1]
    dx = float(x[1] - x[0])
    n = len(x)
    k = h * h / (2.0 * dx * dx)
    v = np.asarray(potential.evaluate(x), dtype=float)
    if order == 2:
        mat = sp.diags(
            [np.full(n - 1, -k), 2.0 * k + v, np.full(n - 1, -k)],
            [-1, 0, 1],
            format="csc",
        )
    else:
        mat = sp.diags(
            [
                np.full(n - 2, k / 12.0),
                np.full(n - 1, -16.0 * k / 12.0),
                30.0 * k / 12.0 + v,
                np.full(n - 1, -16.0 * k / 12.0),
                np.full(n - 2, k / 12.0),
            ],
            [-2, -1, 0, 1, 2],
            format="csc",
        )
    return DiscretizedOperator(
        potential=potential, h=h, grid=x, dx=dx, order=order, matrix=mat
    )


@dataclass(frozen=True)
class WindowedSpectrum:
    h: float
    eigenvalues: np.ndarray
    parities: list[str]
    eigenvectors: np.ndarray

    def gaps(self) -> np.ndarray:
        return np.diff(self.eigenvalues)

    def parity_family(self, parity: str) -> np.ndarray:
        keep = [i for i, p in enumerate(self.parities) if p == parity]
        return self.eigenvalues[keep]

    def csv_rows(self):
        vals = self.eigenvalues
        for i, val in enumerate(vals):
            gap = vals[i + 1] - val if i + 1 < len(vals) else float("nan")
            yield ("n/a", i, val / self.h, val, gap, self.parities[i])


def _classify_parity(potential: Potential, vec: np.ndarray) -> str:
    if not potential.even:
        return "n/a"
    overlap = float(vec @ vec[::-1])
    return "even" if overlap > 0.0 else "odd"


def _start_vector(n: int) -> np.ndarray:
    """Fixed Lanczos start vector, so that repeated solves agree bitwise.

    Random rather than constant: a constant (even) vector has no component
    along the odd eigenvectors of an even potential's operator.
    """
    return np.random.default_rng(0).standard_normal(n)


def window_spectrum(
    op: DiscretizedOperator,
    window: tuple[float, float] | None = None,
    k_start: int = 16,
    k_max: int = 256,
) -> WindowedSpectrum:
    """Eigenpairs inside the window (default [-h, h]), parity-labeled."""
    lo, hi = window if window is not None else (-op.h, op.h)
    n = op.matrix.shape[0]
    k = min(k_start, n - 2)
    v0 = _start_vector(n)
    try:
        while True:
            vals, vecs = eigsh(op.matrix, k=k, sigma=0.0, which="LM", v0=v0)
            order = np.argsort(vals)
            vals, vecs = vals[order], vecs[:, order]
            covered = vals[0] < lo and vals[-1] > hi
            if covered or k >= min(k_max, n - 2):
                break
            k = min(2 * k, n - 2)
    except (ArpackError, ArpackNoConvergence) as exc:
        raise SolverFailure(f"shift-invert Lanczos failed: {exc}") from exc
    keep = (vals >= lo) & (vals <= hi)
    vals, vecs = vals[keep], vecs[:, keep]
    parities = [_classify_parity(op.potential, vecs[:, i]) for i in range(vecs.shape[1])]
    return WindowedSpectrum(
        h=op.h,
        eigenvalues=vals,
        parities=parities,
        eigenvectors=vecs,
    )


def lowest_eigenvalues(op: DiscretizedOperator, k: int) -> np.ndarray:
    """The k smallest eigenvalues (oracle for closed-form spectra)."""
    xs = op.grid
    v_min = float(np.min(op.potential.evaluate(xs)))
    try:
        vals = eigsh(
            op.matrix, k=k, sigma=v_min - 0.1 * (abs(v_min) + op.h), which="LM",
            v0=_start_vector(op.matrix.shape[0]), return_eigenvectors=False,
        )
    except (ArpackError, ArpackNoConvergence) as exc:
        raise SolverFailure(f"shift-invert Lanczos failed: {exc}") from exc
    return np.sort(vals)
