"""Grid-discretized operator oracle: -(h^2/2) d^2/dx^2 + V on [-L, L].

Dirichlet walls, second- or fourth-order stencils, and a banded window
solve: LAPACK tridiagonal bisection at order 2, an inertia-counted
shift-invert Lanczos solve at order 4.  Serves as the independent
cross-check of the spectral model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh, splu

from .errors import ResolutionError, SolverFailure, TruncationError
from .potential import Potential

WALL_MARGIN = 0.5  # V at the walls must exceed the window top h by this much


@dataclass(frozen=True)
class DiscretizedOperator:
    potential: Potential
    h: float
    grid: np.ndarray
    dx: float
    order: int
    matrix: sp.spmatrix


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
    if not (potential.evaluate(L) > h + WALL_MARGIN and potential.evaluate(-L) > h + WALL_MARGIN):
        raise TruncationError(
            f"V(+-{L:g}) must exceed h + {WALL_MARGIN:g} to confine windowed states"
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


def _start_vector(n: int) -> np.ndarray:
    """Fixed Lanczos start vector, so that repeated solves agree bitwise.

    Random rather than constant: a constant (even) vector has no component
    along the odd eigenvectors of an even potential's operator.
    """
    return np.random.default_rng(0).standard_normal(n)


def _count_below(mat: sp.spmatrix, shift: float) -> int:
    """Eigenvalues of mat below shift, by Sylvester's law of inertia: the negative pivots
    of the unpivoted LU (= LDL^T, D = diag U) of mat - shift I; one-column panels halve its cost."""
    n = mat.shape[0]
    lu = splu(mat - shift * sp.identity(n, format="csc"), permc_spec="NATURAL",
              diag_pivot_thresh=0.0, panel_size=1, options={"SymmetricMode": True})
    if np.any(lu.perm_r != np.arange(n)) or np.any(lu.perm_c != np.arange(n)):
        raise SolverFailure(f"inertia count at {shift:g} needed pivoting")
    return int(np.count_nonzero(lu.U.diagonal() < 0.0))


def window_spectrum(op: DiscretizedOperator) -> WindowedSpectrum:
    """Eigenpairs inside the window [-h, h], parity-labeled.

    Order 2 is tridiagonal: bisection and inverse iteration on the window.
    At order 4 two inertia counts give the window's size k; shift-invert about
    its midpoint 0, through a band-ordered LU, finds exactly its k eigenvalues.
    """
    mat, h, n = op.matrix, op.h, op.matrix.shape[0]
    try:
        if op.order == 2:
            vals, vecs = eigh_tridiagonal(
                mat.diagonal(), mat.diagonal(1), select="v", select_range=(-h, h)
            )
        else:
            k = _count_below(mat, h) - _count_below(mat, -h)
            inv = LinearOperator(mat.shape, splu(mat, permc_spec="NATURAL", panel_size=1).solve, dtype=float)
            vals, vecs = (eigsh(mat, k=k, sigma=0.0, which="LM", v0=_start_vector(n), OPinv=inv)
                          if k else (np.empty(0), np.empty((n, 0))))
    except (ArpackError, ArpackNoConvergence, np.linalg.LinAlgError, RuntimeError) as exc:
        raise SolverFailure(f"window eigensolve failed: {exc}") from exc
    if np.any(np.abs(vals) > h):
        raise SolverFailure("window eigensolve returned values outside [-h, h]")
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    overlaps = np.einsum("ij,ij->j", vecs, vecs[::-1])  # reflection parity
    parities = [("even" if o > 0.0 else "odd") if op.potential.even else "n/a" for o in overlaps]
    return WindowedSpectrum(h=h, eigenvalues=vals, parities=parities, eigenvectors=vecs)
