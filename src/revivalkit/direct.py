"""Grid-discretized operator oracle: -(h^2/2) d^2/dx^2 + V on [-R, R].

Dirichlet walls, second- or fourth-order stencils, and a banded window
solve: LAPACK tridiagonal bisection at order 2, an inertia-counted
shift-invert Lanczos solve at order 4.  Serves as the independent
cross-check of the spectral model.

The grid is laid on [-L, L] and then cut at the smallest radius R at which,
on each side, the Agmon distance from the allowed region {V <= h} reaches
AGMON_DECAY h and V exceeds h + WALL_MARGIN (Agmon, Lectures on exponential
decay of solutions of second-order elliptic equations, 1982).  Window
eigenvectors decay like exp(-distance / h), so beyond R they are below
e^-40 ~ 4e-18 of their peak and the dropped nodes change no window
eigenpair beyond rounding.
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
AGMON_DECAY = 40.0  # Agmon distance / h from the allowed region to a cut wall
MAX_DOUBLINGS = 8  # of the default domain, while a side falls short of its wall


@dataclass(frozen=True)
class DiscretizedOperator:
    potential: Potential
    h: float
    grid: np.ndarray
    dx: float
    order: int
    matrix: sp.spmatrix
    halfwidth: float  # the kept Dirichlet wall
    wall_decay: float  # Agmon distance at the wall over h, the smaller side


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
    """Assemble the symmetric finite-difference operator, cut at an Agmon radius.

    The grid on [-L, L] is built at spacing dx with x = 0 as its centre
    node.  Each side then takes as its wall the first node at which both
      - the Agmon distance, the integral of sqrt(2 max(V - h, 0)) outward
        from the side's outermost node with V <= h, reaches AGMON_DECAY h;
      - V exceeds h + WALL_MARGIN.
    The nodes strictly inside the farther of the two walls are kept, the
    same number on each side, so the matrix is the central principal block
    of the full-domain one and x = 0 stays its centre.  If a side's domain
    ends first, the default domain (L=None, the potential's
    domain_halfwidth) is doubled until both sides reach their walls; an
    explicit L is kept, and its walls stay at -L and L.
    """
    if order not in (2, 4):
        raise ValueError("order must be 2 or 4")
    grow = L is None
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
    for _ in range(MAX_DOUBLINGS + 1):
        n_cells = int(math.ceil(2.0 * L / dx))
        if n_cells % 2 == 1:
            n_cells += 1  # keep x = 0 on the grid so reflection is exact
        x = np.linspace(-L, L, n_cells + 1)[1:-1]
        v = np.asarray(potential.evaluate(x), dtype=float)
        c = n_cells // 2 - 1  # x[c] = 0
        # each side outward from x = 0: |x| and V at its nodes, then at its wall L
        sides = [(np.append(side * x[c::side], L), np.append(v[c::side], potential.evaluate(side * L)))
                 for side in (1, -1)]
        walls, decays, reached = zip(*(_agmon_wall(r, vr, h) for r, vr in sides))
        if all(reached) or not grow:
            break
        L *= 2.0
    else:
        raise TruncationError(
            f"no Agmon wall at distance {AGMON_DECAY:g} h within |x| <= {L / 2.0:g}"
        )
    dx = float(x[1] - x[0])
    cut = max(walls)
    x, v = x[c - cut + 1:c + cut].copy(), v[c - cut + 1:c + cut]
    halfwidth = float(sides[0][0][cut])  # |x| of the right-hand wall
    wall_decay = min(float(d[cut]) for d in decays) / h
    n = len(x)
    k = h * h / (2.0 * dx * dx)
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
        potential=potential, h=h, grid=x, dx=dx, order=order, matrix=mat,
        halfwidth=halfwidth, wall_decay=wall_decay,
    )


def _agmon_wall(r: np.ndarray, v: np.ndarray, h: float) -> tuple[int, np.ndarray, bool]:
    """The wall index on one side, the Agmon distance at every node, and
    whether any node meets both criteria.

    r runs outward from the centre node (r[0] = 0) to the domain wall, v is V
    there.  The distance is a trapezoid sum of sqrt(2 max(V - h, 0)) from the
    outermost node with V <= h (the centre if there is none).  The wall is the
    first node that meets both criteria; the domain wall if none does.
    """
    allowed = np.flatnonzero(v <= h)
    start = int(allowed[-1]) if len(allowed) else 0
    g = np.sqrt(2.0 * np.maximum(v - h, 0.0))
    steps = 0.5 * (g[1:] + g[:-1]) * np.diff(r)
    steps[:start] = 0.0
    dist = np.concatenate([[0.0], np.cumsum(steps)])
    meets = np.flatnonzero((dist >= AGMON_DECAY * h) & (v > h + WALL_MARGIN))
    return (int(meets[0]) if len(meets) else len(r) - 1), dist, len(meets) > 0


@dataclass(frozen=True)
class WindowedSpectrum:
    h: float
    eigenvalues: np.ndarray
    parities: list[str]
    eigenvectors: np.ndarray

    def gaps(self) -> np.ndarray:
        return np.diff(self.eigenvalues)

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
