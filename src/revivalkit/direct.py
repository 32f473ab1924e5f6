"""Grid-discretized operator oracle: -(h^2/2) d^2/dx^2 + V on [-R, R].

Dirichlet walls, central stencils from one table (STENCILS), and a banded
window solve: LAPACK bisection for a tridiagonal block, an inertia-counted
shift-invert Lanczos solve for a wider band.  Serves as the independent
cross-check of the spectral model.

The operator is held as its bands, diagonal first, as discretize builds
them; the window solve reads only those.  The sparse matrix is assembled
on its first read, for a caller that takes residuals.

An even potential's operator commutes with the reflection x -> -x, so its
window is solved in two half-size blocks, folded in O(n) from the
operator's bands about the centre node x = 0: the even block (the model's
alpha family) and the odd block (its beta family).  Each eigenvector is
mapped back to the grid exactly even or odd.  A potential flagged even
whose grid operator is not reflection-symmetric to rounding is refused,
since its blocks would hold the spectrum of a different operator.

The grid is laid on the potential's domain [-L, L] and then cut at the
smallest radius R at which, on each side, the Agmon distance from the
allowed region {V <= h} reaches AGMON_DECAY h and V exceeds h + WALL_MARGIN
(Agmon, Lectures on exponential decay of solutions of second-order elliptic
equations, 1982).  Window eigenvectors decay like exp(-distance / h), so
beyond R they are below e^-40 ~ 4e-18 of their peak and the dropped nodes
change no window eigenpair beyond rounding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh, splu

from .errors import ParameterError, ResolutionError, SolverFailure, TruncationError
from .potential import Potential

WALL_MARGIN = 0.5  # V at the walls must exceed the window top h by this much
AGMON_DECAY = 40.0  # Agmon distance / h from the allowed region to a cut wall
MAX_DOUBLINGS = 8  # of the potential's domain, while a side falls short of its wall
# an even potential's diagonal may differ from its reversal by this many ulps of
# max|diag|: the linspace nodes are symmetric only to rounding (the quartic reads <= 5)
SYMMETRY_ULPS = 32
# order -> (den, weights w_o): band o of -(h^2/2) d^2/dx^2 is w_o k / den, k = h^2 / (2 dx^2)
STENCILS = {2: (1.0, (2.0, -1.0)), 4: (12.0, (30.0, -16.0, 1.0))}


@dataclass(frozen=True)
class DiscretizedOperator:
    """The symmetric grid operator, held as its bands: bands[o] couples node i to i + o."""

    potential: Potential
    h: float
    grid: np.ndarray
    dx: float
    order: int
    bands: list[np.ndarray]  # diagonal first, order // 2 + 1 of them
    halfwidth: float  # the kept Dirichlet wall
    wall_decay: float  # Agmon distance at the wall over h, the smaller side

    @functools.cached_property
    def matrix(self) -> sp.csc_matrix:
        """The sparse matrix of the bands, built on first read."""
        return _banded(self.bands)


def resolution_bound(potential: Potential, h: float) -> float:
    """Spacing bound h / (10 sqrt(2 (h - min V))) from the window top."""
    xs = np.linspace(-potential.domain_halfwidth, potential.domain_halfwidth, 4001)
    v_min = float(np.min(potential.evaluate(xs)))
    return h / (10.0 * math.sqrt(2.0 * (h - v_min)))


def discretize(
    potential: Potential,
    h: float,
    dx: float | None = None,
    order: int = 4,
) -> DiscretizedOperator:
    """Assemble the symmetric finite-difference operator, cut at an Agmon radius.

    The grid on the potential's domain [-L, L] (L = domain_halfwidth) is
    built at spacing dx with x = 0 as its centre node.  Each side then takes
    as its wall the first node at which both
      - the Agmon distance, the integral of sqrt(2 max(V - h, 0)) outward
        from the side's outermost node with V <= h, reaches AGMON_DECAY h;
      - V exceeds h + WALL_MARGIN.
    The nodes strictly inside the farther of the two walls are kept, the
    same number on each side, so the matrix is the central principal block
    of the full-domain one and x = 0 stays its centre.  If a side's domain
    ends first, L is doubled until both sides reach their walls.
    """
    if order not in STENCILS:
        raise ValueError(f"order must be one of {sorted(STENCILS)}")
    L = potential.domain_halfwidth
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
        if all(reached):
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
    n, k = len(x), h * h / (2.0 * dx * dx)
    den, weights = STENCILS[order]
    bands = [np.full(n - o, w * k / den) for o, w in enumerate(weights)]
    bands[0] += v
    return DiscretizedOperator(
        potential=potential, h=h, grid=x, dx=dx, order=order, bands=bands,
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


def _parity_blocks(op: DiscretizedOperator) -> list[tuple[str, list[np.ndarray]]]:
    """The bands (diagonal first) of each block the window is solved in, with its parity label.

    An uneven potential has one block, the operator itself, labeled "n/a".
    For an even potential the grid is folded about its centre node c = m:
    the even block acts on e_c and (e_{c+j} + e_{c-j}) / sqrt(2), the odd
    block on (e_{c+j} - e_{c-j}) / sqrt(2), j = 1..m, and each is B^T A B for
    its basis B.  Each band's right half is averaged with its mirror image;
    the centre row's couplings carry sqrt(2), and rows c + i and c - i - o
    (i >= 1), coupled across the centre by band 2i + o, add that coupling's
    mean with its mirror to band o at block row i (even) or subtract it (odd).
    """
    bands = op.bands
    if not op.potential.even:
        return [("n/a", bands)]
    n, c = len(bands[0]), len(bands[0]) // 2
    asymmetry = max(float(np.max(np.abs(b - b[::-1]), initial=0.0)) for b in bands)
    bound = SYMMETRY_ULPS * np.spacing(np.max(np.abs(bands[0])))
    if n % 2 == 0 or asymmetry > bound:
        raise ParameterError(
            f"potential {op.potential.descriptor!r} is flagged even, but its grid operator "
            f"is not reflection-symmetric about a centre node (n={n}, asymmetry {asymmetry:.3g} "
            f"> {bound:.3g})"
        )
    # row c + i couples to c + i + o; its mirror pair is (c - i - o, c - i)
    even = [0.5 * (b[c:] + b[c - o::-1]) for o, b in enumerate(bands)]
    odd = [b[1:].copy() for b in even]
    for b in even[1:]:
        b[0] *= math.sqrt(2.0)
    for i in range(1, len(bands) // 2 + 1):
        for o in range(len(bands) - 2 * i):
            across = bands[2 * i + o]
            mean = 0.5 * (across[c - i - o] + across[c - i])
            even[o][i] += mean
            odd[o][i - 1] -= mean
    return [("even", even), ("odd", odd)]


def _unfold(parity: str, vecs: np.ndarray, n: int) -> np.ndarray:
    """Block eigenvectors (columns) as vectors on the n-node grid, exactly even or odd."""
    if parity == "n/a":
        return vecs
    c = n // 2
    out = np.empty((n, vecs.shape[1]))
    out[c + 1:] = vecs[len(vecs) - c:] / math.sqrt(2.0)
    out[:c] = out[:c:-1] if parity == "even" else -out[:c:-1]
    out[c] = vecs[0] if parity == "even" else 0.0
    return out


def _banded(bands: list[np.ndarray]) -> sp.csc_matrix:
    """The symmetric sparse matrix with these bands, diagonal first."""
    return sp.diags(bands[:0:-1] + bands, range(1 - len(bands), len(bands)), format="csc")


def _solve_block(bands: list[np.ndarray], h: float) -> tuple[np.ndarray, np.ndarray]:
    """The eigenpairs inside [-h, h] of the symmetric banded matrix with these bands."""
    if len(bands) == 2:
        return eigh_tridiagonal(bands[0], bands[1], select="v", select_range=(-h, h))
    m = len(bands[0])
    mat = _banded(bands)
    k = _count_below(mat, h) - _count_below(mat, -h)
    if not k:
        return np.empty(0), np.empty((m, 0))
    inv = LinearOperator(mat.shape, splu(mat, permc_spec="NATURAL", panel_size=1).solve, dtype=float)
    return eigsh(mat, k=k, sigma=0.0, which="LM", v0=_start_vector(m), OPinv=inv)


def window_spectrum(op: DiscretizedOperator) -> WindowedSpectrum:
    """Eigenpairs inside the window [-h, h], parity-labeled.

    An even potential's operator commutes with the reflection x -> -x, so
    its window is solved in the even and odd blocks of _parity_blocks, each
    about half the grid; every eigenvector is mapped back to the grid exactly
    even or odd, and takes its block's label.  A potential flagged even
    whose operator is not reflection-symmetric to SYMMETRY_ULPS of its
    largest diagonal entry is refused (ParameterError): its blocks would
    belong to a different operator.  An uneven potential is solved whole.

    A tridiagonal block (order 2): bisection and inverse iteration on the
    window.  A wider band: two inertia counts give the window's size k in
    a block; shift-invert about its midpoint 0, through a band-ordered LU,
    finds exactly its k eigenvalues.
    """
    h, n = op.h, len(op.grid)
    vals, vecs, parities = [], [], []
    for parity, bands in _parity_blocks(op):
        try:
            block_vals, block_vecs = _solve_block(bands, h)
        except (ArpackError, ArpackNoConvergence, np.linalg.LinAlgError, RuntimeError) as exc:
            raise SolverFailure(f"window eigensolve failed: {exc}") from exc
        vals.append(block_vals)
        vecs.append(_unfold(parity, block_vecs, n))
        parities += [parity] * len(block_vals)
    vals, vecs = np.concatenate(vals), np.hstack(vecs)
    if np.any(np.abs(vals) > h):
        raise SolverFailure("window eigensolve returned values outside [-h, h]")
    order = np.argsort(vals)
    return WindowedSpectrum(h=h, eigenvalues=vals[order], parities=[parities[i] for i in order],
                            eigenvectors=vecs[:, order])
