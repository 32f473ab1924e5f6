"""Benchmark workloads: seeded parameter points, the pipeline each runs, checks.

A point is one parameter query pushed through the library calls the CLI
makes for it (``cli._model_pipeline`` with ``cmd_revival``, and
``cmd_spectrum``/``_sweep_point``).  Only public names are called, each
looked up on its module or class at call time, so that ``instrument`` can
trace them in place.

Inputs follow a stratified design.  The range of each heavy input is
split into as many strata as a pass has points; a fixed stride order
visits the strata so that any prefix of a pass covers the range evenly,
and the seed draws each point's position inside its stratum.  Signs and
stencil orders alternate by position, not by seed, so every seed gets
the same balance of them.  A run stops on time, so this keeps the mix of
cheap and expensive points, and with it every per-point statistic,
nearly the same from seed to seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

import numpy as np

from revivalkit import direct, dynamics, gausssum, model, packet, potential

# same cap as the CLI's time grids
MAX_SAMPLES = 2_000_000
FLOW_DT = 1e-3  # potential.flow_period's default step


def _strata(n_strata: int, stride: int) -> list[int]:
    """Stratum visited at each position of a pass (stride coprime to n_strata)."""
    return [(stride * j) % n_strata for j in range(n_strata)]


def _log_uniform(lo_exp: float, hi_exp: float, stratum: int, n_strata: int, rng) -> float:
    u = (stratum + rng.random()) / n_strata
    return 10.0 ** (lo_exp + (hi_exp - lo_exp) * u)


def _coprime_pairs(q_max: int):
    for q in range(1, q_max + 1):
        for p in range(1, q + 1):
            if math.gcd(p, q) == 1:
                yield p, q


def _ladder_pipeline(h: float, energy: float, gamma: float, gamma_prime: float):
    """Window, centred packet on the extended ladder, phase data (cli._model_pipeline)."""
    spec = packet.PacketSpec(energy=energy, gamma=gamma, gamma_prime=gamma_prime, h=h)
    sm = model.SpectralModel(potential.canonical_double_well(), h)
    window = sm.solve_families()
    n0, _ = packet.select_centers(window, spec.energy)
    radius = int(math.ceil(10.0 * spec.width))
    ladder = sm.solve_ladder(window.alpha_lambdas[n0], n_side=radius + 3)
    coeffs = packet.build_coefficients(spec, n0, index_set=ladder.keys())
    phase = sm.phase_data(ladder, n0)
    return spec, window, ladder, coeffs, phase


# -- revival -------------------------------------------------------------------

REVIVAL_Q_MIN, REVIVAL_Q_MAX = 8, 24
REVIVAL_STRATA = REVIVAL_Q_MAX - REVIVAL_Q_MIN + 1  # one stratum per Q
REVIVAL_SAMPLES_PER_PERIOD = 16
CLONE_SAMPLES = 512
# the clone identity is checked on a coarser grid over the same two periods:
# its cost is linear in the samples and would otherwise match the timed work
CLONE_CHECK_SAMPLES = 64
# |E| range: the ladder's curvature vanishes at the barrier top, so a packet
# centred within ~0.03 of lambda = 0 has 1.2 T_rev beyond the |ln h|^beta
# horizon and the revival command refuses it; |E| >= 0.45 keeps the centre
# root clear of it at every h in range
REVIVAL_ABS_E = (0.45, 0.8)


def revival_inputs(seed: int) -> Iterator[dict]:
    rng = random.Random(f"revival/{seed}")
    positions = list(zip(_strata(REVIVAL_STRATA, 7), _strata(REVIVAL_STRATA, 5), _strata(REVIVAL_STRATA, 3)))
    lo, hi = REVIVAL_ABS_E
    n_pass = 0
    while True:
        for j, (q_stratum, h_stratum, e_stratum) in enumerate(positions):
            sign = (-1.0, 1.0)[(j + n_pass) % 2]
            yield {
                "h": _log_uniform(-12.0, -4.0, h_stratum, REVIVAL_STRATA, rng),
                "E": sign * (lo + (hi - lo) * (e_stratum + rng.random()) / REVIVAL_STRATA),
                "Q": REVIVAL_Q_MIN + q_stratum,
            }
        n_pass += 1


def revival_point(inp: dict) -> dict:
    h = inp["h"]
    spec, window, ladder, coeffs, phase = _ladder_pipeline(h, inp["E"], 0.3, 0.8)
    t_hyp, t_rev = abs(phase.t_hyp), abs(phase.t_rev)
    t_end = 1.2 * t_rev
    n_samples = min(MAX_SAMPLES, max(512, int(REVIVAL_SAMPLES_PER_PERIOD * t_end / t_hyp)))
    t = np.linspace(0.0, t_end, n_samples)
    dynamics.check_time_scale(t, h, dynamics.default_beta(spec.gamma))
    a2 = dynamics.order2_series(coeffs, phase, t)
    t_clone = np.linspace(0.0, 2.0 * t_hyp, CLONE_SAMPLES)
    clones = []
    for p, q in _coprime_pairs(inp["Q"]):
        cmp = dynamics.fractional_prediction(coeffs, phase, p, q, t_clone)
        table = gausssum.coefficients(p, q, int(coeffs.center))
        clones.append((p, q, cmp, table, gausssum.modulus_law(p, q)))
    return {"packet": coeffs, "t_hyp": t_hyp, "a2": a2, "clones": clones}


def revival_check(inp: dict, out: dict) -> list[str]:
    bad = []
    # exact ratio: the clone identity holds to rounding at any N_h
    synthetic = dynamics.PhaseData.synthetic(t_hyp=out["t_hyp"], n_h=2**48 + 1, theta=Fraction(0))
    t_check = np.linspace(0.0, 2.0 * out["t_hyp"], CLONE_CHECK_SAMPLES)
    for p, q, _, table, (ell, law) in out["clones"]:
        if abs(float(np.sum(table.moduli_squared)) - 1.0) > 1e-14:
            bad.append(f"{p}/{q}: clone weights do not sum to 1")
        if table.ell != ell or float(np.max(np.abs(table.moduli_squared - law))) > 1e-12:
            bad.append(f"{p}/{q}: moduli differ from the modulus law")
        sup = dynamics.fractional_prediction(out["packet"], synthetic, p, q, t_check).sup_difference
        if not sup <= 1e-10:
            bad.append(f"{p}/{q}: clone identity off by {sup:.2e}")
    if not np.all(np.isfinite(out["a2"])):
        bad.append("order-2 series is not finite")
    return bad


# -- oracle --------------------------------------------------------------------

ORACLE_STRATA = 64


def oracle_inputs(seed: int) -> Iterator[dict]:
    rng = random.Random(f"oracle/{seed}")
    order = _strata(ORACLE_STRATA, 25)
    n_pass = 0
    while True:
        for j, stratum in enumerate(order):
            yield {
                "h": _log_uniform(-4.0, -2.0, stratum, ORACLE_STRATA, rng),
                "fd_order": (2, 4)[(j + n_pass) % 2],
            }
        n_pass += 1


def oracle_point(inp: dict) -> dict:
    h = inp["h"]
    well = potential.canonical_double_well()
    op = direct.discretize(well, h, order=inp["fd_order"])
    spectrum = direct.window_spectrum(op)
    window = model.SpectralModel(well, h).solve_families()
    orbit = potential.flow_period(well, h)
    return {"op": op, "spectrum": spectrum, "window": window, "orbit": orbit}


def oracle_check(inp: dict, out: dict) -> list[str]:
    bad = []
    op, window, spectrum = out["op"], out["window"], out["spectrum"]
    model_count = len(window.alphas) + len(window.betas)
    direct_count = len(spectrum.eigenvalues)
    if abs(model_count - direct_count) > 2:
        bad.append(f"model count {model_count} vs direct count {direct_count}")
    if model.interleaving_violations(window) != 0:
        bad.append("window families do not interleave")
    vecs, vals = spectrum.eigenvectors, spectrum.eigenvalues
    residual = np.linalg.norm(op.matrix @ vecs - vecs * vals, axis=0) if direct_count else []
    scale = float(np.max(np.abs(op.matrix.diagonal())))
    if np.any(residual > 1e-12 * scale) or np.any(np.abs(vals) > op.h):
        bad.append("direct eigenpairs are not window eigenpairs of the operator")
    if not out["orbit"].energy_drift <= 1e-9:
        bad.append(f"flow energy drift {out['orbit'].energy_drift:.2e}")
    return bad


def oracle_gap_mismatch(out: dict) -> dict:
    """Relative difference of the mean pooled gaps, model vs oracle (as criterion C7)."""
    model_gaps = np.diff([v for _, _, v in out["window"].all_sorted()])
    direct_gaps = out["spectrum"].gaps()
    if len(model_gaps) == 0 or len(direct_gaps) == 0:
        return {}
    ref = float(np.mean(direct_gaps))
    return {"gap_mismatch": abs(float(np.mean(model_gaps)) - ref) / ref}


@dataclass(frozen=True)
class Workload:
    inputs: Callable[[int], Iterator[dict]]
    point: Callable[[dict], dict]
    check: Callable[[dict, dict], list[str]]
    # quantities reported but not gated
    observe: Callable[[dict], dict] | None = None


WORKLOADS = {
    "revival": Workload(revival_inputs, revival_point, revival_check),
    "oracle": Workload(oracle_inputs, oracle_point, oracle_check, oracle_gap_mismatch),
}


# -- tracing -------------------------------------------------------------------


def _series_work(n_samples: int, support: int):
    n = n_samples * support
    # float64 phase matrix plus its complex128 exponential
    return (("dynamics.samples", n_samples), ("dynamics.exponentials", n), ("dynamics.phase_bytes", 24 * n))


def _approximant_work(args, kwargs, result):
    return _series_work(len(result), len(args[0].offsets))


def _matrix_work(args, kwargs, op):
    m = op.matrix
    nbytes = m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
    return (("direct.grid_points", len(op.grid)), ("direct.matrix_bytes", nbytes))


def instrument(tracer) -> None:
    """Wrap every traced call at the name its caller looks it up."""
    sm = model.SpectralModel
    tracer.wrap(model, "build_action_table", "model.build_action_table")
    tracer.wrap(model, "regularized_action", "potential.regularized_action")
    tracer.wrap(sm, "solve_families", "model.solve_families",
                lambda a, k, w: (("model.roots", len(w.alphas) + len(w.betas)),))
    tracer.wrap(sm, "solve_ladder", "model.solve_ladder",
                lambda a, k, r: (("model.roots", len(r)), ("model.ladder_roots", len(r))))
    tracer.wrap(sm, "phase_data", "model.phase_data")
    for name in ("y_h", "z_h"):
        tracer.wrap(sm, name, f"model.{name}", lambda a, k, r: (("model.phase_evals", 1),))
    # the specfun layer, traced where model looks its functions up
    for name in ("arg_gamma_half_line", "digamma", "trigamma", "tetragamma"):
        tracer.wrap(model, name, f"specfun.{name}",
                    lambda a, k, r: (("specfun.points", int(np.size(r))),))
    tracer.wrap(packet, "build_coefficients", "packet.build_coefficients",
                lambda a, k, c: (("packet.support", len(c.indices)),))
    tracer.wrap(dynamics, "order1_series", "dynamics.order1_series", _approximant_work)
    tracer.wrap(dynamics, "order2_series", "dynamics.order2_series", _approximant_work)
    tracer.wrap(dynamics, "fractional_prediction", "dynamics.fractional_prediction")
    tracer.wrap(gausssum, "coefficients", "gausssum.coefficients",
                lambda a, k, c: (("gausssum.terms", c.ell**2),))
    tracer.wrap(gausssum, "modulus_law", "gausssum.modulus_law")
    tracer.wrap(direct, "discretize", "direct.discretize", _matrix_work)
    tracer.wrap(direct, "eigsh", "direct.eigsh",
                lambda a, k, r: (("direct.eigenpairs_computed", len(r[0])),))
    tracer.wrap(direct, "window_spectrum", "direct.window_spectrum",
                lambda a, k, s: (("direct.eigenpairs_kept", len(s.eigenvalues)),))
    tracer.wrap(potential, "flow_period", "potential.flow_period",
                lambda a, k, o: (("potential.flow_period.steps", math.floor(o.period / FLOW_DT) + 1),))
