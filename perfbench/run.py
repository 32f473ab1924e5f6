#!/usr/bin/env python3
"""revivalkit benchmark: parameter points through the library, one closed-loop client.

    python3 perfbench/run.py --workload revival --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.

``--trace 0`` times a cold start (``setup_s``, the median of several fresh
interpreters) and then runs points back to back, warm, for ``--seconds``
seconds of wall time, checking every point's outputs outside its timed
interval.  It prints the end-to-end metrics.

``--trace 1`` traces one cold action-table build, then runs every input
twice, untraced and traced, alternating which goes first, and prints the
per-layer metrics: per-point means of busy time, work counts and layer
shares, plus the tracing overhead (traced over untraced time on the same
inputs).  Spans are written to ``perfbench/traces/``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import setup_probe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBE = Path(setup_probe.__file__).resolve()
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 150
TAIL_BEYOND = 10
TAIL_PERCENTILES = (50, 75, 90, 95, 99)

LAYERS = ("model", "specfun", "potential", "packet", "dynamics", "gausssum", "direct")

# per-layer metrics: name -> unit; per-point means unless the unit says otherwise
PER_LAYER_UNITS = {
    "model.build_action_table.busy_s": "s",
    "potential.regularized_action.calls": "count",
    "potential.regularized_action.busy_s": "s",
    "model.solve_ladder.busy_s": "s/point",
    "model.solve_families.busy_s": "s/point",
    "model.phase_data.busy_s": "s/point",
    "model.self_s": "s/point",
    "model.phase_evals": "count/point",
    "model.roots": "count/point",
    "model.ladder_roots": "count/point",
    "model.phase_evals_per_root": "evals/root",
    "specfun.calls": "count/point",
    "specfun.points": "count/point",
    "specfun.busy_s": "s/point",
    "direct.discretize.busy_s": "s/point",
    "direct.window_spectrum.busy_s": "s/point",
    "direct.grid_points": "count/point",
    "direct.eigsh.calls": "count/point",
    "direct.eigenpairs_kept_ratio": "ratio",
    "direct.matrix_bytes": "B/point",
    "potential.flow_period.busy_s": "s/point",
    "potential.flow_period.steps": "count/point",
    "packet.build_coefficients.busy_s": "s/point",
    "packet.support": "count/point",
    "dynamics.order1_series.busy_s": "s/point",
    "dynamics.order2_series.busy_s": "s/point",
    "dynamics.fractional_prediction.busy_s": "s/point",
    "dynamics.samples": "count/point",
    "dynamics.exponentials": "count/point",
    "dynamics.phase_bytes": "B/point",
    "gausssum.coefficients.calls": "count/point",
    "gausssum.coefficients.busy_s": "s/point",
    "gausssum.terms": "count/point",
    **{f"share.{layer}": "%" for layer in LAYERS},
    "share.glue": "%",
    "trace.point_s": "s/point",
    "trace.overhead": "%",
}
# counts computed from call arguments and results rather than observed
COMPUTED = {"dynamics.exponentials", "dynamics.phase_bytes", "direct.matrix_bytes",
            "gausssum.terms", "potential.flow_period.steps"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def fresh_setup_seconds() -> float:
    """One cold start in a new interpreter."""
    done = subprocess.run(
        [sys.executable, str(PROBE), str(SRC)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def run_point(wl, inp):
    """Time one point; return (seconds, output or None, failure messages)."""
    start = perf_counter()
    try:
        out = wl.point(inp)
    except Exception:  # a point that raises counts as failed; keep measuring
        elapsed = perf_counter() - start
        return elapsed, None, [traceback.format_exc()]
    return perf_counter() - start, out, []


def check_point(wl, inp, out) -> list[str]:
    try:
        return wl.check(inp, out)
    except Exception:
        return [traceback.format_exc()]


def tail(times: list[float]) -> tuple[float, float]:
    """Time at the highest percentile with TAIL_BEYOND points beyond it, and that percentile.

    The percentile is taken from TAIL_PERCENTILES where one qualifies, so
    that it stays put while the point count of a time-limited run moves by
    a few; values interpolate linearly between order statistics.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    # percentile p sits between ordered[floor(pos)] and the next, pos = p (n - 1) / 100
    fits = [p for p in TAIL_PERCENTILES if n - 1 - math.floor(p * (n - 1) / 100) >= TAIL_BEYOND]
    pct = max(fits) if fits else 100.0 * (n - 1 - TAIL_BEYOND) / (n - 1)
    pos = pct * (n - 1) / 100
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo), pct


def report(failures: list[tuple[dict, list[str]]]) -> None:
    for inp, messages in failures[:5]:
        print(f"FAILED point {inp}:", file=sys.stderr)
        for message in messages[:5]:
            print("  " + message.rstrip().replace("\n", "\n  "), file=sys.stderr)


def warm_up(wl, seed: int) -> None:
    """Run the first point once, untimed, so first-call costs stay out of the timings."""
    run_point(wl, next(wl.inputs(seed)))


def untraced_run(wl, args, setup: list[float]) -> dict:
    warm_up(wl, args.seed)
    inputs = wl.inputs(args.seed)
    ok_times, all_time, failures, observed = [], 0.0, [], {}
    loop_start = perf_counter()
    while True:
        inp = next(inputs)
        elapsed, out, bad = run_point(wl, inp)
        all_time += elapsed
        if out is not None:
            bad = check_point(wl, inp, out)
        if bad:
            failures.append((inp, bad))
        else:
            ok_times.append(elapsed)
            for key, value in (wl.observe(out) if wl.observe else {}).items():
                observed.setdefault(key, []).append(value)
        if perf_counter() - loop_start >= args.seconds:
            break
    report(failures)
    attempted = len(ok_times) + len(failures)
    tail_s, tail_pct = tail(ok_times) if ok_times else (math.nan, math.nan)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "points_per_s": (len(ok_times) / all_time, "1/s"),
        "point_p50_s": (statistics.median(ok_times) if ok_times else math.nan, "s"),
        "point_tail_s": (tail_s, "s"),
        "failed_ratio": (len(failures) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"# point_tail_s is p{tail_pct:.4g} of n={len(ok_times)} points, "
          f"{TAIL_BEYOND} beyond it; setup_s is the median of "
          + ", ".join(f"{s:.4f}" for s in setup) + " s")
    for key, values in observed.items():
        print(f"# {key} (reported, not checked): median {statistics.median(values):.4g}, "
              f"max {max(values):.4g} over {len(values)} points")
    del metrics["failed_ratio"]  # carried by "attempted" and "failed"
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def layer_metrics(summaries: dict, points: list, walls: list[float], untraced: float) -> dict:
    """Per-layer metrics from the traced points' span summaries."""
    setup = summaries.get("setup")
    n = len(points)
    busy, calls, self_time, counts = {}, {}, {}, {}
    covered = 0.0
    for point in points:
        s = summaries.get(point)
        if s is None:
            continue
        for total, part in ((busy, s["busy"]), (calls, s["calls"]),
                            (self_time, s["self"]), (counts, s["counts"])):
            for key, value in part.items():
                total[key] = total.get(key, 0.0) + value
        covered += s["covered"]
    wall = sum(walls)

    def prefixed(table, prefix):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    m = {
        "model.build_action_table.busy_s": setup["busy"]["model.build_action_table"],
        "potential.regularized_action.calls": setup["calls"]["potential.regularized_action"],
        "potential.regularized_action.busy_s": setup["busy"]["potential.regularized_action"],
        "model.self_s": self_time.get("model", 0.0) / n,
        "model.phase_evals_per_root": counts.get("model.phase_evals", 0.0)
        / max(1.0, counts.get("model.roots", 0.0)),
        "specfun.calls": prefixed(calls, "specfun.") / n,
        "specfun.busy_s": prefixed(busy, "specfun.") / n,
        "direct.eigsh.calls": calls.get("direct.eigsh", 0) / n,
        "direct.eigenpairs_kept_ratio": counts.get("direct.eigenpairs_kept", 0.0)
        / max(1.0, counts.get("direct.eigenpairs_computed", 0.0)),
        "gausssum.coefficients.calls": calls.get("gausssum.coefficients", 0) / n,
        "share.glue": 100.0 * (wall - covered) / wall,
        "trace.point_s": wall / n,
        "trace.overhead": 100.0 * (wall / untraced - 1.0),
    }
    for layer in LAYERS:
        m[f"share.{layer}"] = 100.0 * self_time.get(layer, 0.0) / wall
    for name in PER_LAYER_UNITS:
        if name in m:
            continue
        if name.endswith(".busy_s"):
            m[name] = busy.get(name[: -len(".busy_s")], 0.0) / n
        else:
            m[name] = counts.get(name, 0.0) / n
    return m


def traced_run(wl, args) -> dict:
    import tracing
    import workloads
    from revivalkit import model, potential

    tracer = tracing.Tracer()
    workloads.instrument(tracer)
    tracer.point = "setup"
    model.build_action_table(potential.canonical_double_well())
    tracer.uninstall()

    warm_up(wl, args.seed)
    inputs = wl.inputs(args.seed)
    points, walls, untraced, failures = [], [], 0.0, []
    loop_start = perf_counter()
    while True:
        inp = next(inputs)
        index = len(points) + len(failures)
        bad = []
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced:
                tracer.point = index
                workloads.instrument(tracer)
            try:
                elapsed, out, errors = run_point(wl, inp)
            finally:
                tracer.uninstall()
            bad += errors
            if traced and out is not None:
                bad += check_point(wl, inp, out)
                traced_elapsed = elapsed
            elif not traced:
                untraced_elapsed = elapsed
        if bad:
            failures.append((inp, bad))
        else:
            points.append(index)
            walls.append(traced_elapsed)
            untraced += untraced_elapsed
        if perf_counter() - loop_start >= args.seconds:
            break
    report(failures)
    if not points:
        raise SystemExit("every traced point failed")
    trace_path = ROOT / "perfbench" / "traces" / f"{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(trace_path)
    metrics = layer_metrics(tracer.summaries(), points, walls, untraced)
    for name, value in metrics.items():
        label = " (computed)" if name in COMPUTED else ""
        print(f"{name} {value:.6g} {PER_LAYER_UNITS[name]}{label}")
    print(f"# {len(points)} traced points; spans in {trace_path.relative_to(ROOT)}")
    return {
        "correct": not failures,
        "attempted": len(points) + len(failures),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "revivalkit" / "__init__.py").is_file():
        print(f"error: no revivalkit package under {SRC}", file=sys.stderr)
        return 2
    setup = []
    if not args.trace:
        # this interpreter has not imported numpy, scipy or revivalkit yet
        setup.append(setup_probe.measure(str(SRC)))
    elif str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import revivalkit

    if Path(revivalkit.__file__).resolve().parent != SRC / "revivalkit":
        print(f"error: imported revivalkit from {revivalkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    for _ in range(SETUP_SAMPLES - len(setup) if not args.trace else 0):
        setup.append(fresh_setup_seconds())
    blas = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ}
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}; one client, closed loop; nproc {os.cpu_count()}; "
          f"BLAS threads {blas or 'at the library default (one per core)'}")
    result = traced_run(wl, args) if args.trace else untraced_run(wl, args, setup)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
