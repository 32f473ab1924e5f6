"""Batch front-end: spectrum / packet / evolve / revival / gauss / sweep."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import (
    default_alpha,
    default_beta,
    exact_series,
    fractional_prediction,
    order1,
    order1_closed_form,
    order2,
    order2_series,
)
from .errors import ConfigError, RevivalKitError
from .gausssum import coefficients, modulus_law, periodicity_set
from .model import SpectralModel, interleaving_violations, ladder_point, select_alpha_near
from .output import write_csv, write_json, write_plot_script
from .packet import PROFILES, PacketSpec, build_coefficients, select_centers, split_sets
from .potential import canonical_double_well, flow_period
from .util import linear_fit

HYPERBOLIC_SAMPLES = 64
REVIVAL_SAMPLES = 16
MAX_SAMPLES = 2_000_000


def _out_dir(args, command: str) -> Path:
    if args.out:
        return Path(args.out)
    env = os.environ.get("REVIVALKIT_OUT")
    if env:
        return Path(env) / command
    return Path("runs") / command


def _h_values(text: str) -> list[float]:
    """sweep's comma-separated --h."""
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad h {text!r}: {exc}") from None


def _point_dir(h: float) -> str:
    """The directory that sweep writes the point at h to."""
    return f"h={h:.3e}"


def _packet_spec(args, gamma_default: float, gamma_prime_default: float) -> PacketSpec:
    gamma = gamma_default if args.gamma is None else args.gamma
    gamma_prime = (
        gamma_prime_default if args.gamma_prime is None else args.gamma_prime
    )
    return PacketSpec(
        energy=args.E,
        gamma=gamma,
        gamma_prime=gamma_prime,
        h=args.h,
        chi=PROFILES[args.chi],
    )


def _spec_block(spec: PacketSpec) -> dict:
    """The packet parameters that open the packet, evolve and revival manifests."""
    return {name: getattr(spec, name) for name in ("h", "energy", "gamma", "gamma_prime")}


def _phase_block(phase) -> dict:
    """The periods and ladder curvature at the packet centre."""
    names = ("t_hyp", "t_rev", "n_h", "theta_frac", "curvature_at_root")
    return {name: getattr(phase, name) for name in names}


def _ladder_block(spec: PacketSpec, point, n_samples: int) -> dict:
    """The ladder-point fields that the evolve and revival manifests share."""
    return {
        **_spec_block(spec),
        **_phase_block(point.phase),
        "a3_bound": point.phase.a3_bound,
        **point.model.root_checks(point.window, point.ladder),
        "action_table_chop_bound": point.model.table.chop_bound,
        "samples": n_samples,
        "window_counts": [len(point.window.alphas), len(point.window.betas)],
    }


def _write_run(outdir: Path, manifest: dict, title: str = "", plots=()) -> None:
    """Write manifest.json and, when plots are given, plot.gp; report the directory."""
    write_json(outdir / "manifest.json", manifest)
    if plots:
        write_plot_script(outdir / "plot.gp", title, plots)
    print(f"wrote {outdir}")


def _model_block(model: SpectralModel, window, outdir: Path) -> dict:
    """Write the model window's CSV; return its manifest block."""
    write_csv(
        outdir / "model_spectrum.csv",
        ["family", "index", "lambda", "eigenvalue", "gap_to_next"],
        window.csv_rows(),
    )
    pooled = [v for _, _, v in window.all_sorted()]
    return {
        "count_alpha": len(window.alphas),
        "count_beta": len(window.betas),
        "interleaving_violations": interleaving_violations(window),
        "mean_gap_pooled": float(np.mean(np.diff(pooled))) if len(pooled) > 1 else None,
        **model.root_checks(window),
        "action_table_chop_bound": model.table.chop_bound,
    }


def _direct_block(h: float, outdir: Path) -> dict:
    """Solve the grid window (order-4 stencil), write its CSV; return its manifest block."""
    # the grid oracle is the one scipy user: the model-only commands never load it
    from .direct import discretize, window_spectrum

    op = discretize(canonical_double_well(), h)
    spectrum = window_spectrum(op)
    write_csv(
        outdir / "direct_spectrum.csv",
        ["family", "index", "lambda", "eigenvalue", "gap_to_next", "parity"],
        spectrum.csv_rows(),
    )
    vals, vecs = spectrum.eigenvalues, spectrum.eigenvectors
    residuals = np.linalg.norm(op.matrix @ vecs - vecs * vals, axis=0)
    return {
        "count": len(vals),
        # the grid's two families, beside the model's count_alpha (even) and count_beta (odd)
        "count_even": spectrum.parities.count("even"),
        "count_odd": spectrum.parities.count("odd"),
        "grid_points": len(op.grid),
        "dx": op.dx,
        "halfwidth": op.halfwidth,
        "wall_decay": op.wall_decay,
        "max_relative_residual": float(
            np.max(residuals, initial=0.0) / np.max(np.abs(op.bands[0]))
        ),
        "mean_gap_pooled": float(np.mean(spectrum.gaps())) if len(vals) > 1 else None,
    }


def cmd_spectrum(args) -> int:
    outdir = _out_dir(args, "spectrum")
    manifest: dict = {"h": args.h, "backend": args.backend}
    if args.backend in ("model", "both"):
        model = SpectralModel(canonical_double_well(), args.h)
        manifest["model"] = _model_block(model, model.solve_families(), outdir)
    if args.backend in ("direct", "both"):
        manifest["direct"] = _direct_block(args.h, outdir)
    # each backend run draws index against lambda, so both share one set of axes
    plots = [(f"{name}_spectrum.csv", "3:2", name) for name in ("model", "direct") if name in manifest]
    _write_run(outdir, manifest, f"spectral window at h={args.h:g}", plots)
    return 0


def cmd_packet(args) -> int:
    outdir = _out_dir(args, "packet")
    spec = _packet_spec(args, gamma_default=0.3, gamma_prime_default=0.8)
    model = SpectralModel(canonical_double_well(), args.h)
    window = model.solve_families()
    n0, m0 = select_centers(window, spec.energy)
    packet = build_coefficients(spec, n0)
    sets = split_sets(spec, packet)
    write_csv(
        outdir / "coefficients.csv",
        ["index", "offset", "a_n", "weight"],
        packet.csv_rows(),
    )
    manifest = {
        **_spec_block(spec),
        "profile": getattr(spec.chi, "label", "custom"),
        "center_alpha": n0,
        "center_beta": m0,
        "width": spec.width,
        "truncation_radius": packet.truncation_radius,
        "k_exact": packet.k_exact,
        "k_closed_form": packet.k_closed_form,
        "k_relative_error": (
            abs(packet.k_exact - packet.k_closed_form) / packet.k_closed_form
            if packet.k_closed_form
            else None
        ),
        "delta_cardinality": sets.delta_cardinality,
        "gamma_mass": sets.gamma_mass,
    }
    _write_run(outdir, manifest, f"packet coefficients at h={args.h:g}",
               [("coefficients.csv", "2:4", "|a_n|^2")])
    return 0


def cmd_evolve(args) -> int:
    outdir = _out_dir(args, "evolve")
    spec = _packet_spec(args, gamma_default=0.9, gamma_prime_default=0.2)
    alpha = default_alpha(spec.gamma) if args.alpha is None else args.alpha
    point = ladder_point(canonical_double_well(), spec)
    packet, phase = point.packet, point.phase
    t_hyp = abs(phase.t_hyp)
    t_end = args.periods * t_hyp
    n_samples = min(MAX_SAMPLES, max(256, int(HYPERBOLIC_SAMPLES * args.periods)))
    t = np.linspace(0.0, t_end, n_samples)
    a1 = order1(packet, phase, t, alpha)
    r_exact = exact_series(point.ladder, packet, t)
    a2 = order2_series(packet, phase, t)
    columns = {
        "t_over_thyp": t / t_hyp,
        "c_exact": np.abs(r_exact),
        "a1_abs": np.abs(a1),
        "a2_abs": np.abs(a2),
    }
    if getattr(spec.chi, "chi2_fourier", None) is not None:
        columns["closed_form"] = order1_closed_form(packet, phase, t)
    write_csv(
        outdir / "timeseries.csv",
        ["t"] + list(columns),
        zip(t, *columns.values()),
    )
    manifest = {
        **_ladder_block(spec, point, n_samples),
        "alpha": alpha,
        "center_alpha": packet.center,
        "center_beta": point.center_beta,
        "sup_exact_minus_order1": float(np.max(np.abs(r_exact - a1))),
    }
    _write_run(outdir, manifest, f"autocorrelation at h={args.h:g}",
               [("timeseries.csv", "2:3", "exact"), ("timeseries.csv", "2:4", "order 1")])
    return 0


def cmd_revival(args) -> int:
    outdir = _out_dir(args, "revival")
    spec = _packet_spec(args, gamma_default=0.3, gamma_prime_default=0.8)
    beta = default_beta(spec.gamma) if args.beta is None else args.beta
    point = ladder_point(canonical_double_well(), spec)
    packet, phase = point.packet, point.phase
    t_hyp, t_rev = abs(phase.t_hyp), abs(phase.t_rev)
    t_end = 1.2 * t_rev
    n_samples = min(MAX_SAMPLES, max(512, int(REVIVAL_SAMPLES * t_end / t_hyp)))
    t = np.linspace(0.0, t_end, n_samples)
    a2 = order2(packet, phase, t, beta)
    write_csv(
        outdir / "revival.csv",
        ["t", "t_over_thyp", "t_over_trev", "a2_abs"],
        zip(t, t / t_hyp, t / t_rev, np.abs(a2)),
    )
    fractional = {}
    t_clone = np.linspace(0.0, 2.0 * t_hyp, 512)
    for p, q in args.pq:
        cmp = fractional_prediction(packet, phase, p, q, t_clone)
        fractional[f"{p}/{q}"] = {"ell": cmp.ell, "sup_difference": cmp.sup_difference}
    manifest = {
        **_ladder_block(spec, point, n_samples),
        "beta": beta,
        "fractional": fractional,
    }
    _write_run(outdir, manifest, f"revival-scale dynamics at h={args.h:g}",
               [("revival.csv", "3:4", "|order-2|")])
    return 0


def cmd_gauss(args) -> int:
    outdir = _out_dir(args, "gauss")
    n0 = args.n0 if args.n0 is not None else 0
    pset = periodicity_set(args.p, args.q)
    coeffs = coefficients(args.p, args.q, n0)
    _, expected = modulus_law(args.p, args.q)
    rows = []
    for k in range(coeffs.ell):
        b = coeffs.values[k]
        got, want = float(np.abs(b) ** 2), float(expected[k])
        status = "pass" if abs(got - want) <= 1e-12 else "FAIL"
        rows.append((k, b.real, b.imag, got, want, status))
        print(
            f"k={k} b=({b.real:+.6f},{b.imag:+.6f}) "
            f"|b|^2={got:.12f} expected={want:.12f} {status}"
        )
    write_csv(
        outdir / "gauss_table.csv",
        ["k", "re_b", "im_b", "modulus_sq", "expected_modulus_sq", "status"],
        rows,
    )
    manifest = {
        "p": args.p,
        "q": args.q,
        "n0": n0,
        "ell": coeffs.ell,
        "lattice": pset.description,
        "parseval": float(np.sum(coeffs.moduli_squared)),
        "all_match": all(r[-1] == "pass" for r in rows),
    }
    _write_run(outdir, manifest)
    return 0 if manifest["all_match"] else 3


def _sweep_point(args, model: SpectralModel, outdir: Path) -> dict:
    h = model.h
    window = model.solve_families()
    lnh = abs(math.log(h))
    record: dict = {
        "h": h,
        "log_scale": lnh,
        "model": _model_block(model, window, outdir),
        "scaled_gaps": [
            float(g * lnh / h)
            for name in ("alpha", "beta")
            for g in window.gaps(name)
        ],
    }
    roots = model.solve_ladder(lam_center=args.E, n_side=4)
    n0 = select_alpha_near(roots, args.E)
    record.update(_phase_block(model.phase_data(roots, n0)))
    if args.classical:
        orbit = flow_period(model.potential, h)
        record["tau_classical"] = orbit.period
        record["energy_drift"] = orbit.energy_drift
    if args.backend in ("direct", "both"):
        record["direct"] = _direct_block(h, outdir)
    return record


def _slope_fit(x, y) -> dict:
    """Straight-line fit of y on x, its largest residual relative to the slope."""
    fit = linear_fit(x, y)
    return {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "max_residual_over_slope": fit.max_abs_residual / abs(fit.slope),
    }


def cmd_sweep(args) -> int:
    outdir = _out_dir(args, "sweep")
    hs = args.h_list
    # every h is checked against the action table before the first point is written
    models = [SpectralModel(canonical_double_well(), h) for h in hs]
    records = [_sweep_point(args, m, outdir / _point_dir(m.h)) for m in models]
    lnhs = [r["log_scale"] for r in records]
    manifest: dict = {
        "h_list": hs,
        "points": records,
        "t_hyp_fit": _slope_fit(lnhs, [abs(r["t_hyp"]) for r in records]),
    }
    if args.classical:
        manifest["tau_fit"] = _slope_fit(lnhs, [r["tau_classical"] for r in records])
    counts = [r["model"]["count_alpha"] + r["model"]["count_beta"] for r in records]
    c_fit = linear_fit(lnhs, counts)
    manifest["count_fit"] = {
        "slope": c_fit.slope,
        "intercept": c_fit.intercept,
        "rms_residual_over_mean": c_fit.rms_residual / float(np.mean(counts)),
    }
    scaled = [g for r in records for g in r["scaled_gaps"]]
    if scaled:
        manifest["scaled_gap_band"] = {
            "min": min(scaled),
            "max": max(scaled),
            "median": float(np.median(scaled)),
        }
    write_csv(
        outdir / "sweep_summary.csv",
        ["h", "log_scale", "count_total", "t_hyp", "t_rev", "theta_frac"],
        [
            (
                r["h"],
                r["log_scale"],
                count,
                r["t_hyp"],
                r["t_rev"],
                r["theta_frac"],
            )
            for r, count in zip(records, counts)
        ],
    )
    _write_run(outdir, manifest, "sweep summary",
               [("sweep_summary.csv", "2:4", "T_hyp vs |ln h|")])
    return 0


def _add_packet(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--h", type=float, default=1e-4)
    sub.add_argument("--E", type=float, default=-0.45)
    sub.add_argument("--gamma", type=float, default=None)
    sub.add_argument("--gamma-prime", dest="gamma_prime", type=float, default=None)
    sub.add_argument("--chi", choices=sorted(PROFILES), default="gaussian")


def _add_backend(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--backend", choices=("model", "direct", "both"), default="model")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """Each subcommand accepts exactly the options its cmd_* reads, plus --out and --config."""
    parser = argparse.ArgumentParser(
        prog="revivalkit",
        description="barrier-top spectral model, wave packets and revival dynamics",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    sub_map: dict[str, argparse.ArgumentParser] = {}

    def add(name: str, func, summary: str) -> argparse.ArgumentParser:
        # no prefix matching: `evolve --p` must not pass for `--periods`
        s = subs.add_parser(name, help=summary, allow_abbrev=False)
        s.add_argument("--out", default=None)
        s.add_argument("--config", default=None, help="JSON file with defaults")
        s.set_defaults(func=func)
        sub_map[name] = s
        return s

    s = add("spectrum", cmd_spectrum, "eigenvalue families in [-h, h]")
    s.add_argument("--h", type=float, default=1e-4)
    _add_backend(s)

    s = add("packet", cmd_packet, "coefficient sequence and normalization")
    _add_packet(s)

    s = add("evolve", cmd_evolve, "hyperbolic-scale autocorrelation run")
    _add_packet(s)
    s.add_argument("--alpha", type=float, default=None)
    s.add_argument("--periods", type=float, default=1.0)

    s = add("revival", cmd_revival, "revival-scale order-2 run")
    _add_packet(s)
    s.add_argument("--beta", type=float, default=None)
    s.add_argument("--p", type=int, action="append", default=None)
    s.add_argument("--q", type=int, action="append", default=None)

    s = add("gauss", cmd_gauss, "clone-coefficient table for one p/q")
    s.add_argument("--p", type=int, default=None)
    s.add_argument("--q", type=int, default=None)
    s.add_argument("--n0", type=int, default=None)

    s = add("sweep", cmd_sweep, "run the pipeline across an h list")
    s.add_argument("--h", default="1e-3,1e-4", help="comma-separated list")
    s.add_argument("--E", type=float, default=-0.45)
    _add_backend(s)
    s.add_argument("--classical", action="store_true")
    return parser, sub_map


def _config_tokens(argv: list[str], command: str, sub: argparse.ArgumentParser) -> list[str]:
    """The config file's entries as the command-line tokens they stand for.

    A key must name an option of the subcommand (other than --config itself).
    An entry whose flag the command line gives is dropped: the flag replaces
    it.  A switch takes true or false.  A list is read only for the repeated
    --p and --q (one flag per item) and for sweep's --h (comma-joined); any
    other value is one number or string, which argparse then checks.
    """
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
    if path is None:
        return []
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigError("config file must hold a JSON object")
    actions = {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}
    tokens = []
    for key, value in payload.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise ConfigError(f"config key {key!r} is not an option of {sub.prog!r}")
        flag = action.option_strings[0]
        if any(tok == flag or tok.startswith(flag + "=") for tok in argv):
            continue
        if isinstance(value, list) and command == "sweep" and action.dest == "h":
            value = ",".join(map(str, value))
        repeated = isinstance(action, argparse._AppendAction) and isinstance(value, list)
        for item in value if repeated else [value]:
            switch = action.nargs == 0
            if isinstance(item, bool) != switch or not isinstance(item, (str, int, float)):
                raise ConfigError(f"config key {key!r} cannot take {item!r}")
            if not switch:
                tokens.append(f"{flag}={item}")
            elif item:
                tokens.append(flag)
    return tokens


def _normalize(args: argparse.Namespace) -> argparse.Namespace:
    if args.command != "gauss":
        args.h_list = _h_values(args.h) if args.command == "sweep" else [args.h]
        if not args.h_list or any(not 0.0 < h < 1.0 for h in args.h_list):
            raise ConfigError(f"h must lie in (0, 1), got {args.h_list}")
        names = [_point_dir(h) for h in args.h_list]
        if len(set(names)) < len(names):
            raise ConfigError(f"sweep points {args.h_list} share a directory: {names}")
    if args.command == "revival":
        ps, qs = args.p or [1], args.q or [2]
        if len(ps) != len(qs):
            raise ConfigError("--p and --q must be given the same number of times")
        args.pq = list(zip(ps, qs))
    if args.command == "evolve" and not 0.0 < args.periods < math.inf:
        raise ConfigError(f"--periods must be finite and positive, got {args.periods:g}")
    if args.command == "gauss":
        if args.p is None or args.q is None:
            raise ConfigError("gauss requires --p and --q (flags or config file)")
    return args


def main(argv: list[str] | None = None) -> int:
    parser, sub_map = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        command = next((tok for tok in argv if tok in sub_map), None)
        if command is not None:
            at = argv.index(command) + 1
            argv = argv[:at] + _config_tokens(argv, command, sub_map[command]) + argv[at:]
        args = parser.parse_args(argv)
        args = _normalize(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2
    except RevivalKitError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
