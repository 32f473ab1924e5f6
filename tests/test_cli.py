"""Command-line front end: subcommands, exit codes, determinism."""

import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import revivalkit
from revivalkit.cli import build_parser, main
from revivalkit.direct import AGMON_DECAY, resolution_bound
from revivalkit.model import TWO_PI, SpectralModel, ladder_point
from revivalkit.packet import PacketSpec
from revivalkit.potential import canonical_double_well

PACKET = {"--h", "--E", "--gamma", "--gamma-prime", "--chi"}
OPTIONS = {
    "spectrum": {"--h", "--backend"},
    "packet": PACKET,
    "evolve": PACKET | {"--alpha", "--periods"},
    "revival": PACKET | {"--beta", "--p", "--q"},
    "gauss": {"--p", "--q", "--n0"},
    "sweep": {"--h", "--E", "--backend", "--classical"},
}


class TestOptions:
    """Each subcommand accepts exactly the options its command reads."""

    def test_option_sets_pinned(self):
        _, subs = build_parser()
        got = {
            name: {opt for a in sub._actions for opt in a.option_strings} - {"-h", "--help"}
            for name, sub in subs.items()
        }
        assert got == {name: opts | {"--out", "--config"} for name, opts in OPTIONS.items()}
        assert sum(len(opts) for opts in got.values()) == 41

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--gamma", "0.3"],
            ["spectrum", "--potential", "quartic"],
            ["packet", "--backend", "direct"],
            ["evolve", "--fd-order", "4"],
            # the CLI's grid always runs the fourth-order stencil
            ["spectrum", "--fd-order", "4"],
            ["sweep", "--fd-order", "2"],
            ["sweep", "--jobs", "2"],  # the sweep runs its h values in order
            ["evolve", "--p", "1"],  # no prefix match onto --periods
            ["revival", "--parity", "odd"],
            ["gauss", "--h", "1e-3"],
            ["sweep", "--chi", "bump"],
            ["packet", "--chi", "nope"],  # --chi takes a profile name, as --backend a backend
        ],
        ids=" ".join,
    )
    def test_foreign_flag_is_usage_error(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2
        assert not tmp_path.exists() or not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["spectrum", "--h", "2"], None),
            (["spectrum", "--h", "1.5", "--backend", "direct"], None),
            (["spectrum", "--h", "-1", "--backend", "direct"], None),
            (["spectrum", "--h", "0", "--backend", "direct"], None),
            (["spectrum", "--backend", "direct"], {"h": 1.5}),
            (["packet"], {"h": 0}),
            (["sweep", "--h", "1e-3,1"], None),
            (["sweep"], {"h": [1e-3, -1e-3]}),
        ],
        ids=["2", "1.5-direct", "-1-direct", "0-direct", "config-1.5", "config-0", "list",
             "config-list"],
    )
    def test_h_outside_unit_interval_is_config_error(self, tmp_path, capsys, argv, config):
        # h is checked once, at the CLI boundary, for flags and config values alike
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv = argv + ["--config", str(cfg)]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert "ConfigError" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [["spectrum", "--h", "0.11"], ["evolve", "--h", "0.2"], ["sweep", "--h", "1e-3,0.2"]],
        ids=["spectrum", "evolve", "sweep"],
    )
    def test_h_beyond_the_action_table_is_parameter_error(self, tmp_path, capsys, argv):
        # the model needs h <= 0.1, the action table's half-width (the grid alone needs
        # no table: see test_direct_manifest_reports_domain_cut); sweep builds every
        # point's model before it writes its first point
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert "ParameterError" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestGauss:
    def test_quarter_table(self, tmp_path, capsys):
        code = main(["gauss", "--p", "1", "--q", "4", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["ell"] == 2
        assert manifest["lattice"] == "2Z"
        csv = (tmp_path / "gauss_table.csv").read_text().splitlines()
        assert len(csv) == 3  # header + two modes
        for line in csv[1:]:
            assert abs(float(line.split(",")[3]) - 0.5) <= 1e-12
        assert "pass" in out

    def test_requires_p_and_q(self, tmp_path, capsys):
        code = main(["gauss", "--out", str(tmp_path)])
        assert code == 2
        assert "ConfigError" in capsys.readouterr().err

    def test_not_coprime_is_config_error(self, tmp_path, capsys):
        code = main(["gauss", "--p", "2", "--q", "4", "--out", str(tmp_path)])
        assert code == 2
        assert "NotCoprime" in capsys.readouterr().err

    def test_nonpositive_q_is_parameter_error(self, tmp_path, capsys):
        code = main(["gauss", "--p", "1", "--q", "0", "--out", str(tmp_path)])
        assert code == 2
        assert "ParameterError" in capsys.readouterr().err

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gauss", "--p", "3", "--q", "8", "--out", str(a)]) == 0
        assert main(["gauss", "--p", "3", "--q", "8", "--out", str(b)]) == 0
        assert (a / "gauss_table.csv").read_bytes() == (b / "gauss_table.csv").read_bytes()
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()


class TestSpectrum:
    def test_both_backends(self, tmp_path):
        code = main(
            ["spectrum", "--h", "0.01", "--backend", "both", "--out", str(tmp_path)]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["model"]["interleaving_violations"] == 0
        assert abs(manifest["model"]["count_alpha"] - manifest["direct"]["count"]) <= 3
        model_csv = (tmp_path / "model_spectrum.csv").read_text().splitlines()
        assert model_csv[0] == "family,index,lambda,eigenvalue,gap_to_next"
        assert (tmp_path / "direct_spectrum.csv").exists()
        assert (tmp_path / "plot.gp").exists()

    def test_direct_csv_deterministic(self, tmp_path):
        args = ["spectrum", "--h", "0.01", "--backend", "both", "--out"]
        assert main(args + [str(tmp_path / "a")]) == 0
        assert main(args + [str(tmp_path / "b")]) == 0
        csv = "direct_spectrum.csv"
        assert (tmp_path / "a" / csv).read_bytes() == (tmp_path / "b" / csv).read_bytes()

    def test_direct_manifest_reports_residual(self, tmp_path):
        # order 2 is checked in test_direct.py; the CLI runs order 4 only
        args = ["spectrum", "--h", "0.01", "--backend", "direct"]
        assert main(args + ["--out", str(tmp_path)]) == 0
        direct = json.loads((tmp_path / "manifest.json").read_text())["direct"]
        assert direct["count"] > 0
        assert 0.0 <= direct["max_relative_residual"] <= 1e-12

    def test_direct_manifest_counts_each_parity(self, tmp_path):
        args = ["spectrum", "--h", "1e-3", "--backend", "direct"]
        assert main(args + ["--out", str(tmp_path)]) == 0
        direct = json.loads((tmp_path / "manifest.json").read_text())["direct"]
        rows = (tmp_path / "direct_spectrum.csv").read_text().splitlines()[1:]
        parities = [row.split(",")[-1] for row in rows]
        assert direct["count_even"] > 0 and direct["count_odd"] > 0
        assert direct["count_even"] + direct["count_odd"] == direct["count"] == len(rows)
        assert (parities.count("even"), parities.count("odd")) == (direct["count_even"], direct["count_odd"])

    @pytest.mark.parametrize("h", [1e-2, 1e-4, 0.9])
    def test_direct_manifest_reports_domain_cut(self, tmp_path, h):
        args = ["spectrum", "--h", str(h), "--backend", "direct"]
        assert main(args + ["--out", str(tmp_path)]) == 0
        direct = json.loads((tmp_path / "manifest.json").read_text())["direct"]
        V = canonical_double_well()
        n_cells = math.ceil(2.0 * V.domain_halfwidth / resolution_bound(V, h))
        full_points = n_cells + n_cells % 2 - 1
        assert direct["wall_decay"] >= AGMON_DECAY
        if h < 0.5:
            assert direct["halfwidth"] < V.domain_halfwidth
            assert direct["grid_points"] < full_points
        else:  # the [-3, 3] domain ends at Agmon distance ~11 h: it is grown past 3
            assert direct["halfwidth"] > V.domain_halfwidth
            assert direct["grid_points"] > full_points

    def test_model_manifest_reports_root_residual(self, tmp_path):
        assert main(["spectrum", "--h", "1e-3", "--out", str(tmp_path)]) == 0
        block = json.loads((tmp_path / "manifest.json").read_text())["model"]
        m = SpectralModel(canonical_double_well(), 1e-3)
        window = m.solve_families()
        sets = [("alpha", window.alpha_lambdas), ("beta", window.beta_lambdas)]
        want = max(
            abs(float(m._phase(family)(np.array([lam]))[0]) - TWO_PI * k)
            for family, roots in sets
            for k, lam in roots.items()
        )
        assert block["max_root_residual_rad"] == want
        # within a few ulps of the phase values at the roots
        assert 0.0 <= want <= 1e-11
        assert block["max_root_resolution_lambda"] == _resolution(m, sets)
        assert block["action_table_chop_bound"] == m.table.chop_bound
        assert 0.0 < m.table.chop_bound <= 5e-15


class TestPacket:
    def test_manifest_normalization(self, tmp_path):
        code = main(
            ["packet", "--h", "1e-4", "--E", "-0.45", "--out", str(tmp_path)]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["k_relative_error"] <= 1e-6
        rows = (tmp_path / "coefficients.csv").read_text().splitlines()[1:]
        weights = [float(r.split(",")[3]) for r in rows]
        assert abs(sum(weights) - 1.0) <= 1e-10

    def test_invalid_gamma_pair_is_config_error(self, tmp_path, capsys):
        code = main(
            ["packet", "--h", "1e-4", "--gamma", "0.2", "--gamma-prime", "0.2",
             "--out", str(tmp_path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "ParameterError" in err and "gamma" in err


class TestEvolve:
    def test_run_and_manifest(self, tmp_path):
        # alpha raised beyond its default so two periods fit in the horizon
        code = main(
            ["evolve", "--h", "1e-4", "--E", "-0.45", "--periods", "2",
             "--alpha", "1.4", "--out", str(tmp_path)]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["t_hyp"] < 0.0
        header = (tmp_path / "timeseries.csv").read_text().splitlines()[0]
        assert header.split(",") == ["t", "t_over_thyp", "c_exact", "a1_abs", "a2_abs",
                                     "closed_form"]

    def test_overlong_grid_names_time_scale_error(self, tmp_path, capsys):
        code = main(
            ["evolve", "--h", "1e-4", "--periods", "500", "--out", str(tmp_path)]
        )
        assert code == 2
        assert "TimeScaleError" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, config",
        [(["--periods", "0"], None), (["--periods", "-1"], None), ([], {"periods": -1}),
         (["--periods", "inf"], None)],
        ids=["0", "-1", "config-1", "inf"],
    )
    def test_nonpositive_periods_is_config_error(self, tmp_path, capsys, argv, config):
        # a grid on [0, periods * T_hyp] with periods <= 0 has no forward time,
        # and periods = inf no sample count (int(HYPERBOLIC_SAMPLES * inf) overflows)
        argv = ["evolve", "--h", "1e-3"] + argv
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv = argv + ["--config", str(cfg)]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert "ConfigError" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_clipped_packet_is_support_error(self, tmp_path, capsys):
        # at h = 1e-2 the action table's domain ends inside the default packet
        assert main(["evolve", "--h", "1e-2", "--out", str(tmp_path / "out")]) == 3
        assert "SupportError" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["evolve", "--h", "1e-4", "--periods", "1.0",
                         "--out", str(out)]) == 0
        assert (a / "timeseries.csv").read_bytes() == (b / "timeseries.csv").read_bytes()


class TestRevival:
    def test_run_collects_fractional_sups(self, tmp_path):
        code = main(
            ["revival", "--h", "1e-4", "--E", "-0.45", "--p", "1", "--q", "2",
             "--p", "1", "--q", "3", "--out", str(tmp_path)]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert set(manifest["fractional"]) == {"1/2", "1/3"}
        assert manifest["fractional"]["1/2"]["ell"] == 2
        assert manifest["n_h"] >= 1
        assert 0.0 <= manifest["theta_frac"] < 1.0

    def test_large_gamma_refused(self, tmp_path, capsys):
        # revival-scale grids need gamma < 1/3 (dynamics.order2's guard)
        code = main(
            ["revival", "--h", "1e-4", "--E", "-0.45", "--gamma", "0.5",
             "--out", str(tmp_path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "ParameterError" in err and "gamma < 1/3" in err


@pytest.mark.parametrize(
    "argv",
    [["evolve", "--h", "1e-6", "--alpha", "nan"], ["revival", "--h", "1e-8", "--E", "-0.5", "--beta", "nan"],
     ["evolve", "--h", "1e-6", "--alpha", "inf"],
     ["revival", "--h", "1e-8", "--E", "-0.5", "--p", "1", "--q", "3", "--beta", "inf"]],
    ids=["alpha", "beta", "alpha-inf", "beta-inf"],
)
def test_nan_horizon_exponent_is_parameter_error(tmp_path, capsys, argv):
    # a NaN or infinite exponent would pass the time-scale guard and write NaN or
    # Infinity, neither of them JSON, into manifest.json
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert "ParameterError" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, gammas", [("revival", (0.3, 0.8)), ("evolve", (0.9, 0.2))])
def test_ladder_manifest_reports_root_residual_and_a3_bound(tmp_path, command, gammas):
    assert main([command, "--h", "1e-3", "--E", "-0.45", "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    spec = PacketSpec(energy=-0.45, gamma=gammas[0], gamma_prime=gammas[1], h=1e-3)
    point = ladder_point(canonical_double_well(), spec)
    assert manifest["a3_bound"] == point.phase.a3_bound > 0.0
    m = SpectralModel(canonical_double_well(), 1e-3)
    sets = [("alpha", point.window.alpha_lambdas), ("beta", point.window.beta_lambdas),
            ("alpha", point.ladder)]
    want = max(abs(float(m._phase(family)(np.array([lam]))[0]) - TWO_PI * k)
               for family, roots in sets for k, lam in roots.items())
    assert manifest["max_root_residual_rad"] == want
    assert 0.0 <= want <= 1e-11
    assert manifest["max_root_resolution_lambda"] == _resolution(m, sets)
    assert manifest["action_table_chop_bound"] == m.table.chop_bound > 0.0


def _resolution(m, sets):
    """Largest ulp(2 pi k) / |phase'(lambda_k)|, root by root."""
    return max(
        float(np.spacing(abs(TWO_PI * k)) / abs(m._derivatives(np.array([lam]), family)[0][0]))
        for family, roots in sets
        for k, lam in roots.items()
    )


@pytest.mark.parametrize(
    "h, band", [(1e-3, (1e-14, 1e-13)), (1e-4, (1e-13, 1e-12)), (1e-8, (1e-10, 1e-8)),
                (1.27e-12, (1e-6, 1e-5))]
)
def test_root_resolution_shows_the_phase_precision(h, band):
    # one rounding step of the phase, in lambda: it grows like ulp(1/h) h
    # where the residual can read exactly 0 on a plateau
    spec = PacketSpec(energy=-0.5, gamma=0.3, gamma_prime=0.8, h=h)
    point = ladder_point(canonical_double_well(), spec)
    checks = point.model.root_checks(point.window, point.ladder)
    assert band[0] < checks["max_root_resolution_lambda"] < band[1]


class TestSweep:
    def test_fits_in_manifest(self, tmp_path):
        code = main(
            ["sweep", "--h", "1e-2,1e-3,1e-4", "--classical", "--out", str(tmp_path)]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["tau_fit"]["max_residual_over_slope"] <= 0.02
        slope = manifest["tau_fit"]["slope"]
        assert abs(slope - 1.0 / math.sqrt(2.0)) <= 0.05
        assert "t_hyp_fit" in manifest and "count_fit" in manifest
        assert (tmp_path / "h=1.000e-03" / "model_spectrum.csv").exists()
        assert (tmp_path / "sweep_summary.csv").exists()

    @pytest.mark.parametrize("hs", ["1e-3,1.0001e-3", "1e-3,1e-3"], ids=["near", "equal"])
    def test_points_sharing_a_directory_are_config_error(self, tmp_path, capsys, hs):
        # both points would write h=1.000e-03, the second's CSVs over the first's
        assert main(["sweep", "--h", hs, "--out", str(tmp_path / "sw")]) == 2
        assert "ConfigError" in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()

    def test_window_outputs_match_spectrum(self, tmp_path):
        # sweep and spectrum share one window summary per backend
        grid = ["--backend", "both"]
        assert main(["sweep", "--h", "1e-2,1e-3", *grid, "--out", str(tmp_path / "sw")]) == 0
        points = json.loads((tmp_path / "sw" / "manifest.json").read_text())["points"]
        for h, point in zip(("1e-2", "1e-3"), points):
            spec = tmp_path / f"spec{h}"
            assert main(["spectrum", "--h", h, *grid, "--out", str(spec)]) == 0
            manifest = json.loads((spec / "manifest.json").read_text())
            assert point["model"] == manifest["model"]
            assert point["direct"] == manifest["direct"]
            sub = tmp_path / "sw" / f"h={float(h):.3e}"
            for csv in ("model_spectrum.csv", "direct_spectrum.csv"):
                assert (sub / csv).read_bytes() == (spec / csv).read_bytes()


class TestConfigFile:
    def test_file_values_and_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": 1, "q": 6, "n0": 2}))
        out1 = tmp_path / "o1"
        assert main(["gauss", "--config", str(cfg), "--out", str(out1)]) == 0
        m1 = json.loads((out1 / "manifest.json").read_text())
        assert m1["q"] == 6 and m1["n0"] == 2
        out2 = tmp_path / "o2"
        assert main(["gauss", "--config", str(cfg), "--q", "5",
                     "--out", str(out2)]) == 0
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m2["q"] == 5  # explicit flag wins over the file

    @pytest.mark.parametrize(
        "argv, config",
        [(["spectrum"], {"backend": "gpu"}),
         (["packet"], {"chi": "nope"}),
         (["gauss"], {"p": 1, "q": 3, "n0": 1.5})],
        ids=["choice", "profile", "type"],
    )
    def test_file_values_pass_the_option_checks(self, tmp_path, argv, config):
        # a file value is parsed as its flag would be: a bad choice or type is a usage error
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", str(cfg), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, config",
        [(["revival"], {"E": [0.5]}),
         (["sweep", "--h", "1e-3"], {"classical": "no"})],
        ids=["list", "switch"],
    )
    def test_list_or_non_boolean_switch_is_config_error(self, tmp_path, capsys, argv, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(argv + ["--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "ConfigError" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_flag_replaces_the_file_list(self, tmp_path):
        # --p/--q append: the file's lists must not be run beside the flags
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": [1], "q": [3]}))
        out = tmp_path / "out"
        assert main(["revival", "--h", "1e-8", "--E", "-0.5", "--config", str(cfg),
                     "--p", "2", "--q", "5", "--out", str(out)]) == 0
        assert list(json.loads((out / "manifest.json").read_text())["fractional"]) == ["2/5"]

    def test_unknown_key_rejected(self, tmp_path, capsys):
        # a key must name an option of the subcommand itself
        cases = [("gauss", "nonsense"), ("gauss", "fd-order"), ("spectrum", "gamma"),
                 ("packet", "backend"), ("sweep", "alpha"), ("evolve", "potential")]
        for command, key in cases:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: 1}))
            argv = [command] + (["--p", "1", "--q", "2"] if command == "gauss" else [])
            out = tmp_path / "out"
            assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 2, key
            err = capsys.readouterr().err
            assert "ConfigError" in err and key in err
            assert not out.exists()


@pytest.mark.parametrize(
    "argv, drawn",
    [
        (["spectrum", "--h", "1e-3"], {"model": ("lambda", "index")}),
        (["spectrum", "--h", "1e-2", "--backend", "direct"], {"direct": ("lambda", "index")}),
        (["spectrum", "--h", "1e-2", "--backend", "both"],
         {"model": ("lambda", "index"), "direct": ("lambda", "index")}),
        (["packet", "--h", "1e-4"], {"|a_n|^2": ("offset", "weight")}),
        (["evolve", "--h", "1e-4"],
         {"exact": ("t_over_thyp", "c_exact"), "order 1": ("t_over_thyp", "a1_abs")}),
        (["revival", "--h", "1e-8", "--E", "-0.5"], {"|order-2|": ("t_over_trev", "a2_abs")}),
        (["sweep", "--h", "1e-3,1e-4"], {"T_hyp vs |ln h|": ("log_scale", "t_hyp")}),
    ],
    ids=["spectrum-model", "spectrum-direct", "spectrum-both", "packet", "evolve", "revival", "sweep"],
)
def test_plot_draws_the_columns_its_title_names(tmp_path, argv, drawn):
    # each clause "'file.csv' using x:y with lines title 'T'" maps x and y to the CSV header
    assert main(argv + ["--out", str(tmp_path)]) == 0
    script = (tmp_path / "plot.gp").read_text()
    clauses = re.findall(r"'([^']+)' using (\d+):(\d+) with lines title '([^']*)'", script)
    got = {}
    for csv, x, y, title in clauses:
        header = (tmp_path / csv).read_text().splitlines()[0].split(",")
        got[title] = (header[int(x) - 1], header[int(y) - 1])
    assert got == drawn


def test_env_var_sets_default_out(tmp_path, monkeypatch):
    monkeypatch.setenv("REVIVALKIT_OUT", str(tmp_path / "envout"))
    assert main(["gauss", "--p", "1", "--q", "3"]) == 0
    assert (tmp_path / "envout" / "gauss" / "manifest.json").exists()


def test_model_only_commands_load_no_scipy(tmp_path):
    # only the grid paths (spectrum --backend direct|both, sweep) import the scipy oracle
    runs = [
        ["revival", "--h", "1e-8", "--E", "-0.5", "--p", "1", "--q", "3"],
        ["spectrum", "--h", "1e-3", "--backend", "model"],
        ["gauss", "--p", "1", "--q", "4"],
        ["packet", "--h", "1e-4"],
        ["evolve", "--h", "1e-6"],
    ]
    calls = "".join(f"main({argv + ['--out', str(tmp_path / argv[0])]!r})\n" for argv in runs)
    code = ("import sys\nfrom revivalkit.cli import main\n" + calls
            + "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = os.path.dirname(os.path.dirname(revivalkit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip().splitlines()[-1] == "[]"
    assert all((tmp_path / argv[0] / "manifest.json").exists() for argv in runs)
