"""The library names the benchmark in perfbench/ calls and traces in place.

perfbench/workloads.py wraps library functions at the module or class
attribute its callers look up.  A rename or a caller that binds the name
at import time would make a layer silently vanish from the traced run;
these tests catch that from inside the suite.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from revivalkit.model import ladder_point
from revivalkit.packet import PacketSpec
from revivalkit.potential import canonical_double_well

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


def _traced(point_fn, inp, label):
    tracer = tracing.Tracer()
    tracer.point = label
    workloads.instrument(tracer)
    try:
        out = point_fn(inp)
    finally:
        tracer.uninstall()
    names = {span[2] for span in tracer.spans if span[1] == label}
    return out, names, tracer.counts[label]


def test_instrument_installs_and_uninstall_restores():
    tracer = tracing.Tracer()
    workloads.instrument(tracer)
    patches = list(tracer._patches)
    try:
        assert len(patches) >= 20
        for owner, attr, original in patches:
            assert getattr(owner, attr) is not original
            assert getattr(owner, attr).__wrapped__ is original
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, attr


def test_traced_revival_point_records_every_layer():
    inp = {"h": 1e-6, "E": -0.5, "Q": 4}
    out, names, counts = _traced(workloads.revival_point, inp, "revival")
    assert workloads.revival_check(inp, out) == []
    # model.build_action_table is left out: the session cache may hold the table
    assert {
        "model.solve_families", "model.solve_ladder", "model.phase_data",
        "model.y_h", "model.z_h",
        "specfun.arg_gamma_half_line", "specfun.digamma", "specfun.trigamma",
        "specfun.tetragamma",
        "packet.build_coefficients",
        "dynamics.order2_series", "dynamics.fractional_prediction",
        "gausssum.coefficients", "gausssum.modulus_law",
    } <= names
    for key in ("model.roots", "model.ladder_roots", "model.phase_evals",
                "specfun.points", "packet.support", "dynamics.exponentials",
                "gausssum.terms"):
        assert counts[key] > 0, key


@pytest.mark.parametrize("fd_order", [2, 4])
def test_traced_oracle_point_records_every_layer(fd_order):
    inp = {"h": 1e-2, "fd_order": fd_order}
    out, names, counts = _traced(workloads.oracle_point, inp, "oracle")
    assert workloads.oracle_check(inp, out) == []
    expected = {
        "direct.discretize", "direct.window_spectrum",
        "model.solve_families", "model.y_h", "model.z_h",
        "specfun.arg_gamma_half_line", "potential.flow_period",
    }
    keys = ["direct.grid_points", "direct.matrix_bytes", "direct.eigenpairs_kept",
            "potential.flow_period.steps", "model.roots"]
    # only the order-4 solve runs Lanczos; order 2 is tridiagonal bisection
    if fd_order == 4:
        expected.add("direct.eigsh")
        keys.append("direct.eigenpairs_computed")
    assert expected <= names
    for key in keys:
        assert counts[key] > 0, key
    if fd_order == 4:
        assert counts["direct.eigenpairs_computed"] == counts["direct.eigenpairs_kept"]


@pytest.mark.parametrize("h, energy", [(1e-4, -0.45), (3e-8, 0.6), (1.3e-12, -0.75)])
def test_benchmark_pipeline_equals_ladder_point(h, energy):
    spec, window, ladder, coeffs, phase = workloads._ladder_pipeline(h, energy, 0.3, 0.8)
    point = ladder_point(canonical_double_well(), spec)
    assert spec == PacketSpec(energy=energy, gamma=0.3, gamma_prime=0.8, h=h)
    assert window == point.window
    assert ladder == point.ladder
    assert np.array_equal(coeffs.indices, point.packet.indices)
    assert np.array_equal(coeffs.values, point.packet.values)
    assert phase == point.phase
