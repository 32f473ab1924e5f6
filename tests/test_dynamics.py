"""Autocorrelation series, approximants, closed forms, fractional clones."""

import math
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_gauss import quadratic_phase_sequence
from peaks import NoPeaks, detect_peaks
from revivalkit import dynamics
from revivalkit.dynamics import (
    PhaseData,
    _phases,
    _weighted_sum,
    check_time_scale,
    default_alpha,
    exact_series,
    frac_distance,
    fractional_prediction,
    order1,
    order1_closed_form,
    order1_series,
    order2,
    order2_series,
)
from revivalkit.errors import (
    NotCoprime,
    ParameterError,
    ProfileError,
    SupportError,
    TimeScaleError,
)
from revivalkit.gausssum import coefficients
from revivalkit.model import ladder_point
from revivalkit.packet import BumpProfile, PacketSpec, build_coefficients, select_centers


@pytest.fixture(scope="module")
def packet():
    spec = PacketSpec(energy=0.0, gamma=0.3, gamma_prime=0.8, h=1e-6)
    return build_coefficients(spec, 10**5)


@pytest.fixture(scope="module")
def phase():
    return PhaseData.synthetic(t_hyp=math.pi, n_h=21, theta=Fraction(0))


class TestPhaseData:
    def test_synthetic_exact_bookkeeping(self):
        ph = PhaseData.synthetic(t_hyp=2.0, n_h=7, theta=Fraction(1, 3))
        assert ph.n_h == 7
        assert abs(ph.theta_frac - 1.0 / 3.0) <= 1e-15
        assert abs(ph.t_rev / ph.t_hyp - (7 + 1.0 / 3.0)) <= 1e-12

    def test_periods_keep_sign(self):
        ph = PhaseData(a0=0.0, a1=-0.1, a2=0.01)
        assert ph.t_hyp < 0
        assert ph.t_rev > 0

    def test_theta_range_guard(self):
        with pytest.raises(ParameterError):
            PhaseData.synthetic(t_hyp=1.0, n_h=3, theta=Fraction(5, 4))


class TestOrder1:
    def test_value_one_at_origin(self, packet, phase):
        assert abs(order1_series(packet, phase, 0.0)[0] - 1.0) <= 1e-12

    def test_modulus_periodic_in_t_hyp(self, packet, phase):
        t = np.linspace(0.0, abs(phase.t_hyp), 257)
        a = np.abs(order1_series(packet, phase, t))
        b = np.abs(order1_series(packet, phase, t + phase.t_hyp))
        assert np.max(np.abs(a - b)) <= 1e-10

    def test_carrier_phase_identity(self, packet, phase):
        t = np.linspace(0.0, 2.0, 101)
        full = order1(packet, phase, t)
        tilde = order1_series(packet, phase, t)
        assert np.max(np.abs(full - np.exp(-1j * t * phase.a0) * tilde)) <= 1e-12

    def test_unit_bound(self, packet, phase):
        t = np.linspace(0.0, 10 * abs(phase.t_hyp), 4001)
        assert np.max(np.abs(order1_series(packet, phase, t))) <= 1.0 + 1e-12

    def test_time_scale_guard(self, packet, phase):
        horizon = abs(math.log(packet.spec.h)) ** default_alpha(packet.spec.gamma)
        with pytest.raises(TimeScaleError):
            order1(packet, phase, np.linspace(0.0, 2 * horizon, 32))


class TestClosedForm:
    def test_equals_one_on_the_period_lattice(self, packet, phase):
        t = np.arange(0, 5) * abs(phase.t_hyp)
        direct = np.abs(order1_series(packet, phase, t))
        closed = order1_closed_form(packet, phase, t)
        assert np.max(np.abs(closed - 1.0)) <= 1e-12
        assert np.max(np.abs(direct - 1.0)) <= 1e-10

    def test_pointwise_agreement_wide_packet(self):
        # gamma' = 0.2 gives breadth |ln h|^0.8, deep in the Poisson regime
        spec = PacketSpec(energy=0.0, gamma=0.9, gamma_prime=0.2, h=1e-6)
        pk = build_coefficients(spec, 10**5)
        ph = PhaseData.synthetic(t_hyp=math.pi, n_h=50, theta=Fraction(0))
        t = np.linspace(0.0, 2 * abs(ph.t_hyp), 2001)
        direct = np.abs(order1_series(pk, ph, t))
        closed = order1_closed_form(pk, ph, t)
        assert np.max(np.abs(direct - closed)) <= 1e-8

    def test_collapse_away_from_lattice(self):
        spec = PacketSpec(energy=0.0, gamma=0.9, gamma_prime=0.2, h=1e-6)
        pk = build_coefficients(spec, 10**5)
        ph = PhaseData.synthetic(t_hyp=math.pi, n_h=50, theta=Fraction(0))
        lnh = abs(math.log(1e-6))
        threshold = lnh ** (0.2 - 1.0 + 0.1)
        t = np.linspace(0.0, 2 * abs(ph.t_hyp), 4001)
        mask = frac_distance(t, ph.t_hyp) > threshold
        assert mask.any()
        vals = np.abs(order1_series(pk, ph, t[mask]))
        assert np.max(vals) <= 1e-6

    def test_profile_without_fourier_data_raises(self, phase):
        spec = PacketSpec(
            energy=0.0, gamma=0.3, gamma_prime=0.8, h=1e-6, chi=BumpProfile()
        )
        pk = build_coefficients(spec, 10**5)
        with pytest.raises(ProfileError):
            order1_closed_form(pk, phase, np.linspace(0, 1, 8))


class TestOrder2:
    def test_value_one_at_origin(self, packet, phase):
        assert abs(order2_series(packet, phase, 0.0)[0] - 1.0) <= 1e-12

    def test_full_revival_exact_when_theta_zero(self, packet, phase):
        t = np.linspace(0.0, 2 * abs(phase.t_hyp), 513)
        base = order2_series(packet, phase, t)
        shifted = order2_series(packet, phase, t, shift_rev=1)
        assert np.max(np.abs(shifted - base)) <= 1e-12
        via_hyp = order2_series(packet, phase, t, shift_hyp=phase.n_h)
        assert np.max(np.abs(via_hyp - base)) <= 1e-12

    def test_near_periodicity_defect_scales_with_theta(self, packet):
        t = np.linspace(0.0, 2 * math.pi, 513)
        sups = []
        for theta in (Fraction(1, 10), Fraction(1, 5), Fraction(2, 5)):
            ph = PhaseData.synthetic(t_hyp=math.pi, n_h=500, theta=theta)
            base = np.abs(order2_series(packet, ph, t))
            shif = np.abs(order2_series(packet, ph, t, shift_hyp=ph.n_h))
            sups.append(np.max(np.abs(shif - base)))
        assert sups[0] < sups[1] < sups[2]

    def test_carrier_phase_identity(self, packet, phase):
        t = np.linspace(0.0, 2.0, 65)
        full = order2(packet, phase, t)
        tilde = order2_series(packet, phase, t)
        assert np.max(np.abs(full - np.exp(-1j * t * phase.a0) * tilde)) <= 1e-12

    def test_revival_grid_requires_small_gamma(self):
        spec = PacketSpec(energy=0.0, gamma=0.9, gamma_prime=0.2, h=1e-4)
        pk = build_coefficients(spec, 10**5)
        ph = PhaseData.synthetic(t_hyp=math.pi, n_h=9, theta=Fraction(0))
        with pytest.raises(ParameterError):
            order2(pk, ph, np.linspace(0, 1.0, 16), beta=3.2)

    def test_time_scale_error_named(self, packet, phase):
        with pytest.raises(TimeScaleError):
            check_time_scale(np.array([1e9]), packet.spec.h, 3.0)

    def test_nan_grid_is_refused(self, packet, phase):
        # np.max propagates the NaN, and NaN > horizon is false
        t = np.array([0.0, np.nan, 1e12])
        for guarded in (lambda: check_time_scale(t, 1e-8, 3.0),
                        lambda: order1(packet, phase, t), lambda: order2(packet, phase, t)):
            with pytest.raises(ParameterError, match="NaN"):
                guarded()

    def test_nan_exponent_is_refused(self, packet, phase):
        # |ln h|^NaN is NaN, and t_max > NaN is false for any grid
        t = np.array([0.0, 1e12])
        nan = float("nan")
        for guarded in (lambda: check_time_scale(t, 1e-8, nan),
                        lambda: order1(packet, phase, t, alpha=nan),
                        lambda: order2(packet, phase, t, beta=nan)):
            with pytest.raises(ParameterError, match="NaN"):
                guarded()

    @pytest.mark.parametrize("exponent", [math.inf, -math.inf])
    def test_infinite_exponent_is_refused(self, packet, phase, exponent):
        # |ln h|^inf is inf, so no grid reaches past it; |ln h|^-inf is 0
        t = np.array([0.0, 1e12])
        for guarded in (lambda: check_time_scale(t, 1e-8, exponent),
                        lambda: order1(packet, phase, t, alpha=exponent),
                        lambda: order2(packet, phase, t, beta=exponent)):
            with pytest.raises(ParameterError, match="not finite"):
                guarded()


def _split(a):
    t = 134217729.0 * a  # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


def _reference_sum(weights, offsets, u, v=None):
    """The T x N matrix sum, with (u n + v n^2) mod 1 free of product rounding.

    u and v are split into 26-bit halves, so hi * n and hi * n^2 are exact
    for |n| < 2**13 and reduce mod 1 exactly; rounding v n^2 directly would
    itself cost up to ~5e-11 rad at n = 400.
    """
    n = offsets.astype(float)
    phases = np.zeros((len(u), len(n)))
    for c, m in ((u, n), (v, n * n)):
        if c is not None:
            hi, lo = _split(c)
            phases += np.outer(hi, m) % 1.0 + np.outer(lo, m)
    return np.exp(-2j * np.pi * (phases % 1.0)) @ weights


def _random_packet(layout: str, n_offsets: int, rng):
    offsets = {
        "centred": np.arange(n_offsets) - n_offsets // 2,
        "gapped": np.sort(rng.choice(np.arange(-n_offsets, n_offsets + 1), n_offsets, replace=False)),
        "positive": np.arange(1, n_offsets + 1),
        "negative": -np.arange(1, n_offsets + 1),
        "single": np.array([0]),
    }[layout]
    weights = rng.standard_normal(len(offsets)) + 1j * rng.standard_normal(len(offsets))
    return SimpleNamespace(weights=weights / np.sum(np.abs(weights)), offsets=offsets, center=0)


def _factor_shapes(packet, phase, t):
    """The shapes of the clone comparison's left and right factor terms on grid t."""
    scale = np.array([phase.a1, phase.a2]).tobytes()
    offsets = np.asarray(packet.offsets, dtype=np.int64).tobytes()
    return [f.shape for f in dynamics._pair_free(scale, t.tobytes(), offsets)[2:]]


class TestWeightedSum:
    """The split recurrence against the matrix of exponentials it replaces."""

    @pytest.mark.parametrize("layout", ["centred", "gapped", "positive", "negative"])
    @pytest.mark.parametrize("n_offsets", [1, 2, 41, 201, 401])
    def test_matches_exponential_matrix(self, n_offsets, layout):
        # one row of samples, each at its own phases
        rng = np.random.default_rng(n_offsets)
        pk = _random_packet(layout, n_offsets, rng)
        u, v = rng.random(97), rng.random(97)
        got1 = _weighted_sum(pk.weights, pk.offsets, u[None])
        got2 = _weighted_sum(pk.weights, pk.offsets, np.stack([u, v]))
        assert np.max(np.abs(got1 - _reference_sum(pk.weights, pk.offsets, u))) <= 1e-13
        assert np.max(np.abs(got2 - _reference_sum(pk.weights, pk.offsets, u, v))) <= 1e-12

    @pytest.mark.parametrize("layout", ["centred", "gapped", "positive", "negative", "single"])
    @pytest.mark.parametrize("n_samples", [1, 2, 3, 4, 5, 509, 512])
    def test_uniform_grids_match_exponential_matrix(self, n_samples, layout):
        # the clone comparison's split on rising, falling and constant grids,
        # on a float ratio and on the exact N_h = 2^48 + 1, against each
        # sample's own phases
        rng = np.random.default_rng(n_samples)
        pk = _random_packet(layout, 41, rng)
        p, q = 2, 5
        # every grid, one or two samples too, splits with B = ceil(sqrt(T)), A = ceil(T / B)
        b, n = math.ceil(math.sqrt(n_samples)), len(pk.offsets)
        shapes = [(2, -(-n_samples // b), n), (2, n, b)]
        coeffs = coefficients(p, q, pk.center)
        folded = pk.weights * np.fft.fft(coeffs.phased)[pk.offsets % coeffs.ell]
        phases = [
            PhaseData(a0=0.0, a1=1.0 / 2.7, a2=1.0 / (math.pi * 2.7 * 23.4)),
            PhaseData.synthetic(t_hyp=2.7, n_h=2**48 + 1, theta=Fraction(1, 3)),
        ]
        for ph in phases:
            for start, stop in ((-1.0, 2.0), (2.0, -1.0), (1.3, 1.3)):
                t = np.linspace(start * ph.t_hyp, stop * ph.t_hyp, n_samples)
                u, v = _phases(ph, t, Fraction(p * ph.n_h, q))
                got = fractional_prediction(pk, ph, p, q, t)
                assert _factor_shapes(pk, ph, t) == shapes
                err1 = np.abs(got.clone_sum - _reference_sum(folded, pk.offsets, u))
                err2 = np.abs(got.shifted_order2 - _reference_sum(pk.weights, pk.offsets, u, v))
                assert np.max(err1) <= 1e-13, (start, stop)
                assert np.max(err2) <= 1e-12, (start, stop)

    def test_non_uniform_grid_is_refused(self, packet, phase):
        # one interior sample an ulp off np.linspace's, and a t^1.5 grid
        t = np.linspace(0.0, 2.0 * abs(phase.t_hyp), 512)
        moved = t.copy()
        moved[300] = np.nextafter(moved[300], np.inf)
        for grid in (moved, t**1.5):
            with pytest.raises(ParameterError, match="uniform"):
                fractional_prediction(packet, phase, 1, 3, grid)

    @pytest.mark.parametrize("ratio", ["exact", "float"])
    def test_long_uniform_grid_keeps_each_samples_phases(self, packet, phase, ratio):
        # a uniform grid out to 1000 T_hyp, where a split's phases would be
        # ~1e-13 off each sample's own: the approximants are the one-row sum
        # at the samples' own phases, bit for bit
        if ratio == "float":
            phase = PhaseData(a0=0.0, a1=1.0 / 2.7, a2=1.0 / (math.pi * 2.7 * 23.4))
        t = np.linspace(0.0, 1000.0 * abs(phase.t_hyp), 4096)
        own = _phases(phase, t)
        for order, series in ((1, order1_series), (2, order2_series)):
            one_row = _weighted_sum(packet.weights, packet.offsets, own[:order])
            assert np.array_equal(series(packet, phase, t), one_row), order

    def test_empty_grid_gives_empty_series(self, packet, phase):
        t = np.empty(0)
        assert order1_series(packet, phase, t).shape == (0,)
        assert order2_series(packet, phase, t).shape == (0,)
        assert order1(packet, phase, t).shape == (0,)
        assert order2(packet, phase, t).shape == (0,)
        assert exact_series({int(n): 0.0 for n in packet.indices}, packet, t).shape == (0,)
        cmp = fractional_prediction(packet, phase, 1, 3, t)
        assert cmp.clone_sum.shape == cmp.shifted_order2.shape == (0,)
        assert cmp.sup_difference == 0.0

    def test_blocks_of_one_row_match_one_block(self, packet, phase, monkeypatch):
        t = np.linspace(0.0, 2.0 * abs(phase.t_hyp), 1000)[::-1] ** 1.5
        whole = order2_series(packet, phase, t)
        monkeypatch.setattr(dynamics, "_BLOCK_TERMS", 1000)
        blocks = order2_series(packet, phase, t)
        assert np.max(np.abs(blocks - whole)) <= 1e-15

    def test_long_grid_memory_is_linear_in_samples(self):
        # the 201-offset packet of criterion C3 on 200 000 samples: a T x N
        # phase matrix and its exponential would take ~1.6 GB; the series is
        # one row in blocks, the clone comparison a 448 x 448 split
        spec = PacketSpec(energy=0.0, gamma=0.3, gamma_prime=0.8, h=1e-6)
        pk = build_coefficients(spec, 137, radius_factor=100.0 / spec.width)
        assert len(pk.offsets) == 201
        ph = PhaseData.synthetic(t_hyp=math.pi, n_h=2**48 + 1, theta=Fraction(0))
        t = np.linspace(0.0, 1000.0 * math.pi, 200_000)
        tracemalloc.start()
        try:
            order2_series(pk, ph, t)
            fractional_prediction(pk, ph, 1, 3, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        assert _factor_shapes(pk, ph, t) == [(2, 447, 201), (2, 201, 448)]


class TestExactSeries:
    def test_unit_at_zero_and_bounded(self, packet):
        ladder = {int(n): 0.01 * float(n - packet.center) for n in packet.indices}
        r = exact_series(ladder, packet, np.linspace(0, 50, 501))
        assert abs(r[0] - 1.0) <= 1e-12
        assert np.max(np.abs(r)) <= 1.0 + 1e-12

    def test_support_error_lists_missing(self, packet):
        ladder = {int(n): 0.0 for n in packet.indices[:-3]}
        with pytest.raises(SupportError):
            exact_series(ladder, packet, np.array([0.0]))

    @pytest.mark.parametrize("n_h", [21, 40])
    @pytest.mark.parametrize("theta", [Fraction(0), Fraction(2, 7)])
    def test_equals_order2_on_a_quadratic_ladder(self, packet, n_h, theta):
        # the approximants' convention: lambda_n = 2 pi a1 n + 2 pi^2 a2 n^2 at
        # offset n, so order 2 is the exact series of an exactly quadratic ladder
        ph = PhaseData.synthetic(t_hyp=math.pi, n_h=n_h, theta=theta)
        n = packet.offsets.astype(float)
        lam = 2.0 * math.pi * ph.a1 * n + 2.0 * math.pi**2 * ph.a2 * n * n
        ladder = dict(zip(packet.indices.tolist(), lam))
        t = np.linspace(0.0, 1.2 * ph.t_rev, 601)
        diff = exact_series(ladder, packet, t) - order2_series(packet, ph, t)
        assert np.max(np.abs(diff)) <= 1e-12

    def test_family_split_is_additive(self, packet):
        # mixing two families with weights p, 1-p splits r = p*a + (1-p)*b
        ladder_a = {int(n): 0.013 * float(n - packet.center) for n in packet.indices}
        ladder_b = {int(n): 0.017 * float(n - packet.center) + 0.3 for n in packet.indices}
        t = np.linspace(0, 20, 201)
        a = exact_series(ladder_a, packet, t)
        b = exact_series(ladder_b, packet, t)
        mix = 0.4 * a + 0.6 * b
        assert np.max(np.abs(mix)) <= 1.0 + 1e-12
        assert abs(mix[0] - 1.0) <= 1e-12


def _two_sweep_prediction(packet, phase, p, q, t):
    """The clone sum and the shifted order-2 series as two separate sweeps.

    The clone weights fold through the ell x N table of unit roots, and
    the clone sum is an order-1 series with those weights.
    """
    coeffs = coefficients(p, q, int(packet.center))
    ell, shift = coeffs.ell, Fraction(p * phase.n_h, q)
    unit_roots = np.exp(-2j * np.pi * np.arange(ell) / ell)
    modes = unit_roots[np.outer(np.arange(ell), packet.offsets % ell) % ell]
    folded = SimpleNamespace(weights=packet.weights * (coeffs.phased @ modes), offsets=packet.offsets)
    clone = order1_series(folded, phase, t, shift_hyp=shift)
    shifted = order2_series(packet, phase, t, shift_hyp=shift)
    return clone, shifted, float(np.max(np.abs(clone - shifted)))


def _coprime_pairs(q_max):
    return [(p, q) for q in range(1, q_max + 1) for p in range(1, q + 1) if math.gcd(p, q) == 1]


@pytest.fixture(scope="module")
def ladder_points(quartic):
    return [
        ladder_point(quartic, PacketSpec(energy=energy, gamma=0.3, gamma_prime=0.8, h=h))
        for h in (1e-4, 1e-8, 1e-12)
        for energy in (0.5, -0.5)
    ]


class TestSingleSweep:
    """fractional_prediction's one sweep against the two sweeps it replaces."""

    def test_matches_two_sweeps_on_ladder_packets(self, ladder_points):
        for point in ladder_points:
            pk, ph = point.packet, point.phase
            t = np.linspace(0.0, 2.0 * abs(ph.t_hyp), 512)
            for p, q in _coprime_pairs(24):
                cmp = fractional_prediction(pk, ph, p, q, t)
                clone, shifted, sup = _two_sweep_prediction(pk, ph, p, q, t)
                assert np.max(np.abs(cmp.clone_sum - clone)) <= 1e-14, (pk.spec.h, p, q)
                assert np.max(np.abs(cmp.shifted_order2 - shifted)) <= 1e-14, (pk.spec.h, p, q)
                assert abs(cmp.sup_difference - sup) <= 1e-14, (pk.spec.h, p, q)

    @pytest.mark.parametrize("theta", [Fraction(0), Fraction(1, 3)])
    def test_exact_ratio_clone_identity(self, ladder_points, theta):
        # an exactly known T_rev/T_hyp at N_h = 2^48 + 1: each clone sum
        # equals its shifted order-2 series to rounding
        for point in ladder_points:
            t_hyp = abs(point.phase.t_hyp)
            ph = PhaseData.synthetic(t_hyp=t_hyp, n_h=2**48 + 1, theta=theta)
            t = np.linspace(0.0, 2.0 * t_hyp, 64)
            for p, q in _coprime_pairs(24):
                sup = fractional_prediction(point.packet, ph, p, q, t).sup_difference
                assert sup <= 1e-12, (point.packet.spec.h, p, q, sup)

    def test_single_offset_packet(self, phase):
        # a lone offset at n = 0 has no terms to sweep
        pk = SimpleNamespace(weights=np.array([1.0 + 0j]), offsets=np.array([0]), center=7)
        t = np.linspace(0.0, math.pi, 5)
        for p, q in ((1, 1), (1, 3), (3, 8)):
            cmp = fractional_prediction(pk, phase, p, q, t)
            assert np.all(cmp.shifted_order2 == 1.0)
            assert np.max(np.abs(cmp.clone_sum - 1.0)) <= 1e-15


def _comparison(cmp):
    return cmp.clone_sum.copy(), cmp.shifted_order2.copy(), cmp.sup_difference


def _assert_same_bits(got, want):
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert got[2] == want[2]


class TestFactorMemo:
    """The pair-free pieces kept, with the grid test, for the last phase, grid and offsets."""

    @staticmethod
    def _cold(*args):
        dynamics._pair_free.cache_clear()
        return _comparison(fractional_prediction(*args))

    def test_warm_call_equals_cold_call(self, packet, phase):
        t = np.linspace(0.0, 2.0 * abs(phase.t_hyp), 512)
        cold = self._cold(packet, phase, 3, 7, t)
        for p, q in ((1, 2), (3, 7)):
            warm = _comparison(fractional_prediction(packet, phase, p, q, t))
        assert dynamics._pair_free.cache_info().hits >= 2
        _assert_same_bits(warm, cold)

    def test_interleaved_calls_equal_their_cold_results(self, packet, phase):
        rng = np.random.default_rng(5)
        reweighted = SimpleNamespace(
            weights=packet.weights * np.exp(2j * np.pi * rng.random(len(packet.offsets))),
            offsets=packet.offsets, center=packet.center,
        )
        # as many offsets, one index further out
        moved = SimpleNamespace(weights=packet.weights, offsets=packet.offsets + 1, center=packet.center)
        other_phase = PhaseData.synthetic(t_hyp=math.pi, n_h=21, theta=Fraction(1, 3))
        t = np.linspace(0.0, 2.0 * abs(phase.t_hyp), 512)
        t_ulp = np.linspace(0.0, np.nextafter(t[-1], np.inf), 512)
        n = len(packet.offsets)
        assert _factor_shapes(packet, phase, t) == _factor_shapes(packet, phase, t_ulp) == [(2, 23, n), (2, n, 23)]
        cases = {
            "weights": ((packet, phase, t), (reweighted, phase, t)),
            "offsets": ((packet, phase, t), (moved, phase, t)),
            "phase": ((packet, phase, t), (packet, other_phase, t)),
            "grid": ((packet, phase, t), (packet, phase, t_ulp)),
        }
        for name, (a, b) in cases.items():
            cold = [self._cold(pk, ph, 2, 5, grid) for pk, ph, grid in (a, b)]
            # each pair of inputs differs in its results, so a shared entry would show
            assert not np.array_equal(cold[0][1], cold[1][1]), name
            for (pk, ph, grid), want in [(a, cold[0]), (b, cold[1])] * 2:
                _assert_same_bits(_comparison(fractional_prediction(pk, ph, 2, 5, grid)), want)

    def test_mutating_a_result_leaves_the_next_call(self, packet, phase):
        t = np.linspace(0.0, 2.0 * abs(phase.t_hyp), 512)
        cold = self._cold(packet, phase, 1, 3, t)
        got = fractional_prediction(packet, phase, 1, 3, t)
        got.clone_sum[:] = 0.0
        got.shifted_order2[:] = 0.0
        _assert_same_bits(_comparison(fractional_prediction(packet, phase, 1, 3, t)), cold)

    def test_interior_sample_one_ulp_off_is_no_stale_hit(self, packet, phase):
        # same ends, same length, one interior sample moved: right after the
        # uniform grid's entry, the moved grid is still refused, and the
        # entry still gives the uniform grid's cold result
        t = np.linspace(0.0, 2.0 * abs(phase.t_hyp), 512)
        moved = t.copy()
        moved[300] = np.nextafter(moved[300], np.inf)
        cold = self._cold(packet, phase, 2, 5, t)
        with pytest.raises(ParameterError, match="uniform"):
            fractional_prediction(packet, phase, 2, 5, moved)
        _assert_same_bits(_comparison(fractional_prediction(packet, phase, 2, 5, t)), cold)
        assert dynamics._pair_free.cache_info().hits == 1


class TestCloneWeights:
    """The clone weights from their integer phase, against the FFT of the clone table."""

    def test_integer_phase_equals_fft_of_the_table(self):
        # every coprime p/q with q < 60 covers q = 0, 1, 2, 3 (mod 4), so
        # ell = q/2 and ell = q alike.  The weights are the quadratic phase
        # sequence (the recentred table does not depend on n0), reduced mod 1
        # in Fractions, to rounding.  The FFT of the table carries its own
        # round trip through ifft and fft, up to 2.1e-15 off that sequence
        # (at 24/49), so it is matched to that rounding
        n = np.arange(-300, 301, dtype=np.int64)
        limbs = dynamics._limbs(n)
        for p, q in _coprime_pairs(59):
            got = dynamics._shift_phasors(0.0, 0.0, limbs, dynamics._clone_turns(p, q, n * n))[0]
            exact = quadratic_phase_sequence(p, q, 0, n)
            assert np.max(np.abs(got - exact)) <= 1e-15, (p, q)
            for n0 in (0, 7, 10**6):
                coeffs = coefficients(p, q, n0)
                table = np.fft.fft(coeffs.phased)[n % coeffs.ell]
                assert np.max(np.abs(got - table)) <= 2.5e-15, (p, q, n0)

    def test_prediction_builds_no_clone_table(self, packet, phase, monkeypatch):
        from revivalkit import gausssum

        def refuse(*args):
            raise AssertionError("fractional_prediction built a clone table")

        monkeypatch.setattr(gausssum, "coefficients", refuse)
        t = np.linspace(0.0, 2.0 * abs(phase.t_hyp), 512)
        for p, q in ((1, 3), (3, 8), (5, 12)):
            cmp = fractional_prediction(packet, phase, p, q, t)
            assert cmp.ell == (q // 2 if q % 4 == 0 else q)


def _reference_phasors(lin, quad, offsets):
    """exp(-2 pi i lin n) and exp(-2 pi i (lin n + quad n^2)), reduced mod 1 in Fractions."""
    rows = [
        [Fraction(lin) * int(n) % 1 for n in offsets],
        [(Fraction(lin) * int(n) + Fraction(quad) * int(n) ** 2) % 1 for n in offsets],
    ]
    return np.exp(-2j * np.pi * np.array(rows, dtype=float))


class TestShiftPhasors:
    """A pair's shift folded into the weights, against exact rational phases."""

    @pytest.mark.parametrize("offset", [8193, -8193, 12289, 10**6 + 7])
    def test_lone_offset_beyond_2_13(self, offset):
        offsets = np.array([offset])
        rng = np.random.default_rng(offset % 97)
        plain_errors = []
        for lin, quad in rng.random((50, 2)):
            want = _reference_phasors(lin, quad, offsets)
            got = dynamics._shift_phasors(lin, quad, dynamics._limbs(offsets), 0.0)
            # a few roundings of a turn, times 2 pi
            assert np.max(np.abs(got - want)) <= 3e-15, (lin, quad)
            n = float(offset)
            plain_errors.append(abs(np.exp(-2j * np.pi * ((lin * n + quad * n * n) % 1.0)) - want[1, 0]))
        # the plain float product loses up to offset^2 ulp
        assert max(plain_errors) > 1e-10

    def test_largest_radius_at_h_1e_12(self):
        # gamma' -> 0 gives the widest packet, |ln h| wide; radius 10 |ln h|
        spec = PacketSpec(energy=0.0, gamma=1.0 - 1e-10, gamma_prime=1e-9, h=1e-12)
        pk = build_coefficients(spec, 0)
        assert pk.truncation_radius == math.ceil(10.0 * abs(math.log(1e-12))) == 277
        offsets = np.asarray(pk.offsets, dtype=np.int64)
        ph = PhaseData.synthetic(t_hyp=2.7, n_h=2**48 + 1, theta=Fraction(1, 3))
        shifts = [dynamics._shift(ph, Fraction(p * ph.n_h, q)) for p, q in ((1, 3), (5, 7), (11, 24))]
        for lin, quad in shifts + [(0.7071067811865476, 0.3183098861837907)]:
            want = _reference_phasors(lin, quad, offsets)
            got = dynamics._shift_phasors(lin, quad, dynamics._limbs(offsets), 0.0)
            assert np.max(np.abs(got - want)) <= 3e-15, (lin, quad)


class TestFractional:
    def test_inadmissible_fraction_is_rejected(self, packet, phase):
        # the period and its checks come from the coefficient table
        t = np.linspace(0.0, math.pi, 9)
        with pytest.raises(NotCoprime):
            fractional_prediction(packet, phase, 2, 4, t)
        with pytest.raises(ParameterError):
            fractional_prediction(packet, phase, 1, 0, t)

    def test_unit_fraction_reduces_to_order1(self, packet, phase):
        t = np.linspace(0.0, math.pi, 257)
        cmp = fractional_prediction(packet, phase, 1, 1, t)
        base = order1_series(packet, phase, t)
        assert cmp.ell == 1
        assert np.max(np.abs(cmp.clone_sum - base)) <= 1e-12

    def test_half_fraction_is_shifted_order1(self, packet, phase):
        t = np.linspace(0.0, math.pi, 257)
        cmp = fractional_prediction(packet, phase, 1, 2, t)
        want = order1_series(
            packet, phase, t, shift_hyp=Fraction(phase.n_h + 1, 2)
        )
        assert cmp.ell == 2
        assert np.max(np.abs(cmp.clone_sum - want)) <= 1e-12

    def test_exact_identity_with_huge_ratio(self):
        spec = PacketSpec(energy=0.0, gamma=0.3, gamma_prime=0.8, h=1e-6)
        pk = build_coefficients(spec, 137, radius_factor=100.0 / spec.width)
        ph = PhaseData.synthetic(t_hyp=math.pi, n_h=2**48 + 1, theta=Fraction(0))
        t = np.linspace(0.0, math.pi, 300)
        for p, q in ((1, 2), (1, 3), (2, 3), (1, 4)):
            cmp = fractional_prediction(pk, ph, p, q, t)
            assert cmp.sup_difference <= 1e-10

    @pytest.mark.parametrize("source", ["model", "synthetic"])
    def test_factored_clone_sum_matches_direct_sum(self, quartic, source):
        # the direct sum shifts order1_series once per clone index k; the
        # factored sum folds the clone coefficients into the weights
        spec = PacketSpec(energy=-0.5, gamma=0.3, gamma_prime=0.8, h=1e-6)
        point = ladder_point(quartic, spec)
        pk = point.packet
        if source == "model":
            ph = point.phase  # float ratio, float shifts
        else:
            ph = PhaseData.synthetic(t_hyp=math.pi, n_h=2**40 + 3, theta=Fraction(2, 7))
        t = np.linspace(0.0, 2.0 * abs(ph.t_hyp), 257)
        for q in range(1, 13):
            for p in range(1, q + 1):
                if math.gcd(p, q) != 1:
                    continue
                cmp = fractional_prediction(pk, ph, p, q, t)
                b = coefficients(p, q, int(pk.center)).phased
                direct = sum(
                    b[k] * order1_series(
                        pk, ph, t, shift_hyp=Fraction(k, cmp.ell) + Fraction(p * ph.n_h, q)
                    )
                    for k in range(cmp.ell)
                )
                assert np.max(np.abs(cmp.clone_sum - direct)) <= 1e-12, (p, q)


class TestPeaks:
    def test_order1_period_recovered(self, packet, phase):
        t = np.linspace(0.0, 6 * abs(phase.t_hyp), 6 * 64)
        c = np.abs(order1_series(packet, phase, t))
        peaks = detect_peaks(t, c, threshold=0.5)
        assert peaks.period_estimate is not None
        assert abs(peaks.period_estimate - abs(phase.t_hyp)) / abs(phase.t_hyp) <= 0.02

    def test_monotone_series_has_no_peaks(self):
        t = np.linspace(0, 1, 101)
        with pytest.raises(NoPeaks):
            detect_peaks(t, np.exp(-t), threshold=0.0)

    def test_half_period_clones_at_half_revival(self, packet):
        ph = PhaseData.synthetic(t_hyp=math.pi, n_h=21, theta=Fraction(0))
        # at t = T_rev/2 the order-2 series re-forms shifted by T_hyp/2
        t0 = 0.5 * ph.t_rev
        t = t0 + np.linspace(-abs(ph.t_hyp), abs(ph.t_hyp), 2 * 64 + 1)
        c = np.abs(order2_series(packet, ph, t))
        peaks = detect_peaks(t, c, threshold=0.9)
        offsets = (peaks.times / abs(ph.t_hyp)) % 1.0
        assert np.all(np.abs(offsets - 0.5) <= 0.05)
        assert np.max(peaks.heights) >= 1.0 - 1e-9

    def test_clone_markers_match_fractional_prediction(self, packet):
        # large ratio keeps the quadratic drift below the peak threshold
        ph = PhaseData.synthetic(t_hyp=math.pi, n_h=2**24 + 1, theta=Fraction(0))
        t = np.linspace(0.0, 2 * math.pi, 513)
        cmp = fractional_prediction(packet, ph, 1, 2, t)
        peaks_pred = detect_peaks(t, np.abs(cmp.clone_sum), threshold=0.9)
        peaks_a2 = detect_peaks(t, np.abs(cmp.shifted_order2), threshold=0.9)
        assert np.allclose(peaks_pred.times, peaks_a2.times, atol=1e-6)


@given(
    st.integers(min_value=2, max_value=200),
    st.floats(min_value=0.01, max_value=0.49),
)
@settings(max_examples=40, deadline=None)
def test_property_unitarity_of_series(n_h, theta):
    spec = PacketSpec(energy=0.0, gamma=0.3, gamma_prime=0.8, h=1e-4)
    pk = build_coefficients(spec, 10**4)
    ph = PhaseData.synthetic(t_hyp=1.7, n_h=n_h, theta=theta)
    t = np.linspace(0.0, 3.0, 64)
    assert np.max(np.abs(order1_series(pk, ph, t))) <= 1.0 + 1e-12
    assert np.max(np.abs(order2_series(pk, ph, t))) <= 1.0 + 1e-12


class TestWindowReturn:
    def test_window_restricted_series(self, window_1e4):
        spec = PacketSpec(energy=-0.45, gamma=0.3, gamma_prime=0.8, h=1e-4)
        n0, _ = select_centers(window_1e4, -0.45)
        pk = build_coefficients(spec, n0, index_set=window_1e4.alpha_lambdas)
        t = np.linspace(0.0, 20.0, 201)
        r = exact_series(window_1e4.alpha_lambdas, pk, t)
        assert abs(r[0] - 1.0) <= 1e-12
        assert np.max(np.abs(r)) <= 1.0 + 1e-12

    def test_support_error_when_packet_escapes_window(self, window_1e4):
        spec = PacketSpec(energy=-0.45, gamma=0.3, gamma_prime=0.8, h=1e-4)
        wide = build_coefficients(spec, max(window_1e4.alpha_lambdas))
        with pytest.raises(SupportError):
            exact_series(window_1e4.alpha_lambdas, wide, np.linspace(0.0, 1.0, 8))


class TestBetaFamilyMirror:
    def test_beta_packet_recurs_like_alpha(self, quartic, monkeypatch):
        """At the window edge the two families' recurrence periods approach."""
        from revivalkit import model as model_module
        from revivalkit.model import SpectralModel, select_alpha_near

        h = 1e-9
        model = SpectralModel(quartic, h)
        periods = {}
        for family in ("alpha", "beta"):
            monkeypatch.setattr(model_module, "LADDER_FAMILY", family)
            roots = model.solve_ladder(-1.0, n_side=20)
            n0 = select_alpha_near(roots, -1.0)
            spec = PacketSpec(energy=-1.0, gamma=0.3, gamma_prime=0.8, h=h)
            pk = build_coefficients(spec, n0, index_set=roots.keys())
            t_loc = abs(float(model._derivatives(np.array([roots[n0]]), family)[0][0]))
            t = np.linspace(0.0, 3.2 * t_loc, 4001)
            c = np.abs(exact_series(roots, pk, t))
            peaks = detect_peaks(t, c, threshold=0.6)
            assert peaks.period_estimate is not None
            # each family recurs at its own local ladder spacing
            assert abs(peaks.period_estimate - t_loc) / t_loc <= 0.02
            periods[family] = peaks.period_estimate
        rel = abs(periods["alpha"] - periods["beta"]) / periods["alpha"]
        assert rel <= 0.05
