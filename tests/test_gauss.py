"""Periodicity lattice and clone coefficients, against the exact-Fraction reference."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_gauss import (
    fourier_mode,
    inner_product,
    quadratic_phase_sequence,
    reconstruct,
    verify_periodicity,
)
from revivalkit.errors import NotCoprime, ParameterError
from revivalkit.gausssum import coefficients, modulus_law, periodicity_set


class TestPeriodicity:
    @pytest.mark.parametrize(
        "p,q,gen",
        [(1, 3, 3), (1, 2, 2), (1, 4, 2), (2, 3, 3), (3, 8, 4), (1, 12, 6), (5, 6, 6)],
    )
    def test_lattice_generator(self, p, q, gen):
        assert periodicity_set(p, q).generator == gen

    def test_descriptions(self):
        assert periodicity_set(1, 3).description == "3Z"
        assert periodicity_set(1, 4).description == "2Z"

    def test_congruence_check_agrees(self):
        assert verify_periodicity(1, 3, 3, range(-50, 51))
        assert not verify_periodicity(1, 3, 1, range(-50, 51))
        assert verify_periodicity(1, 4, 2, range(-50, 51))

    def test_sequence_is_periodic_with_generator(self):
        for p, q in [(1, 5), (3, 4), (2, 7), (5, 8)]:
            ell = periodicity_set(p, q).generator
            ns = np.arange(-20, 21)
            seq = quadratic_phase_sequence(p, q, 3, ns)
            shifted = quadratic_phase_sequence(p, q, 3, ns + ell)
            assert np.max(np.abs(seq - shifted)) == 0.0

    def test_not_coprime_rejected(self):
        # coefficients and modulus_law take their period, and its checks,
        # from periodicity_set
        for call in (periodicity_set, lambda p, q: coefficients(p, q, 0), modulus_law):
            with pytest.raises(NotCoprime):
                call(2, 4)
            with pytest.raises(NotCoprime):
                call(3, 9)
            with pytest.raises(ParameterError):
                call(1, 0)


class TestInnerProduct:
    def test_fourier_modes_orthonormal(self):
        for ell in range(1, 13):
            ns = list(range(ell))
            for a in range(ell):
                for b in range(ell):
                    ip = inner_product(fourier_mode(a, ell, ns), fourier_mode(b, ell, ns))
                    want = 1.0 if a == b else 0.0
                    assert abs(ip - want) <= 1e-12

    def test_positivity(self, rng):
        u = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        ip = inner_product(u, u)
        assert abs(ip.imag) <= 1e-15
        assert ip.real >= 0.0

    def test_unimodular_sequence_has_unit_norm(self):
        ell = periodicity_set(2, 5).generator
        seq = quadratic_phase_sequence(2, 5, 11, range(ell))
        assert abs(inner_product(seq, seq) - 1.0) <= 1e-14


class TestCoefficients:
    def test_trivial_fraction_is_identity(self):
        co = coefficients(1, 1, 12345)
        assert co.ell == 1
        assert abs(co.phased[0] - 1.0) <= 1e-15

    def test_half_period_structure(self):
        for n0 in (-3, 0, 5, 10):
            co = coefficients(1, 2, n0)
            assert abs(co.values[0]) <= 1e-15
            assert abs(abs(co.values[1]) - 1.0) <= 1e-15
            assert abs(co.phased[1] - 1.0) <= 1e-14

    def test_third_period_moduli(self):
        co = coefficients(1, 3, 0)
        assert np.max(np.abs(co.moduli_squared - 1.0 / 3.0)) <= 1e-14

    @pytest.mark.parametrize("p,q", [(1, 5), (1, 6), (1, 4), (3, 10), (5, 12), (2, 9)])
    def test_modulus_law_examples(self, p, q):
        co = coefficients(p, q, 7)
        ell, law = modulus_law(p, q)
        assert co.ell == ell
        assert np.max(np.abs(co.moduli_squared - law)) <= 1e-12

    def test_law_tables(self):
        ell, law = modulus_law(1, 5)
        assert ell == 5 and np.allclose(law, 0.2)
        ell, law = modulus_law(1, 6)
        assert ell == 6
        assert np.allclose(law[0::2], 0.0) and np.allclose(law[1::2], 1.0 / 3.0)
        ell, law = modulus_law(1, 4)
        assert ell == 2 and np.allclose(law, 0.5)

    def test_reconstruction_exact(self):
        for p, q, n0 in [(1, 3, 137), (3, 8, -4), (2, 5, 9)]:
            co = coefficients(p, q, n0)
            ns = np.arange(n0 - 10, n0 + 11)
            err = np.abs(reconstruct(co, ns) - quadratic_phase_sequence(p, q, n0, ns))
            assert np.max(err) <= 1e-12

    def test_parseval(self):
        for p, q in [(1, 7), (3, 4), (5, 16), (7, 18)]:
            co = coefficients(p, q, 3)
            assert abs(np.sum(co.moduli_squared) - 1.0) <= 1e-14

    def test_center_shift_permutes_moduli(self):
        for p, q in [(1, 5), (3, 8), (1, 6)]:
            a = sorted(np.round(coefficients(p, q, 4).moduli_squared, 14))
            b = sorted(np.round(coefficients(p, q, 5).moduli_squared, 14))
            assert np.allclose(a, b, atol=1e-13)

    @given(
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=-50, max_value=50),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_parseval_and_law(self, p, q, n0):
        if math.gcd(p, q) != 1:
            with pytest.raises(NotCoprime):
                coefficients(p, q, n0)
            return
        co = coefficients(p, q, n0)
        assert abs(np.sum(co.moduli_squared) - 1.0) <= 1e-13
        ell, law = modulus_law(p, q)
        assert co.ell == ell
        assert np.max(np.abs(co.moduli_squared - law)) <= 1e-12

    def test_matches_exact_fraction_reference(self):
        # the Hermitian projection written with exactly reduced Fraction
        # phases, at centres far past the int64 range of their squares
        modes = {}
        for q in range(1, 25):
            for p in range(1, q + 1):
                if math.gcd(p, q) != 1:
                    continue
                ell = periodicity_set(p, q).generator
                if ell not in modes:
                    modes[ell] = [fourier_mode(k, ell, range(ell)) for k in range(ell)]
                for n0 in (0, 7, -13, 10**15 + 7, -(10**18) - 1):
                    seq = quadratic_phase_sequence(p, q, n0, range(ell))
                    want = np.array([inner_product(seq, mode) for mode in modes[ell]])
                    shift = np.array([fourier_mode(k, ell, [n0])[0] for k in range(ell)])
                    co = coefficients(p, q, n0)
                    assert np.max(np.abs(co.values - want)) <= 1e-14, (p, q, n0)
                    assert np.max(np.abs(co.phased - shift * want)) <= 1e-14, (p, q, n0)

    @pytest.mark.parametrize("n0", [0, 10**30 + 7])
    def test_long_period_in_linear_memory(self, n0):
        # one length-ell FFT: an ell x ell phase table at q = 100 003 would
        # hold 10^10 entries
        tracemalloc.start()
        try:
            co = coefficients(5, 100_003, n0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ell, law = modulus_law(5, 100_003)
        assert co.ell == ell == 100_003
        assert np.max(np.abs(co.moduli_squared - law)) <= 1e-12
        assert abs(np.sum(co.moduli_squared) - 1.0) <= 1e-13
        assert peak < 64e6

    def test_generator_minimal_against_divisors(self):
        for p, q in [(1, 6), (1, 8), (3, 10), (1, 9), (5, 12)]:
            ell = periodicity_set(p, q).generator
            assert verify_periodicity(p, q, ell, range(-100, 101))
            divisors = [d for d in range(1, ell) if ell % d == 0]
            if divisors:
                assert not verify_periodicity(p, q, max(divisors), range(-100, 101))
