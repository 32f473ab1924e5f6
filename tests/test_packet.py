"""Packet construction: centers, coefficients, normalization, index splits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revivalkit.errors import EmptyWindow, ParameterError, ProfileError
from revivalkit.model import SpectrumWindow
from revivalkit.packet import (
    BumpProfile,
    PacketSpec,
    build_coefficients,
    select_centers,
    split_sets,
)


def make_window(alpha_vals, beta_vals, h=1e-4, k0=-100):
    alphas = [(k0 - i, v) for i, v in enumerate(alpha_vals)]
    betas = [(k0 - i, v) for i, v in enumerate(beta_vals)]
    return SpectrumWindow(
        h=h,
        alpha_lambdas={k: v / h for k, v in alphas},
        beta_lambdas={k: v / h for k, v in betas},
    )


class TestSpecValidation:
    def test_valid_pairs(self):
        PacketSpec(energy=0.0, gamma=0.9, gamma_prime=0.2, h=1e-4)
        PacketSpec(energy=-1.0, gamma=0.3, gamma_prime=0.8, h=1e-4)

    @pytest.mark.parametrize(
        "kwargs,needle",
        [
            (dict(energy=1.5, gamma=0.9, gamma_prime=0.2, h=1e-4), "energy"),
            (dict(energy=0.0, gamma=1.1, gamma_prime=0.2, h=1e-4), "gamma"),
            (dict(energy=0.0, gamma=0.9, gamma_prime=1.0, h=1e-4), "gamma_prime"),
            (dict(energy=0.0, gamma=0.3, gamma_prime=0.2, h=1e-4), r"gamma \+ gamma_prime"),
            (dict(energy=0.0, gamma=0.9, gamma_prime=0.2, h=2.0), "h must"),
        ],
    )
    def test_constraint_named_in_error(self, kwargs, needle):
        with pytest.raises(ParameterError, match=needle):
            PacketSpec(**kwargs)

    def test_profile_must_be_even(self):
        class Lopsided:
            label = "lopsided"

            def __call__(self, x):
                return np.exp(-0.5 * (np.asarray(x) - 0.3) ** 2)

        with pytest.raises(ProfileError):
            PacketSpec(energy=0.0, gamma=0.9, gamma_prime=0.2, h=1e-4, chi=Lopsided())

    def test_width_and_radius(self):
        spec = PacketSpec(energy=0.0, gamma=0.9, gamma_prime=0.2, h=1e-4)
        lnh = abs(math.log(1e-4))
        assert abs(spec.width - lnh**0.8) <= 1e-12
        assert abs(spec.delta_radius - lnh**0.9) <= 1e-12


class TestSelectCenters:
    def test_exact_hit_returns_that_index(self):
        w = make_window([-3e-5, 2e-5, 6e-5], [-1e-5, 4e-5])
        n0, m0 = select_centers(w, 0.2)  # h*E = 2e-5 hits alpha exactly
        assert n0 == -101

    def test_tie_breaks_to_smaller_index(self):
        w = make_window([-2e-5, 2e-5], [-1e-5, 1e-5])
        n0, m0 = select_centers(w, 0.0)
        assert n0 == -101  # equidistant pair: smaller index wins
        assert m0 == -101

    def test_empty_window(self):
        w = make_window([], [1e-5])
        with pytest.raises(EmptyWindow):
            select_centers(w, 0.0)

    def test_gap_bound_on_real_window(self, window_1e4):
        # |alpha_n0 - h E| <= C h / |ln h| with C below 4.5 for this well
        lnh = abs(math.log(window_1e4.h))
        for energy in (-0.8, -0.3, 0.1, 0.6):
            n0, _ = select_centers(window_1e4, energy)
            val = dict(window_1e4.alphas)[n0]
            assert abs(val - window_1e4.h * energy) <= 4.5 * window_1e4.h / lnh


class TestCoefficients:
    def test_norm_is_one_after_truncation(self):
        spec = PacketSpec(energy=0.0, gamma=0.3, gamma_prime=0.8, h=1e-5)
        seq = build_coefficients(spec, 10**5)
        assert abs(np.sum(seq.weights) - 1.0) <= 1e-10

    def test_center_carries_the_peak(self):
        spec = PacketSpec(energy=0.0, gamma=0.3, gamma_prime=0.8, h=1e-5)
        seq = build_coefficients(spec, 10**5)
        assert seq.values[np.argmax(seq.values)] == seq.values[list(seq.indices).index(10**5)]

    def test_gaussian_normalization_closed_form(self):
        # K_h -> pi^(-1/4) |ln h|^(-(1-gamma')/2) as h decreases
        errors = []
        for h in (1e-3, 1e-4, 1e-5, 1e-6):
            spec = PacketSpec(energy=0.0, gamma=0.3, gamma_prime=0.8, h=h)
            seq = build_coefficients(spec, 10**5)
            want = math.pi**-0.25 * abs(math.log(h)) ** (-(1 - 0.8) / 2)
            assert abs(seq.k_closed_form - want) <= 1e-15
            errors.append(abs(seq.k_exact - seq.k_closed_form) / seq.k_closed_form)
        assert errors[-1] <= 1e-6
        assert all(b < a for a, b in zip(errors, errors[1:]))

    def test_ladder_labels_not_clipped(self):
        spec = PacketSpec(energy=0.0, gamma=0.3, gamma_prime=0.8, h=1e-3)
        seq = build_coefficients(spec, -1500)
        assert seq.indices.min() < -1500

    def test_index_set_restriction(self):
        spec = PacketSpec(energy=0.0, gamma=0.3, gamma_prime=0.8, h=1e-3)
        seq = build_coefficients(spec, 50, index_set=range(48, 53))
        assert set(seq.indices) == {48, 49, 50, 51, 52}
        assert abs(np.sum(seq.weights) - 1.0) <= 1e-12

    def test_bump_profile_has_no_fourier_data(self):
        spec = PacketSpec(energy=0.0, gamma=0.3, gamma_prime=0.8, h=1e-4, chi=BumpProfile())
        seq = build_coefficients(spec, 10**4)
        assert seq.k_closed_form is None

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=1e-6, max_value=1e-2),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_norm_and_peak(self, gamma_prime, h):
        gamma = min(0.99, 1.05 - gamma_prime)
        spec = PacketSpec(energy=0.0, gamma=gamma, gamma_prime=gamma_prime, h=h)
        seq = build_coefficients(spec, 10**6)
        assert abs(np.sum(seq.weights) - 1.0) <= 1e-10
        assert np.argmax(seq.values) == list(seq.indices).index(10**6)


class TestSplitSets:
    def test_delta_cardinality(self):
        spec = PacketSpec(energy=0.0, gamma=0.9, gamma_prime=0.2, h=1e-6)
        seq = build_coefficients(spec, 10**5)
        sets = split_sets(spec, seq)
        lnh = abs(math.log(1e-6))
        assert sets.delta_cardinality == 2 * math.floor(lnh**0.9) + 1

    def test_gamma_mass_negligible_at_calibrated_parameters(self):
        # reparameterized from (gamma'=0.2) to keep the near-center set several
        # packet widths wide at reachable h; see notes in the decisions ledger
        spec = PacketSpec(energy=0.0, gamma=0.9, gamma_prime=0.8, h=1e-6)
        seq = build_coefficients(spec, 10**5)
        sets = split_sets(spec, seq)
        assert sets.gamma_mass <= 1e-10

    def test_gamma_mass_decays_superpolynomially(self):
        masses, lnhs = [], []
        for h in (1e-2, 1e-3, 1e-4):
            spec = PacketSpec(energy=0.0, gamma=0.9, gamma_prime=0.8, h=h)
            seq = build_coefficients(spec, 10**5)
            masses.append(split_sets(spec, seq).gamma_mass)
            lnhs.append(abs(math.log(h)))
        for i in range(len(masses) - 1):
            if masses[i + 1] < 1e-15:
                break
            power_bound = (lnhs[i] / lnhs[i + 1]) ** 6
            assert masses[i + 1] / masses[i] < power_bound

    def test_localization_breadth_between_one_and_delta(self):
        for gamma, gamma_prime in ((0.9, 0.2), (0.3, 0.8)):
            for h in (1e-3, 1e-5):
                spec = PacketSpec(energy=0.0, gamma=gamma, gamma_prime=gamma_prime, h=h)
                seq = build_coefficients(spec, 10**5)
                sets = split_sets(spec, seq)
                assert 1.0 < spec.width < sets.delta_cardinality


class TestCutoffEquivalence:
    def test_window_cutoff_factor_is_redundant(self, model_1e4):
        """With unit energy exponent the hard window cutoff changes nothing."""
        import math as _math

        h = 1e-4
        gamma_prime = 0.8
        roots = model_1e4.solve_ladder(lam_center=-0.45, n_side=40)
        n0 = min(roots, key=lambda k: abs(roots[k] + 0.45))
        lnh = abs(_math.log(h))
        mu = {k: h * lam for k, lam in roots.items()}
        raw = np.array(
            [
                _math.exp(-0.5 * ((mu[k] - mu[n0]) * lnh**gamma_prime / h) ** 2)
                for k in sorted(roots)
            ]
        )
        cutoff = np.array(
            [1.0 if abs(mu[k] - mu[n0]) < 2.0 * h else 0.0 for k in sorted(roots)]
        )
        a = raw / np.linalg.norm(raw)
        b = (raw * cutoff) / np.linalg.norm(raw * cutoff)
        assert np.max(np.abs(a - b)) <= 1e-12


class TestWindowContainment:
    def test_near_center_set_inside_window_indices(self, quartic):
        """For small enough h the near-center set fits inside the window."""
        from revivalkit.model import SpectralModel

        h = 1e-12
        model = SpectralModel(quartic, h)
        window = model.solve_families()
        spec = PacketSpec(energy=0.0, gamma=0.3, gamma_prime=0.8, h=h)
        n0, _ = select_centers(window, 0.0)
        seq = build_coefficients(spec, n0)
        sets = split_sets(spec, seq)
        window_indices = set(window.alpha_lambdas)
        assert set(int(n) for n in sets.delta_indices) <= window_indices
