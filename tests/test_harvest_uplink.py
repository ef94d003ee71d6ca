import math

import numpy as np
import pytest
from scipy import integrate, stats

from hrvlc import associate, rician_envelope, total_rate
from hrvlc.cli import _fading_power
from hrvlc.objective import _check_alpha

from conftest import make_ap, make_coeffs, make_mt, make_params, make_scenario
from oracles import (
    HarvestConstants,
    harvest_term_reference,
    harvested_energy,
    rician_pdf,
    rician_reference,
    uplink_budget,
    uplink_rate,
    uplink_snr,
)


class TestHarvestConstants:
    """k1 and k2 as the single pass in ``associate`` sums them."""

    def test_single_ap_has_no_interference_term(self):
        consts = associate(make_scenario(), 0)
        assert consts.k2 == 0.0
        assert consts.k1 > 0.0

    def test_quadratic_power_law(self):
        base = associate(make_scenario(
            aps=[make_ap(1, 2, 3, power=2.0), make_ap(3, 2, 3, power=2.0)],
            mts=[make_mt(1.5, 2, 1)]), 0)
        doubled = associate(make_scenario(
            aps=[make_ap(1, 2, 3, power=4.0), make_ap(3, 2, 3, power=4.0)],
            mts=[make_mt(1.5, 2, 1)]), 0)
        assert doubled.k1 == pytest.approx(4 * base.k1, rel=1e-12)
        assert doubled.k2 == pytest.approx(4 * base.k2, rel=1e-12)

    def test_two_ap_matches_direct_substitution(self):
        aps = [make_ap(1, 2, 3), make_ap(3, 2, 3)]
        mt = make_mt(1.5, 2, 1)
        params = make_params()
        scn = make_scenario(aps=aps, mts=[mt], params=params)
        consts = associate(scn, 0)
        assert consts.serving == 0

        # oracle: recompute both coefficients term by term from raw geometry
        scale = mt.conv_coeff * params.t_d * mt.oe_efficiency
        assert consts.k1 == pytest.approx(
            scale * harvest_term_reference(aps[0], mt), rel=1e-12)
        assert consts.k2 == pytest.approx(
            scale * harvest_term_reference(aps[1], mt), rel=1e-12)


class TestHarvestedEnergy:
    """E_H(alpha) through the oracle, and the one alpha check, which
    ``total_rate`` runs."""

    def test_full_decoding_no_interferers_harvests_nothing(self):
        assert harvested_energy(HarvestConstants(2e-6, 0.0), 1.0) == 0.0

    def test_full_harvesting(self):
        assert harvested_energy(HarvestConstants(2e-6, 5e-7), 0.0) == \
            pytest.approx(2.5e-6, rel=1e-12)

    def test_quarter_split_arithmetic(self):
        assert harvested_energy(HarvestConstants(2e-6, 5e-7), 0.25) == \
            pytest.approx(2e-6, rel=1e-12)

    # the one alpha check, on every shape
    @pytest.mark.parametrize("alpha", [
        -0.1, 1.1, math.nan, -5e-324, 1.0000000000000002, 2,
        np.float64(-0.5), [0.5, math.nan], [0.0, 1.5], np.array([0.2, -1.0]),
        np.array(math.nan)])
    def test_alpha_domain(self, alpha):
        with pytest.raises(ValueError, match=r"alpha must be in \[0, 1\]"):
            total_rate(make_coeffs(), alpha)

    @pytest.mark.parametrize("alpha", [0.0, -0.0, 1.0, 0, 1, [0.0, 1.0],
                                       np.array([]), np.array(0.5)])
    def test_alpha_check_takes_its_bounds(self, alpha):
        assert _check_alpha(alpha) is None

    def test_list_alpha_reads_as_an_array(self):
        assert harvested_energy(HarvestConstants(2e-6, 5e-7),
                                [0.0, 1.0]).tolist() == [2e-6 + 5e-7, 5e-7]

    def test_affine_with_slope_k1(self):
        consts = HarvestConstants(3.2e-6, 1.1e-7)
        assert harvested_energy(consts, 0.0) - harvested_energy(consts, 1.0) \
            == pytest.approx(consts.k1, rel=1e-12)


class TestRicianPdf:
    def test_k_zero_reduces_to_rayleigh(self):
        r = np.linspace(0.01, 4, 50)
        rayleigh = 2 * r / 1.5 * np.exp(-r * r / 1.5)
        assert rician_pdf(r, 0.0, 1.5) == pytest.approx(rayleigh, rel=1e-12)

    def test_zero_at_origin(self):
        assert rician_pdf(0.0, 3.0, 1.0) == 0.0

    @pytest.mark.parametrize("k,omega", [(0, 1), (3, 1), (10, 2)])
    def test_normalizes_to_one(self, k, omega):
        total, err = integrate.quad(lambda r: rician_pdf(r, k, omega),
                                    0, np.inf)
        assert err < 1e-8
        assert total == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("bad", [(-1, 1), (2, 0.0), (2, -1)])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            rician_pdf(1.0, *bad)


class TestSampleRician:
    """The Rician law of the reference sampler and of the CLI's stream.

    ``rician_reference`` takes n real parts, then n imaginary parts, from one
    generator; the package keeps only the envelope kernel it maps them with.
    """

    def test_large_k_is_deterministic_los(self):
        h = rician_reference(1e12, 4.0, np.random.default_rng(123), 1)[0]
        assert h == pytest.approx(2.0, abs=1e-3)

    def test_second_moment_matches_omega(self):
        h = rician_reference(3.0, 2.5, np.random.default_rng(42), 10 ** 6)
        assert np.mean(h * h) == pytest.approx(2.5, rel=0.01)

    def test_matches_pdf_by_kolmogorov_smirnov(self):
        k, omega = 3.0, 1.0
        h = rician_reference(k, omega, np.random.default_rng(7), 10 ** 5)
        # oracle: scipy's Rice law with b = sqrt(2K), scale = sqrt(omega/(2(1+K)))
        dist = stats.rice(math.sqrt(2 * k),
                          scale=math.sqrt(omega / (2 * (1 + k))))
        assert stats.kstest(h, dist.cdf).pvalue > 0.01

    @pytest.mark.parametrize("size", [None, 1, 1000])
    def test_real_parts_then_imaginary_parts(self, size):
        # the kernel on those parts, or on one scalar pair, is the reference
        rng = np.random.default_rng(5)
        got = rician_envelope(0.7, 1.7, rng.standard_normal(size),
                              rng.standard_normal(size))
        want = rician_reference(0.7, 1.7, np.random.default_rng(5), size or 1)
        if size is None:
            assert np.ndim(got) == 0 and got == want[0]
        else:
            assert got.tobytes() == want.tobytes()

    def test_seed_determinism(self):
        a = rician_reference(3.0, 1.0, np.random.default_rng(5), 10)
        b = rician_reference(3.0, 1.0, np.random.default_rng(5), 10)
        assert np.array_equal(a, b)
        # the CLI's draw i depends only on (seed, i)
        longer = _fading_power(3.0, 1.0, 99, 10)
        assert np.array_equal(_fading_power(3.0, 1.0, 99, 10), longer)
        assert np.array_equal(_fading_power(3.0, 1.0, 99, 4), longer[:4])


class TestUplinkSnrAndRate:
    def test_full_decoding_without_interferers_is_silent(self):
        consts = HarvestConstants(2e-6, 0.0)
        snr = uplink_snr(consts, 1.0, 1.0, make_mt(), make_params())
        assert snr == 0.0

    def test_deep_fade_is_silent(self):
        consts = HarvestConstants(2e-6, 5e-7)
        assert uplink_snr(consts, 0.3, 0.0, make_mt(), make_params()) == 0.0

    def test_matches_direct_substitution(self):
        consts = HarvestConstants(2e-6, 0.0)
        mt = make_mt(rf_distance=4.0, pathloss_exp=2.5)
        params = make_params(t_u=1.0, n0=1e-9)
        snr = uplink_snr(consts, 0.0, 1.0, mt, params)
        assert snr == pytest.approx(2e-6 / (1e-9 * 4.0 ** 2.5), rel=1e-12)

    def test_rate_trivia(self):
        assert uplink_rate(0.0, make_params()) == 0.0
        assert uplink_rate(1.0, make_params(b_r=1.0)) == pytest.approx(1.0)
        assert uplink_rate(3.0, make_params(b_r=1e7)) == pytest.approx(2e7)

    def test_snr_nonincreasing_in_alpha(self):
        consts = HarvestConstants(2e-6, 5e-7)
        values = [uplink_snr(consts, a, 1.3, make_mt(), make_params())
                  for a in np.linspace(0, 1, 11)]
        assert all(x >= y for x, y in zip(values, values[1:]))

    def test_budget_composition(self):
        scn = make_scenario()
        res = uplink_budget(scn, 0, 0, 0.4, 1.2)
        assert res.e_h == pytest.approx(
            harvested_energy(associate(scn, 0), 0.4))
        assert res.p_h == pytest.approx(res.e_h / scn.params.t_u)
        assert res.rate == pytest.approx(uplink_rate(res.snr, scn.params))
