import math

import pytest
from hypothesis import given, strategies as st

from hrvlc.scenario import _concentrator_gain, _lambertian_order

from conftest import make_ap, make_mt, make_params, make_scenario
from oracles import channel_gain, downlink_rate


class TestLambertianOrder:
    def test_60_degrees_is_order_one(self):
        assert _lambertian_order(math.radians(60)) == pytest.approx(1.0)

    def test_45_degrees_is_order_two(self):
        assert _lambertian_order(math.radians(45)) == pytest.approx(2.0)

    def test_30_degrees_matches_direct_evaluation(self):
        # frozen from -1/log2(cos(30 deg))
        assert _lambertian_order(math.radians(30)) == pytest.approx(
            4.818841679306837, rel=1e-12)


class TestConcentratorGain:
    def test_unity_sine(self):
        assert _concentrator_gain(1.5, math.radians(90)) == pytest.approx(2.25)

    def test_identity(self):
        assert _concentrator_gain(1.0, math.radians(90)) == pytest.approx(1.0)

    def test_60_degree_fov(self):
        assert _concentrator_gain(1.5, math.radians(60)) == pytest.approx(3.0)


class TestChannelGain:
    def test_vertical_link_direct_substitution(self):
        # oracle: plain substitution with m=1, A=1e-4, rho=0.4, T_s=1, g=1, d=2
        expected = 2 * 1e-4 * 0.4 / (2 * math.pi * 4)
        assert expected == pytest.approx(3.1831e-6, rel=1e-4)
        mt = make_mt(2, 2, 1, refractive_index=1.0, fov=math.radians(90))
        gain = channel_gain(make_ap(2, 2, 3), mt)
        assert gain.in_fov
        assert gain.value == pytest.approx(expected, rel=1e-12)

    def test_outside_fov_is_zero(self):
        mt = make_mt(4, 2, 2.5, fov=math.radians(20))
        gain = channel_gain(make_ap(0, 2, 3), mt)
        assert gain.value == 0.0
        assert not gain.in_fov

    def test_inverse_square_law_at_fixed_angles(self):
        near = channel_gain(make_ap(2, 2, 3), make_mt(2, 2, 2))
        far = channel_gain(make_ap(2, 2, 3), make_mt(2, 2, 1))
        assert near.value / far.value == pytest.approx(4.0, rel=1e-12)

    @given(dz1=st.floats(0.5, 1.4), dz2=st.floats(1.5, 2.9))
    def test_gain_decreasing_with_distance_vertical(self, dz1, dz2):
        g1 = channel_gain(make_ap(2, 2, 3), make_mt(2, 2, 3 - dz1)).value
        g2 = channel_gain(make_ap(2, 2, 3), make_mt(2, 2, 3 - dz2)).value
        assert g1 > g2


class TestDownlinkRate:
    def test_unit_snr_gives_one_bit(self):
        ap = make_ap(2, 2, 3, power=1.0)
        mt = make_mt(2, 2, 1)
        gain = channel_gain(ap, mt).value
        # pick N0 so P*G equals N0*B_v with B_v = 1 Hz
        params = make_params(b_v=1.0, n0=gain)
        scn = make_scenario(aps=[ap], mts=[mt], params=params)
        res = downlink_rate(scn, 0, 0)
        assert res.sinr == pytest.approx(1.0, rel=1e-12)
        assert res.rate == pytest.approx(1.0, rel=1e-12)

    def test_zero_power_gives_zero_rate(self):
        scn = make_scenario(aps=[make_ap(power=0.0)])
        res = downlink_rate(scn, 0, 0)
        assert res.sinr == 0.0
        assert res.rate == 0.0

    def test_two_ap_rate_matches_direct_substitution(self):
        aps = [make_ap(1, 2, 3), make_ap(3, 2, 3)]
        mt = make_mt(1.5, 2, 1)
        params = make_params()
        scn = make_scenario(aps=aps, mts=[mt], params=params)
        res = downlink_rate(scn, 0, 0)

        # oracle: recompute the SINR from raw gains, independent arithmetic
        g0 = channel_gain(aps[0], mt).value
        g1 = channel_gain(aps[1], mt).value
        sinr = (aps[0].power * g0) / (params.n0 * params.b_v
                                      + aps[1].power * g1)
        rate = params.b_v * math.log(1 + sinr) / math.log(2)
        assert res.sinr == pytest.approx(sinr, rel=1e-12)
        assert res.rate == pytest.approx(rate, rel=1e-12)

    def test_interferer_power_lowers_rate(self):
        mt = make_mt(1.5, 2, 1)
        quiet = make_scenario(
            aps=[make_ap(1, 2, 3), make_ap(3, 2, 3, power=1.0)], mts=[mt])
        loud = make_scenario(
            aps=[make_ap(1, 2, 3), make_ap(3, 2, 3, power=6.0)], mts=[mt])
        assert downlink_rate(loud, 0, 0).rate < downlink_rate(quiet, 0, 0).rate

    @given(scale=st.floats(1e-3, 1e3))
    def test_common_power_noise_scaling_leaves_sinr_unchanged(self, scale):
        mt = make_mt(1.5, 2, 1)
        base_params = make_params()
        base = make_scenario(
            aps=[make_ap(1, 2, 3, power=3.0), make_ap(3, 2, 3, power=3.0)],
            mts=[mt], params=base_params)
        scaled = make_scenario(
            aps=[make_ap(1, 2, 3, power=3.0 * scale),
                 make_ap(3, 2, 3, power=3.0 * scale)],
            mts=[mt], params=make_params(n0=base_params.n0 * scale))
        assert downlink_rate(scaled, 0, 0).sinr == pytest.approx(
            downlink_rate(base, 0, 0).sinr, rel=1e-12)

    def test_rate_zero_iff_sinr_zero(self):
        scn = make_scenario()
        res = downlink_rate(scn, 0, 0)
        assert res.rate > 0
        assert res.sinr > 0
