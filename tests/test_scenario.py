import json
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from hrvlc import associate, lambertian_order, link_geometry, load_scenario
from hrvlc.errors import (
    ConfigParseError,
    ConfigValidationError,
    GeometryError,
    NoCoverageError,
)

from conftest import make_ap, make_mt, make_scenario

MINIMAL = {
    "room": {"x": 4.0, "y": 4.0, "z": 3.0},
    "params": {"B_v": 1e7, "B_r": 1e7, "N0": 4e-21, "T_d": 0.5, "T_u": 0.5},
    "aps": [{"pos": [2.0, 2.0, 3.0], "P_T": 3.0, "half_angle_deg": 60}],
    "mts": [{
        "pos": [2.0, 2.0, 1.0], "A": 1e-4, "rho": 0.4, "T_s": 1.0,
        "n_c": 1.5, "fov_deg": 70, "C_jRF": 0.5, "rho_j": 0.75,
        "pathloss_exp": 2.5, "rician_K": 3.0, "rician_omega": 1.0,
        "rf_distance": 4.0,
    }],
}


def config_with(**patches):
    doc = json.loads(json.dumps(MINIMAL))
    for dotted, value in patches.items():
        doc[dotted] = value
    return doc


class TestLoadScenario:
    def test_minimal_roundtrip(self):
        scn = load_scenario(json.dumps(MINIMAL))
        assert len(scn.aps) == 1
        assert len(scn.mts) == 1
        assert scn.params.b_v == 1e7
        assert scn.aps[0].half_angle == pytest.approx(math.radians(60))
        assert scn.mts[0].fov == pytest.approx(math.radians(70))

    def test_malformed_json(self):
        with pytest.raises(ConfigParseError):
            load_scenario("{not json")

    def test_zero_fov_rejected(self):
        doc = json.loads(json.dumps(MINIMAL))
        doc["mts"][0]["fov_deg"] = 0
        with pytest.raises(ConfigValidationError) as exc:
            load_scenario(json.dumps(doc))
        assert "fov_deg" in str(exc.value)

    def test_mt_outside_room_rejected(self):
        doc = json.loads(json.dumps(MINIMAL))
        doc["mts"][0]["pos"] = [9.0, 2.0, 1.0]
        with pytest.raises(ConfigValidationError) as exc:
            load_scenario(json.dumps(doc))
        assert "mts[0].pos" in str(exc.value)

    def test_unknown_key_rejected(self):
        doc = config_with(extra=1)
        with pytest.raises(ConfigValidationError):
            load_scenario(json.dumps(doc))
        doc = json.loads(json.dumps(MINIMAL))
        doc["aps"][0]["tilt"] = 0.1
        with pytest.raises(ConfigValidationError):
            load_scenario(json.dumps(doc))

    def test_ap_below_mt_rejected(self):
        doc = json.loads(json.dumps(MINIMAL))
        doc["aps"][0]["pos"] = [2.0, 2.0, 0.5]
        with pytest.raises(ConfigValidationError):
            load_scenario(json.dumps(doc))

    def test_ap_height_names_first_failing_pair(self):
        # only (aps[1], mts[1]) breaks the rule: aps[1] sits below mts[1]
        doc = json.loads(json.dumps(MINIMAL))
        doc["aps"].append(dict(doc["aps"][0], pos=[1.0, 1.0, 2.0]))
        doc["mts"].append(dict(doc["mts"][0], pos=[3.0, 3.0, 2.5]))
        with pytest.raises(ConfigValidationError) as exc:
            load_scenario(json.dumps(doc))
        assert exc.value.field == "aps[1].pos[2]"
        assert "mts[1]" in str(exc.value)

    def test_missing_section_rejected(self):
        doc = json.loads(json.dumps(MINIMAL))
        del doc["params"]
        with pytest.raises(ConfigValidationError):
            load_scenario(json.dumps(doc))

    def test_sweep_section_parsed(self):
        doc = config_with(sweep={"B_v": [5e6, 1e7]})
        scn = load_scenario(json.dumps(doc))
        assert scn.bv_sweep == (5e6, 1e7)


class TestLinkGeometry:
    def test_vertical_link(self):
        d, cos_phi, cos_psi = link_geometry(make_ap(2, 2, 3), make_mt(2, 2, 1))
        assert d == 2.0
        assert cos_phi == 1.0
        assert cos_psi == 1.0

    def test_oblique_link_matches_coordinate_oracle(self):
        # oracle: plain numpy vector arithmetic on the raw coordinates
        ap_pos = np.array([0.0, 0.0, 3.0])
        mt_pos = np.array([2.0, 0.0, 1.0])
        diff = ap_pos - mt_pos
        d_expect = np.linalg.norm(diff)
        cos_expect = diff[2] / d_expect

        d, cos_phi, cos_psi = link_geometry(make_ap(0, 0, 3), make_mt(2, 0, 1))
        assert d == pytest.approx(d_expect, rel=1e-15)
        assert d == pytest.approx(math.sqrt(8), rel=1e-15)
        assert cos_phi == pytest.approx(cos_expect, rel=1e-15)
        assert cos_phi == pytest.approx(2 / math.sqrt(8), rel=1e-15)
        assert cos_phi == cos_psi

    def test_colocated_is_degenerate(self):
        with pytest.raises(GeometryError):
            link_geometry(make_ap(2, 2, 3), make_mt(2, 2, 3))

    def test_ap_below_mt_is_degenerate(self):
        with pytest.raises(GeometryError):
            link_geometry(make_ap(2, 2, 1), make_mt(2, 2, 2))

    @given(r=st.floats(0, 3), theta=st.floats(0, 2 * math.pi),
           dz=st.floats(0.5, 2.5))
    def test_rotation_about_ap_axis_is_invariant(self, r, theta, dz):
        ap = make_ap(0, 0, 3)
        base = link_geometry(ap, make_mt(r, 0.0, 3 - dz))
        rotated = link_geometry(
            ap, make_mt(r * math.cos(theta), r * math.sin(theta), 3 - dz))
        assert rotated[0] == pytest.approx(base[0], rel=1e-12)
        assert rotated[1] == pytest.approx(base[1], rel=1e-12)

    @given(x=st.floats(-3, 3), y=st.floats(-3, 3), dz=st.floats(0.1, 2.9))
    @example(x=0.0, y=0.0, dz=0.1143118198284669)
    def test_cosine_in_unit_interval_and_distance_bound(self, x, y, dz):
        ap, mt = make_ap(0, 0, 3), make_mt(x, y, 3 - dz)
        d, cos_phi, cos_psi = link_geometry(ap, mt)
        assert 0 < cos_phi <= 1
        assert cos_phi == cos_psi
        # the drop the geometry sees, which rounds away from dz; since
        # sqrt(fl(x*x)) == |x|, the distance bounds it exactly
        drop = ap.position.z - mt.position.z
        assert d >= drop


class TestAssociate:
    def test_single_covering_ap(self):
        scn = make_scenario()
        assert associate(scn, 0).serving == 0

    def test_equidistant_tie_breaks_to_lowest_index(self):
        scn = make_scenario(
            aps=[make_ap(1, 2, 3), make_ap(3, 2, 3)],
            mts=[make_mt(2, 2, 1)])
        assert associate(scn, 0).serving == 0

    def test_no_coverage_raises(self):
        scn = make_scenario(
            aps=[make_ap(0, 0, 3)],
            mts=[make_mt(4, 4, 1, fov=math.radians(5))])
        with pytest.raises(NoCoverageError):
            associate(scn, 0)

    def test_returns_argmax_gain(self):
        from hrvlc import channel_gain

        scn = make_scenario(
            aps=[make_ap(0.5, 0.5, 3), make_ap(2, 2, 3), make_ap(4, 4, 3)],
            mts=[make_mt(2.2, 1.9, 1)])
        chosen = associate(scn, 0).serving
        gains = [channel_gain(ap, scn.mts[0]).value for ap in scn.aps]
        assert gains[chosen] == max(gains)

    def test_out_of_fov_ap_harvests_but_never_serves(self):
        # the choice in ``associate``'s docstring: an AP outside the FOV
        # adds nothing to c but its harvest term still counts in k2
        far = make_ap(0, 0, 3, power=30.0)   # ~73 deg off axis, fov 30 deg
        near = make_ap(4.5, 4.5, 3)
        mt = make_mt(4.5, 4.5, 1, fov=math.radians(30))
        scn = make_scenario(aps=[far, near], mts=[mt])
        assoc = associate(scn, 0)
        d, cos_phi, _ = link_geometry(far, mt)
        term = far.power ** 2 / d ** 4 * cos_phi ** (
            2 * lambertian_order(far.half_angle))
        assert cos_phi < math.cos(mt.fov)
        assert assoc.serving == 1
        assert assoc.c == 0.0
        assert assoc.k2 > 0.0
        scale = mt.conv_coeff * scn.params.t_d * mt.oe_efficiency
        assert assoc.k2 == pytest.approx(scale * term, rel=1e-12)
