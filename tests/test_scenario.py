import copy
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from hrvlc import associate, load_scenario
from hrvlc.errors import (
    ConfigParseError,
    ConfigValidationError,
    NoCoverageError,
)
from hrvlc.scenario import (
    _AP,
    _MT,
    ApTable,
    _entries,
    link_geometry,
)

from conftest import make_ap, make_mt, make_scenario
from oracles import (
    ap_rows,
    associate_reference,
    channel_gain,
    harvest_term_reference,
    link_reference,
    mt_rows,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import generate_hall  # noqa: E402

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

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
        assert scn.aps.power.size == 1
        assert scn.mts.fov.size == 1
        assert scn.params.b_v == 1e7
        assert scn.aps.half_angle[0] == pytest.approx(math.radians(60))
        assert scn.mts.fov[0] == pytest.approx(math.radians(70))

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
        assert link_geometry((2.0, 2.0, 3.0), (2.0, 2.0, 1.0)) == (2.0, 1.0)

    def test_oblique_link_matches_coordinate_oracle(self):
        # oracle: plain numpy vector arithmetic on the raw coordinates
        ap_pos = np.array([0.0, 0.0, 3.0])
        mt_pos = np.array([2.0, 0.0, 1.0])
        diff = ap_pos - mt_pos
        d_expect = np.linalg.norm(diff)
        cos_expect = diff[2] / d_expect

        d, cos_phi = link_geometry((0.0, 0.0, 3.0), (2.0, 0.0, 1.0))
        assert d == pytest.approx(d_expect, rel=1e-15)
        assert d == pytest.approx(math.sqrt(8), rel=1e-15)
        assert cos_phi == pytest.approx(cos_expect, rel=1e-15)
        assert cos_phi == pytest.approx(2 / math.sqrt(8), rel=1e-15)

    def test_ap_below_mt_is_degenerate(self):
        # link_geometry trusts the loader to put every AP above every MT
        doc = config_with()
        doc["aps"][0]["pos"] = [2.0, 2.0, 1.0]
        doc["mts"][0]["pos"] = [2.0, 2.0, 2.0]
        with pytest.raises(ConfigValidationError) as exc:
            load_scenario(json.dumps(doc))
        assert str(exc.value) == "aps[0].pos[2]: AP must be above MT mts[0]"

    @given(r=st.floats(0, 3), theta=st.floats(0, 2 * math.pi),
           dz=st.floats(0.5, 2.5))
    def test_rotation_about_ap_axis_is_invariant(self, r, theta, dz):
        ap = (0.0, 0.0, 3.0)
        base = link_geometry(ap, (r, 0.0, 3 - dz))
        rotated = link_geometry(
            ap, (r * math.cos(theta), r * math.sin(theta), 3 - dz))
        assert rotated[0] == pytest.approx(base[0], rel=1e-12)
        assert rotated[1] == pytest.approx(base[1], rel=1e-12)

    @given(x=st.floats(-3, 3), y=st.floats(-3, 3), dz=st.floats(0.1, 2.9))
    @example(x=0.0, y=0.0, dz=0.1143118198284669)
    def test_cosine_in_unit_interval_and_distance_bound(self, x, y, dz):
        ap, mt = (0.0, 0.0, 3.0), (x, y, 3 - dz)
        d, cos_phi = link_geometry(ap, mt)
        assert 0 < cos_phi <= 1
        # the drop the geometry sees, which rounds away from dz; since
        # sqrt(fl(x*x)) == |x|, the distance bounds it exactly
        drop = ap[2] - mt[2]
        assert d >= drop

    def test_batch_matches_link_by_link_reference(self):
        aps = [make_ap(0.5, 0.5, 3.0), make_ap(2.0, 2.0, 3.0),
               make_ap(4.8, 0.1, 2.5), make_ap(1.1, 3.3, 3.0)]
        mt = make_mt(2.2, 1.9, 1)
        d, cos_angle = link_geometry(make_scenario(aps=aps).aps.position,
                                     mt.position)
        assert list(zip(d.tolist(), cos_angle.tolist())) == [
            link_reference(ap, mt) for ap in aps]

    @pytest.mark.parametrize("bad, rule", [
        ((2.0, 2.0, 1.0), "AP and MT are colocated (zero link distance)"),
        ((3.0, 2.0, 1.0), "AP must be strictly above the MT plane"),
    ])
    def test_batch_names_the_first_bad_link(self, bad, rule):
        # the loader refuses an AP at the terminal's height, colocated or
        # not; a lower AP later in the list is not the one named
        doc = config_with()
        rows = [(2.0, 2.0, 3.0), bad, (1.0, 1.0, 3.0), (2.0, 2.0, 0.5)]
        doc["aps"] = [dict(doc["aps"][0], pos=list(pos)) for pos in rows]
        with pytest.raises(ConfigValidationError) as exc:
            load_scenario(json.dumps(doc))
        assert str(exc.value) == (
            "aps[1].pos[2]: AP must be above MT mts[0]"), rule


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
        scn = make_scenario(
            aps=[make_ap(0.5, 0.5, 3), make_ap(2, 2, 3), make_ap(4, 4, 3)],
            mts=[make_mt(2.2, 1.9, 1)])
        chosen = associate(scn, 0).serving
        gains = [channel_gain(ap, mt_rows(scn.mts)[0]).value
                 for ap in ap_rows(scn.aps)]
        assert gains[chosen] == max(gains)

    def test_link_sums_match_channel_gain_bitwise(self):
        scn = make_scenario(
            aps=[make_ap(0.5, 0.5, 3), make_ap(2, 2, 3), make_ap(4.8, 4.8, 3)],
            mts=[make_mt(2.2, 1.9, 1, fov=math.radians(55))])
        mt = mt_rows(scn.mts)[0]
        powers = [ap.power * channel_gain(ap, mt).value
                  for ap in ap_rows(scn.aps)]
        assoc = associate(scn, 0)
        assert assoc.serving == 1
        assert powers[0] > 0.0 and powers[2] == 0.0  # aps[2] outside the FOV
        assert assoc.a == powers[1]
        assert assoc.c == powers[0] + powers[2]

    def test_out_of_fov_ap_harvests_but_never_serves(self):
        # the choice in ``associate``'s docstring: an AP outside the FOV
        # adds nothing to c but its harvest term still counts in k2
        far = make_ap(0, 0, 3, power=30.0)   # ~73 deg off axis, fov 30 deg
        near = make_ap(4.5, 4.5, 3)
        mt = make_mt(4.5, 4.5, 1, fov=math.radians(30))
        scn = make_scenario(aps=[far, near], mts=[mt])
        assoc = associate(scn, 0)
        cos_phi = link_reference(far, mt)[1]
        term = harvest_term_reference(far, mt)
        assert cos_phi < math.cos(mt.fov)
        assert assoc.serving == 1
        assert assoc.c == 0.0
        assert assoc.k2 > 0.0
        scale = mt.conv_coeff * scn.params.t_d * mt.oe_efficiency
        assert assoc.k2 == pytest.approx(scale * term, rel=1e-12)


HALLS = [pytest.param(seed, heldout, id=f"hall-{seed}-{heldout}")
         for seed in (1, 2, 3) for heldout in (False, True)]


class TestAssociateReference:
    """The array pass against the AP-by-AP loop in Python floats."""

    @pytest.mark.parametrize("seed, heldout", HALLS)
    def test_every_hall_terminal_bit_for_bit(self, seed, heldout):
        # c and k2 as an explicit acc += x loop in AP order adds them
        scn = load_scenario(json.dumps(generate_hall(seed, heldout, 16, 16,
                                                     24)))
        assert scn.mts.fov.size == 16
        for j in range(16):
            assert repr(associate(scn, j)) == repr(associate_reference(scn, j))

    @pytest.mark.parametrize("name", ["two_ap_room", "single_ap_room"])
    def test_shipped_configs_bit_for_bit(self, name):
        scn = load_scenario((CONFIG_DIR / f"{name}.json").read_text())
        assert repr(associate(scn, 0)) == repr(associate_reference(scn, 0))

    def test_many_ap_link_sums_add_left_to_right(self):
        # twelve APs round the serving one, the first 1e5 times as strong:
        # np.sum adds 8 or more terms in pairs, and math.fsum (as Python
        # 3.12's sum) compensates, and each rounds these sums differently
        aps = [make_ap()] + [
            make_ap(2.0 + 1.5 * math.cos(k), 2.0 + 1.5 * math.sin(k),
                    power=1e5 if k == 0 else 1.0) for k in range(12)]
        scn = make_scenario(aps=aps, mts=[make_mt(fov=math.radians(89))])
        mt = mt_rows(scn.mts)[0]
        others = ap_rows(scn.aps)[1:]
        for values in ([ap.power * channel_gain(ap, mt).value
                        for ap in others],
                       [harvest_term_reference(ap, mt) for ap in others]):
            in_sequence = 0.0
            for value in values:
                in_sequence += value
            assert in_sequence != np.sum(values)
            assert in_sequence != math.fsum(values)
        assert associate(scn, 0).serving == 0
        assert repr(associate(scn, 0)) == repr(associate_reference(scn, 0))


# Every single-fault config, with the field and message it must report.  Two
# APs, two MTs and two sweep bandwidths, so the fault sits at index 1.
TWO_OF_EACH = dict(
    MINIMAL,
    aps=MINIMAL["aps"] + [dict(MINIMAL["aps"][0], pos=[1.0, 1.0, 3.0])],
    mts=MINIMAL["mts"] + [dict(MINIMAL["mts"][0], pos=[3.0, 3.0, 1.0])],
    sweep={"B_v": [5e6, 1e7]},
)
DELETE = object()
HUGE = 10 ** 400        # an integer literal no float can hold
TINY = 5e-324           # the least positive float
BELOW_1 = math.nextafter(1.0, 0.0)
ABOVE_1 = math.nextafter(1.0, 2.0)
BELOW_90 = math.nextafter(90.0, 0.0)
ABOVE_90 = math.nextafter(90.0, 100.0)
ABOVE_4 = math.nextafter(4.0, 5.0)     # just past the 4 m room side
# the least half angle [deg] whose cosine, in radians, rounds below 1
LEAST_HALF_ANGLE = 6.037091348628667e-07
# the least FOV [deg] whose sine, in radians, squares to more than 0
LEAST_FOV = 9.005336860690714e-161

# (section, key, loaded attribute, range message, just outside, just inside);
# a room side just inside its bound would leave the entries outside the room
FIELDS = [
    ("room", "x", None, "must be > 0", [0, -TINY], []),
    ("room", "y", None, "must be > 0", [0, -TINY], []),
    ("room", "z", None, "must be > 0", [0, -TINY], []),
    ("params", "B_v", "b_v", "must be > 0", [0, -TINY], [TINY]),
    ("params", "B_r", "b_r", "must be > 0", [0, -TINY], [TINY]),
    ("params", "N0", "n0", "must be > 0", [0, -TINY], [TINY]),
    ("params", "T_d", "t_d", "must be > 0", [0, -TINY], [TINY]),
    ("params", "T_u", "t_u", "must be > 0", [0, -TINY], [TINY]),
    ("aps", "P_T", "power", "must be >= 0", [-TINY], [0, TINY]),
    ("aps", "half_angle_deg", "half_angle", "must be in (0, 90)",
     [0, 90], [LEAST_HALF_ANGLE, BELOW_90]),
    ("mts", "A", "area", "must be > 0", [0, -TINY], [TINY]),
    ("mts", "rho", "responsivity", "must be > 0", [0, -TINY], [TINY]),
    ("mts", "T_s", "filter_gain", "must be > 0", [0, -TINY], [TINY]),
    ("mts", "n_c", "refractive_index", "must be >= 1", [BELOW_1], [1]),
    ("mts", "fov_deg", "fov", "must be in (0, 90]",
     [0, ABOVE_90], [LEAST_FOV, 90]),
    ("mts", "C_jRF", "conv_coeff", "must be in (0, 1]",
     [0, ABOVE_1], [TINY, 1]),
    ("mts", "rho_j", "oe_efficiency", "must be in (0, 1]",
     [0, ABOVE_1], [TINY, 1]),
    ("mts", "pathloss_exp", "pathloss_exp", None, [], [-1e300, 0, 1e300]),
    ("mts", "rician_K", "rician_k", "must be >= 0", [-TINY], [0]),
    ("mts", "rician_omega", "rician_omega", "must be > 0", [0, -TINY],
     [TINY]),
    ("mts", "rf_distance", "rf_distance", "must be > 0", [0, -TINY], [TINY]),
]


def _where(section, key):
    return (section, 1, key) if section in ("aps", "mts") else (section, key)


def _dotted(where):
    text = ""
    for part in where:
        text += f"[{part}]" if isinstance(part, int) else f".{part}"
    return text.lstrip(".")


def _fault_cases():
    cases = []

    def case(where, value, field, message, name):
        cases.append(pytest.param(where, value, field, message, id=name))

    for section, key, _, bound_message, outside, _ in FIELDS:
        where = _where(section, key)
        field = _dotted(where)
        for name, value, message in [
                ("missing", DELETE, "missing"),
                ("bool", True, "must be a number"),
                ("string", "1", "must be a number"),
                ("null", None, "must be a number"),
                ("nan", math.nan, "must be finite"),
                ("inf", math.inf, "must be finite"),
                ("-inf", -math.inf, "must be finite"),
                ("huge", HUGE, "must be finite"),
                ("-huge", -HUGE, "must be finite")]:
            case(where, value, field, message, f"{field}-{name}")
        for value in outside:
            case(where, value, field, bound_message, f"{field}={value!r}")

    for section in ("aps", "mts"):
        where = (section, 1, "pos")
        field = f"{section}[1].pos"
        for name, value in [("missing", DELETE), ("string", "1,1,1"),
                            ("object", {}), ("short", [1.0, 1.0]),
                            ("long", [1.0, 1.0, 1.0, 1.0])]:
            case(where, value, field, "missing" if value is DELETE
                 else "must be a list of 3 numbers", f"{field}-{name}")
        for name, value, k in [("bool", [True, 1.0, 1.0], 0),
                               ("string", [1.0, "1", 1.0], 1),
                               ("null", [1.0, 1.0, None], 2),
                               ("nan", [math.nan, 1.0, 1.0], 0),
                               ("inf", [1.0, math.inf, 1.0], 1),
                               ("huge", [1.0, 1.0, HUGE], 2),
                               ("-huge", [-HUGE, 1.0, 1.0], 0)]:
            case(where, value, f"{field}[{k}]", "must be a finite number",
                 f"{field}-{name}")
        case(where, [1.0, 1.0, -TINY], f"{field}[2]", "z must be >= 0",
             f"{field}-below-floor")
        for value in ([-TINY, 1.0, 1.0], [1.0, -TINY, 1.0],
                      [ABOVE_4, 1.0, 1.0], [1.0, ABOVE_4, 1.0],
                      [1.0, 1.0, math.nextafter(3.0, 4.0)]):
            case(where, value, field, "position outside room bounds",
                 f"{field}={value!r}")

    # in range, but too small for the Lambertian order: 5e-324 degrees is 0
    # radians, the float below LEAST_HALF_ANGLE has a cosine of 1
    for value in (TINY, math.nextafter(LEAST_HALF_ANGLE, 0.0)):
        case(("aps", 1, "half_angle_deg"), value, "aps[1].half_angle_deg",
             "too small: its cosine rounds to 1",
             f"aps[1].half_angle_deg={value!r}")
    # likewise for the concentrator gain: 5e-324 degrees is 0 radians, the
    # float below LEAST_FOV has a sine that squares to 0
    for value in (TINY, 1e-300, math.nextafter(LEAST_FOV, 0.0)):
        case(("mts", 1, "fov_deg"), value, "mts[1].fov_deg",
             "too small: its sine squared rounds to 0",
             f"mts[1].fov_deg={value!r}")

    for where, field in [((), "<root>"), (("room",), "room"),
                         (("params",), "params"), (("aps", 1), "aps[1]"),
                         (("mts", 1), "mts[1]"), (("sweep",), "sweep")]:
        case(where + ("zz",), 1, field, "unknown keys ['zz']",
             f"{field}-unknown")
    case(("mts", 1, "a_extra"), 1, "mts[1]", "unknown keys ['a_extra']",
         "mts[1]-unknown-sorted")

    for section in ("room", "params", "aps", "mts"):
        case((section,), DELETE, section, "missing", f"{section}-missing")
    for section in ("room", "params"):
        case((section,), [], section, "must be an object", f"{section}-list")
    for section in ("aps", "mts"):
        for name, value in [("empty", []), ("object", {}), ("number", 1)]:
            case((section,), value, section, "must be a non-empty list",
                 f"{section}-{name}")
        case((section, 1), 5, f"{section}[1]", "must be an object",
             f"{section}[1]-number")

    case(("sweep",), [], "sweep", "must be an object", "sweep-list")
    for name, value in [("empty", []), ("number", 5e6)]:
        case(("sweep", "B_v"), value, "sweep.B_v", "must be a non-empty list",
             f"sweep.B_v-{name}")
    for name, value in [("zero", 0), ("negative", -TINY), ("bool", True),
                        ("string", "1"), ("null", None), ("nan", math.nan),
                        ("inf", math.inf), ("huge", HUGE)]:
        case(("sweep", "B_v", 1), value, "sweep.B_v[1]",
             "must be a positive number", f"sweep.B_v[1]-{name}")
    return cases


def _patched(where, value):
    doc = copy.deepcopy(TWO_OF_EACH)
    target = doc
    for part in where[:-1]:
        target = target[part]
    if where == ():
        return value
    if value is DELETE:
        del target[where[-1]]
    else:
        target[where[-1]] = value
    return doc


class TestFaultTable:
    """One fault per config: the loader names the field and the broken rule."""

    def test_base_config_loads(self):
        scn = load_scenario(json.dumps(TWO_OF_EACH))
        assert (scn.aps.power.size, scn.mts.fov.size, scn.bv_sweep) == (
            2, 2, (5e6, 1e7))

    @pytest.mark.parametrize("where, value, field, message", _fault_cases())
    def test_single_fault(self, where, value, field, message):
        with pytest.raises(ConfigValidationError) as exc:
            load_scenario(json.dumps(_patched(where, value)))
        assert exc.value.field == field
        assert str(exc.value) == f"{field}: {message}"

    def test_integer_past_digit_limit(self):
        # json.loads refuses to make an int of more than 4300 digits
        text = json.dumps(TWO_OF_EACH).replace(
            '"P_T": 3.0', '"P_T": ' + "1" * 5000)
        with pytest.raises(ConfigValidationError) as exc:
            load_scenario(text)
        assert str(exc.value) == "aps[0].P_T: must be finite"

    def test_root_not_an_object(self):
        with pytest.raises(ConfigValidationError) as exc:
            load_scenario("[]")
        assert str(exc.value) == "<root>: must be a JSON object"

    @pytest.mark.parametrize("section, key, attr, value", [
        pytest.param(section, key, attr, value,
                     id=f"{section}.{key}={value!r}")
        for section, key, attr, _, _, inside in FIELDS for value in inside])
    def test_bound_just_inside_loads(self, section, key, attr, value):
        scn = load_scenario(json.dumps(_patched(_where(section, key), value)))
        if section == "params":
            loaded = getattr(scn.params, attr)
        else:
            loaded = getattr(getattr(scn, section), attr).tolist()[1]
        expect = math.radians(value) if key.endswith("_deg") else float(value)
        assert loaded == expect
        assert type(loaded) is float


class TestApArrayPath:
    """The array checks of a 256-AP hall name the first bad AP as the walker.

    aps[200] carries an unknown key, which the walker checks before any
    field, so a check that ran fault kind by fault kind over all APs would
    name aps[200] instead.
    """

    @pytest.mark.parametrize("fault, error", [
        (lambda ap: ap.pop("P_T"), "aps[17].P_T: missing"),
        (lambda ap: ap.update(zz=1.0), "aps[17]: unknown keys ['zz']"),
        (lambda ap: ap.update(P_T=True), "aps[17].P_T: must be a number"),
        (lambda ap: ap.update(half_angle_deg="60"),
         "aps[17].half_angle_deg: must be a number"),
        (lambda ap: ap["pos"].__setitem__(1, math.nan),
         "aps[17].pos[1]: must be a finite number"),
        (lambda ap: ap.update(half_angle_deg=90.0),
         "aps[17].half_angle_deg: must be in (0, 90)"),
        (lambda ap: ap["pos"].__setitem__(0, 40.0 + 1e-9),
         "aps[17].pos: position outside room bounds"),
    ], ids=["missing", "unknown", "bool", "string", "nan", "out-of-range",
            "outside-room"])
    def test_names_the_first_bad_ap(self, fault, error):
        doc = generate_hall(2, False, 16, 16, 24)
        assert len(doc["aps"]) == 256 and doc["room"]["x"] == 40.0
        fault(doc["aps"][17])
        doc["aps"][200]["yy"] = 1.0
        with pytest.raises(ConfigValidationError) as exc:
            load_scenario(json.dumps(doc))
        assert str(exc.value) == error

    @pytest.mark.parametrize("second, error", [
        ({"half_angle_deg": 1e-9},
         "aps[17].half_angle_deg: too small: its cosine rounds to 1"),
        ({"P_T": -1.0}, "aps[200].P_T: must be >= 0"),
    ], ids=["both-too-small", "field-fault-first"])
    def test_too_small_after_every_field(self, second, error):
        # the order is checked once every AP's fields have passed
        doc = generate_hall(2, False, 16, 16, 24)
        doc["aps"][17]["half_angle_deg"] = 1e-7
        doc["aps"][200].update(second)
        with pytest.raises(ConfigValidationError) as exc:
            load_scenario(json.dumps(doc))
        assert str(exc.value) == error

    def test_loaded_columns_match_the_walker(self):
        # every AP and MT value as the row walker reads it, in radians
        text = json.dumps(generate_hall(1, True, 16, 16, 24))
        scn = load_scenario(text)
        doc = json.loads(text, parse_int=float)
        room = tuple(doc["room"][k] for k in "xyz")
        for section, table, rows in [("aps", _AP, ap_rows(scn.aps)),
                                     ("mts", _MT, mt_rows(scn.mts))]:
            walked = _entries(doc[section], table, section, room)
            assert rows == [tuple(kw[name] for name in rows[0]._fields)
                            for kw in walked]
        assert all(not column.flags.writeable for column in (
            scn.aps.position, scn.aps.power, scn.aps.half_angle, scn.aps.m,
            scn.mts.position, scn.mts.fov, scn.mts.rf_distance, scn.mts.g))


def test_table_refuses_a_column_it_has_no_field_for():
    # nor a column it works out itself, nor too few
    position = [[2.0, 2.0, 3.0]]
    with pytest.raises(TypeError, match="unexpected keyword argument 'area'"):
        ApTable(position, power=[3.0], half_angle=[1.0], area=[1.0])
    with pytest.raises(TypeError, match="unexpected keyword argument 'm'"):
        ApTable(position, power=[3.0], half_angle=[1.0], m=[1.0])
    with pytest.raises(TypeError, match="missing 1 required positional "
                       "argument: 'half_angle'"):
        ApTable(position, power=[3.0])


class TestMtArrayPath:
    """The array checks of a 16-MT hall name the first bad MT as the walker.

    mts[11] carries an unknown key, which the walker checks before any
    field, so a check that ran fault kind by fault kind over all MTs would
    name mts[11] instead.
    """

    @pytest.mark.parametrize("fault, error", [
        (lambda mt: mt.pop("rho"), "mts[3].rho: missing"),
        (lambda mt: mt.update(zz=1.0), "mts[3]: unknown keys ['zz']"),
        (lambda mt: mt.update(rician_K=True),
         "mts[3].rician_K: must be a number"),
        (lambda mt: mt.update(fov_deg="60"),
         "mts[3].fov_deg: must be a number"),
        (lambda mt: mt.update(pathloss_exp=math.nan),
         "mts[3].pathloss_exp: must be finite"),
        (lambda mt: mt.update(C_jRF=ABOVE_1),
         "mts[3].C_jRF: must be in (0, 1]"),
        (lambda mt: mt["pos"].__setitem__(1, 40.0 + 1e-9),
         "mts[3].pos: position outside room bounds"),
    ], ids=["missing", "unknown", "bool", "string", "nan", "out-of-range",
            "outside-room"])
    def test_names_the_first_bad_mt(self, fault, error):
        doc = generate_hall(2, False, 16, 16, 24)
        assert len(doc["mts"]) == 16 and doc["room"]["y"] == 40.0
        fault(doc["mts"][3])
        doc["mts"][11]["yy"] = 1.0
        with pytest.raises(ConfigValidationError) as exc:
            load_scenario(json.dumps(doc))
        assert str(exc.value) == error

    @pytest.mark.parametrize("second, error", [
        ({"fov_deg": 1e-200},
         "mts[3].fov_deg: too small: its sine squared rounds to 0"),
        ({"rho": -1.0}, "mts[11].rho: must be > 0"),
    ], ids=["both-too-small", "field-fault-first"])
    def test_too_small_after_every_field(self, second, error):
        # the concentrator gain is checked once every MT's fields have passed
        doc = generate_hall(2, False, 16, 16, 24)
        doc["mts"][3]["fov_deg"] = 1e-170
        doc["mts"][11].update(second)
        with pytest.raises(ConfigValidationError) as exc:
            load_scenario(json.dumps(doc))
        assert str(exc.value) == error
