"""Metamorphic properties of the association: a hall and a changed copy of
it that must agree.

The halls are small ones shaped like the benchmark's room-dense hall
(``bench/workloads.py::generate_hall``): one to nine APs on a 2.5 m grid
and up to three terminals, each inside some AP's field of view.  Each
property compares every terminal's serving AP, its received power ``a``
and the closed-form ``alpha*`` at ``h_sq = 1`` across the two configs.
"""

import copy
import json
import math
import sys
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hrvlc import (associate, load_scenario, reduce_coefficients,
                   solve_closed_form)
from hrvlc.scenario import link_geometry

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import generate_hall  # noqa: E402

halls = st.builds(generate_hall, seed=st.integers(0, 2 ** 32 - 1),
                  heldout=st.booleans(), grid=st.integers(1, 3),
                  n_mts=st.integers(1, 3), n_bv=st.just(2))

# A mirrored coordinate ``side - x`` rounds once, which can move a link's
# d*d by up to 2*side*ulp(side)/dz**2 relative: about 13 ulp in a 7.5 m
# hall, and the gain goes as 1/d**4.  alpha* lies in [0, 1], so its ulps
# are those of 1.0.  Over 300 seeded halls the largest moves were 9 ulp of
# ``a`` and 7 of ``alpha*``.
ULPS = 32


def optima(doc):
    """(serving AP, a, alpha*) of each terminal of the hall ``doc``."""
    scn = load_scenario(json.dumps(doc))
    rows = []
    for j in range(len(doc["mts"])):
        assoc = associate(scn, j)
        coeffs = reduce_coefficients(scn, j, assoc, 1.0)
        rows.append((assoc.serving, assoc.a,
                     float(solve_closed_form(coeffs).alpha)))
    return rows


def assert_same_optima(before, after, ap_index):
    """The optima agree, with AP ``i`` of ``after`` being AP
    ``ap_index[i]`` of ``before``; a serving AP may differ only at a tie
    of ``a``."""
    for (serving, a, alpha), (serving_2, a_2, alpha_2) in zip(before, after):
        assert abs(a_2 - a) <= ULPS * np.spacing(a)
        assert abs(alpha_2 - alpha) <= ULPS * np.spacing(1.0)
        assert ap_index[serving_2] == serving or a_2 == a


@settings(max_examples=25, deadline=None)
@given(halls, *[st.floats(0.1, 10.0)] * 3)
def test_bandwidths_and_noise_leave_the_association_bit_identical(
        doc, b_v, n0, b_r):
    changed = copy.deepcopy(doc)
    changed["params"]["B_v"] *= b_v
    changed["params"]["N0"] *= n0
    changed["params"]["B_r"] *= b_r
    before, after = (load_scenario(json.dumps(d)) for d in (doc, changed))
    for j in range(len(doc["mts"])):
        old, new = associate(before, j), associate(after, j)
        assert new.serving == old.serving
        assert [float(v).hex() for v in (new.a, new.c, new.k1, new.k2)] == [
            float(v).hex() for v in (old.a, old.c, old.k1, old.k2)]


@settings(max_examples=25, deadline=None)
@given(halls, st.data())
def test_permuting_the_aps_keeps_the_optima(doc, data):
    order = data.draw(st.permutations(range(len(doc["aps"]))))
    permuted = copy.deepcopy(doc)
    permuted["aps"] = [doc["aps"][i] for i in order]
    assert_same_optima(optima(doc), optima(permuted), order)


@settings(max_examples=25, deadline=None)
@given(halls, st.sampled_from("xy"))
def test_mirroring_the_room_keeps_the_optima(doc, axis):
    mirrored = copy.deepcopy(doc)
    side, k = doc["room"][axis], "xy".index(axis)
    for device in mirrored["aps"] + mirrored["mts"]:
        device["pos"][k] = side - device["pos"][k]
    assert_same_optima(optima(doc), optima(mirrored),
                       range(len(doc["aps"])))


@settings(max_examples=25, deadline=None)
@given(halls, st.data())
def test_a_dark_ap_outside_the_fov_changes_nothing(doc, data):
    # an AP with P_T = 0 outside a terminal's FOV adds a zero to each of its
    # link sums, wherever it is inserted; an AP in the FOV can serve today.
    # It hangs anywhere above the terminals, so often at a wide angle
    room, top = doc["room"], max(mt["pos"][2] for mt in doc["mts"])
    x, y, z = (data.draw(st.floats(0.01, 1.0)) for _ in "xyz")
    index = data.draw(st.integers(0, len(doc["aps"])))
    changed = copy.deepcopy(doc)
    changed["aps"].insert(index, {
        "pos": [room["x"] * x, room["y"] * y, top + (room["z"] - top) * z],
        "P_T": 0.0, "half_angle_deg": 60.0})
    before, after = (load_scenario(json.dumps(d)) for d in (doc, changed))
    _, cos_angle = link_geometry(after.aps.position[index],
                                 after.mts.position)
    outside = [j for j, fov in enumerate(after.mts.fov.tolist())
               if cos_angle[j] < math.cos(fov)]
    assume(outside)
    for j in outside:
        old, new = associate(before, j), associate(after, j)
        assert new.serving == old.serving + (old.serving >= index)
        assert [float(v).hex() for v in (new.a, new.c, new.k1, new.k2)] == [
            float(v).hex() for v in (old.a, old.c, old.k1, old.k2)]
        old_res, new_res = (
            solve_closed_form(reduce_coefficients(scn, j, assoc, 1.0))
            for scn, assoc in ((before, old), (after, new)))
        assert [float(v).hex() for v in (new_res.alpha, new_res.rate)] == [
            float(v).hex() for v in (old_res.alpha, old_res.rate)]
