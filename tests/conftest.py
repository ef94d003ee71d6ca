import math
from pathlib import Path

import pytest

from hrvlc.objective import ReducedCoefficients
from hrvlc.scenario import ApTable, MtTable, Scenario, SystemParams

from oracles import Ap, Mt

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture
def two_ap_config():
    return CONFIG_DIR / "two_ap_room.json"


@pytest.fixture
def single_ap_config():
    return CONFIG_DIR / "single_ap_room.json"


def make_ap(x=2.0, y=2.0, z=3.0, power=3.0, half_angle=math.radians(60)):
    return Ap((x, y, z), power, half_angle)


def make_aps(aps):
    """The ``ApTable`` of ``Ap`` rows."""
    return ApTable(**dict(zip(Ap._fields, zip(*aps))))


def make_mt(x=2.0, y=2.0, z=1.0, **over):
    fields = dict(
        area=1e-4, responsivity=0.4, filter_gain=1.0, refractive_index=1.5,
        fov=math.radians(70), conv_coeff=0.5, oe_efficiency=0.75,
        pathloss_exp=2.5, rician_k=3.0, rician_omega=1.0, rf_distance=4.0)
    fields.update(over)
    return Mt(position=(x, y, z), **fields)


def make_mts(mts):
    """The ``MtTable`` of ``Mt`` rows."""
    return MtTable(**dict(zip(Mt._fields, zip(*mts))))


def make_params(**over):
    fields = dict(b_v=1e7, b_r=1.4e7, n0=4e-21, t_d=0.5, t_u=0.5)
    fields.update(over)
    return SystemParams(**fields)


def make_scenario(aps=None, mts=None, params=None):
    return Scenario(
        aps=make_aps(aps if aps is not None else [make_ap()]),
        mts=make_mts(mts if mts is not None else [make_mt()]),
        params=params if params is not None else make_params(),
    )


def make_coeffs(**over):
    fields = dict(a=3.0, b=1.0, c=0.0, d=4.0, e=0.0, g=1.0, b1=1.0, b2=1.0)
    fields.update(over)
    return ReducedCoefficients(**fields)


def random_coeffs(rng, force=None, noise_limited=False):
    """Physically plausible random coefficient set, log-uniform magnitudes.

    force='a0' zeros the downlink signal, force='d0' the harvest slope.
    noise_limited=True draws the uplink noise g as d times 10**[-3, 3], in
    place of 10**[-20, -14], from the same draw of the generator.
    """
    b1 = 10.0 ** rng.uniform(6, 8)
    b2 = 10.0 ** rng.uniform(6, 8)
    b = 10.0 ** rng.uniform(-16, -12)
    c = b * 10.0 ** rng.uniform(-3, 3)
    a = (b + c) * 10.0 ** rng.uniform(-2, 6)
    d = 10.0 ** rng.uniform(-6, 2)
    e = d * 10.0 ** rng.uniform(-4, 1)
    g = (d * 10.0 ** rng.uniform(-3, 3) if noise_limited
         else 10.0 ** rng.uniform(-20, -14))
    if force == "a0":
        a = 0.0
    elif force == "d0":
        d = 0.0
        e = 0.0
    return ReducedCoefficients(a=a, b=b, c=c, d=d, e=e, g=g, b1=b1, b2=b2)
