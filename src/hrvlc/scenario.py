"""Room geometry, device parameters, the Lambertian line-of-sight channel
and static serving-AP association.

All angles inside the package are radians; config files carry degrees and
are converted on load.  Scenario objects are frozen dataclasses, safe for
concurrent read access.
"""

import json
import math
from dataclasses import dataclass

from .errors import (
    ConfigParseError,
    ConfigValidationError,
    GeometryError,
    NoCoverageError,
)
from .harvest_uplink import _harvest_term


@dataclass(frozen=True)
class Point3:
    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise ValueError("coordinates must be finite")
        if self.z < 0:
            raise ValueError("z must be >= 0")


@dataclass(frozen=True)
class VlcAp:
    """Ceiling LED luminaire acting as a downlink access point."""

    position: Point3
    power: float          # optical transmit power [W]
    half_angle: float     # half-intensity semi-angle [rad]


@dataclass(frozen=True)
class MobileTerminal:
    """User device: photodiode receiver, light harvester, RF transmitter."""

    position: Point3
    area: float             # photodiode area [m^2]
    responsivity: float     # optical channel efficiency factor
    filter_gain: float      # optical filter gain T_s
    refractive_index: float  # concentrator refractive index
    fov: float              # receiver field of view [rad]
    conv_coeff: float       # optical-to-RF power conversion coefficient
    oe_efficiency: float    # optical-to-electrical conversion efficiency
    pathloss_exp: float     # RF uplink path-loss exponent
    rician_k: float         # Rician factor of the uplink fade
    rician_omega: float     # mean square value of the fade envelope
    rf_distance: float      # MT to RF AP distance [m]


@dataclass(frozen=True)
class SystemParams:
    b_v: float   # VLC bandwidth [Hz]
    b_r: float   # RF bandwidth [Hz]
    n0: float    # noise PSD [W/Hz]
    t_d: float   # downlink slot [s]
    t_u: float   # uplink slot [s]


@dataclass(frozen=True)
class Association:
    """One MT's serving AP and link sums; E_H(alpha) = (1 - alpha)*k1 + k2."""

    serving: int   # index of the serving AP
    a: float       # serving-AP received power P_T*G
    c: float       # power-weighted interference sum
    k1: float      # serving-AP harvest coefficient
    k2: float      # interferer harvest coefficient, over the whole slot


@dataclass(frozen=True)
class Scenario:
    room: tuple              # (x, y, z) extents [m]
    aps: tuple               # VlcAp, ...
    mts: tuple               # MobileTerminal, ...
    params: SystemParams
    bv_sweep: tuple = ()     # optional VLC bandwidths for convergence studies


def _table(*rows):
    """``{key: (field, lo, hi, message, degrees)}`` of (key, field, range) rows.

    A range is written as its error message writes it: "> 0", ">= 1" or an
    interval such as "(0, 90]"; None admits any finite value.  An open bound
    is stored as the nearest float inside it, so ``lo <= value <= hi``
    checks either kind.  Keys ending in ``_deg`` carry degrees and load as
    radians.
    """
    table = {}
    for key, field, valid in rows:
        lo, hi, message = -math.inf, math.inf, None
        if valid is not None and valid[0] == ">":
            op, bound = valid.split()
            lo = float(bound)
            if op == ">":
                lo = math.nextafter(lo, math.inf)
            message = f"must be {valid}"
        elif valid is not None:
            lo, hi = (float(b) for b in valid[1:-1].split(","))
            if valid[0] == "(":
                lo = math.nextafter(lo, math.inf)
            if valid[-1] == ")":
                hi = math.nextafter(hi, -math.inf)
            message = f"must be in {valid}"
        table[key] = (field, lo, hi, message, key.endswith("_deg"))
    return table


# One table per section, checked in row order.  An AP or MT checks its
# ``pos`` first: three finite coordinates inside the room (see _position).
_ROOM = _table(*((k, k, "> 0") for k in ("x", "y", "z")))
_PARAMS = _table(*((k, k.lower(), "> 0")
                   for k in ("B_v", "B_r", "N0", "T_d", "T_u")))
_AP = {"pos": None} | _table(
    ("P_T", "power", ">= 0"),
    ("half_angle_deg", "half_angle", "(0, 90)"),
)
_MT = {"pos": None} | _table(
    ("A", "area", "> 0"),
    ("rho", "responsivity", "> 0"),
    ("T_s", "filter_gain", "> 0"),
    ("n_c", "refractive_index", ">= 1"),
    ("fov_deg", "fov", "(0, 90]"),
    ("C_jRF", "conv_coeff", "(0, 1]"),
    ("rho_j", "oe_efficiency", "(0, 1]"),
    ("pathloss_exp", "pathloss_exp", None),
    ("rician_K", "rician_k", ">= 0"),
    ("rician_omega", "rician_omega", "> 0"),
    ("rf_distance", "rf_distance", "> 0"),
)


def _invalid(section, index, suffix, message):
    # the dotted path is built here, once a check has failed
    path = section if index is None else f"{section}[{index}]"
    return ConfigValidationError(path + suffix, message)


def _keys(obj, allowed, section, index=None, kind="an object"):
    if not isinstance(obj, dict):
        raise _invalid(section, index, "", f"must be {kind}")
    unknown = obj.keys() - allowed
    if unknown:
        raise _invalid(section, index, "", f"unknown keys {sorted(unknown)}")


def _fields(obj, table, section, index=None, room=None):
    """Dataclass keyword arguments of one config object, checked row by row."""
    _keys(obj, table.keys(), section, index)
    kwargs = {}
    for key, rule in table.items():
        if key not in obj:
            raise _invalid(section, index, f".{key}", "missing")
        if rule is None:
            kwargs["position"] = _position(obj[key], room, section, index)
            continue
        field, lo, hi, message, degrees = rule
        value = obj[key]
        if type(value) is not float:  # any JSON number parses as a float
            raise _invalid(section, index, f".{key}", "must be a number")
        if not math.isfinite(value):
            raise _invalid(section, index, f".{key}", "must be finite")
        if not lo <= value <= hi:
            raise _invalid(section, index, f".{key}", message)
        kwargs[field] = math.radians(value) if degrees else value
    return kwargs


def _position(pos, room, section, index):
    """Point3 of a ``pos``: three finite coordinates inside the room."""
    if not (isinstance(pos, list) and len(pos) == 3):
        raise _invalid(section, index, ".pos", "must be a list of 3 numbers")
    for k, v in enumerate(pos):
        if type(v) is not float or not math.isfinite(v):
            raise _invalid(section, index, f".pos[{k}]",
                           "must be a finite number")
    x, y, z = pos
    if z < 0:
        raise _invalid(section, index, ".pos[2]", "z must be >= 0")
    if not (0 <= x <= room[0] and 0 <= y <= room[1] and z <= room[2]):
        raise _invalid(section, index, ".pos", "position outside room bounds")
    return Point3(x, y, z)


def _entries(entries, table, section, room):
    if not (isinstance(entries, list) and entries):
        raise ConfigValidationError(section, "must be a non-empty list")
    return [_fields(entry, table, section, i, room)
            for i, entry in enumerate(entries)]


def load_scenario(config_text):
    """Parse and validate a JSON scenario document.

    Raises ConfigParseError on malformed or too deeply nested JSON and
    ConfigValidationError (with the dotted field path) on the first
    invariant violation: sections in the order room, params, aps, mts,
    sweep, each entry's fields in the order of its table above.
    """
    try:
        # an integer is read as the float nearest it, so one too large for a
        # float is inf, as 1e400 is; int() would refuse 4301 digits or more
        doc = json.loads(config_text, parse_int=float)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigParseError(f"invalid JSON: {exc}") from exc
    _keys(doc, {"room", "params", "aps", "mts", "sweep"}, "<root>",
          kind="a JSON object")
    for key in ("room", "params", "aps", "mts"):
        if key not in doc:
            raise ConfigValidationError(key, "missing")

    room = tuple(_fields(doc["room"], _ROOM, "room").values())
    params = SystemParams(**_fields(doc["params"], _PARAMS, "params"))
    aps = tuple(VlcAp(**kw) for kw in _entries(doc["aps"], _AP, "aps", room))
    mts = tuple(MobileTerminal(**kw)
                for kw in _entries(doc["mts"], _MT, "mts", room))

    # every AP above the highest MT; name the first MT a low AP fails
    top = max(mt.position.z for mt in mts)
    for i, ap in enumerate(aps):
        if ap.position.z <= top:
            j = next(j for j, mt in enumerate(mts)
                     if mt.position.z >= ap.position.z)
            raise ConfigValidationError(f"aps[{i}].pos[2]",
                                        f"AP must be above MT mts[{j}]")

    sweep = doc.get("sweep", {})
    _keys(sweep, {"B_v"}, "sweep")
    bv_sweep = ()
    if "B_v" in sweep:
        values = sweep["B_v"]
        if not (isinstance(values, list) and values):
            raise ConfigValidationError("sweep.B_v",
                                        "must be a non-empty list")
        for i, v in enumerate(values):
            if type(v) is not float or not 0 < v < math.inf:
                raise ConfigValidationError(f"sweep.B_v[{i}]",
                                            "must be a positive number")
        bv_sweep = tuple(values)

    return Scenario(room=room, aps=aps, mts=mts, params=params,
                    bv_sweep=bv_sweep)


def link_geometry(ap, mt):
    """Distance and the irradiance/incidence cosine of an AP-to-MT link.

    APs point straight down and the photodiode faces straight up, so the
    irradiance and incidence angles coincide and their one cosine is the
    vertical drop over the Euclidean distance.
    """
    dx = ap.position.x - mt.position.x
    dy = ap.position.y - mt.position.y
    dz = ap.position.z - mt.position.z
    d = math.sqrt(dx * dx + dy * dy + dz * dz)
    if d == 0:
        raise GeometryError("AP and MT are colocated (zero link distance)")
    if dz <= 0:
        raise GeometryError("AP must be strictly above the MT plane")
    cos_angle = dz / d
    return d, cos_angle


def _lambertian_order(half_angle):
    """Lambertian emission order m = -1/log2(cos(half_angle))."""
    if not 0 < half_angle < math.pi / 2:
        raise ValueError("half_angle must be in (0, pi/2)")
    return -1.0 / math.log2(math.cos(half_angle))


def _concentrator_gain(n_c, fov):
    """Optical concentrator gain n_c^2 / sin^2(fov)."""
    if n_c < 1:
        raise ValueError("refractive index must be >= 1")
    if not 0 < fov <= math.pi / 2:
        raise ValueError("fov must be in (0, pi/2]")
    return n_c * n_c / math.sin(fov) ** 2


def _los_gain(mt, g, m, d, cos_angle):
    """Gain of an in-FOV link of order m; g is the concentrator gain."""
    return ((m + 1.0) * mt.area * mt.responsivity * cos_angle ** m * cos_angle
            * mt.filter_gain * g) / (2.0 * math.pi * d * d)


def associate(scn, mt_index):
    """Serving AP of one MT and its link sums, in one pass over the APs.

    The serving AP has the strongest in-FOV channel gain, ties to the lowest
    index.  ``c`` sums P_T*G over the other APs, so an AP outside the FOV
    (G = 0) adds nothing; ``k2`` sums the harvest term over the other APs
    whether inside the FOV or not.
    """
    mt = scn.mts[mt_index]
    cos_fov = math.cos(mt.fov)
    g = _concentrator_gain(mt.refractive_index, mt.fov)
    best_index = None
    best_gain = 0.0
    powers, terms = [], []
    for i, ap in enumerate(scn.aps):
        d, cos_angle = link_geometry(ap, mt)
        m = _lambertian_order(ap.half_angle)
        gain = (_los_gain(mt, g, m, d, cos_angle) if cos_angle >= cos_fov
                else 0.0)
        if gain > best_gain:
            best_index = i
            best_gain = gain
        powers.append(ap.power * gain)
        terms.append(_harvest_term(ap.power, d, cos_angle, m))
    if best_index is None:
        raise NoCoverageError(
            f"mt {mt_index}: no AP inside the field of view yields nonzero gain")
    # the others in AP order; a total less the serving term rounds differently
    scale = mt.conv_coeff * scn.params.t_d * mt.oe_efficiency
    return Association(
        serving=best_index,
        a=powers[best_index],
        c=sum(p for k, p in enumerate(powers) if k != best_index),
        k1=scale * terms[best_index],
        k2=scale * sum(t for k, t in enumerate(terms) if k != best_index))
