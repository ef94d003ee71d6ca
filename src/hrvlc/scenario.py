"""Room geometry, device parameters and static serving-AP association.

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


_ROOM_KEYS = {"x", "y", "z"}
_PARAM_KEYS = {"B_v", "B_r", "N0", "T_d", "T_u"}
_AP_KEYS = {"pos", "P_T", "half_angle_deg"}
_MT_KEYS = {
    "pos", "A", "rho", "T_s", "n_c", "fov_deg", "C_jRF", "rho_j",
    "pathloss_exp", "rician_K", "rician_omega", "rf_distance",
}
_TOP_KEYS = {"room", "params", "aps", "mts", "sweep"}


def _require(cond, field, message):
    if not cond:
        raise ConfigValidationError(field, message)


def _number(obj, key, path):
    _require(key in obj, f"{path}.{key}", "missing")
    v = obj[key]
    _require(isinstance(v, (int, float)) and not isinstance(v, bool),
             f"{path}.{key}", "must be a number")
    _require(math.isfinite(v), f"{path}.{key}", "must be finite")
    return float(v)


def _no_unknown(obj, allowed, path):
    unknown = set(obj) - allowed
    _require(not unknown, path, f"unknown keys {sorted(unknown)}")


def _position(obj, path):
    _require("pos" in obj, f"{path}.pos", "missing")
    pos = obj["pos"]
    _require(isinstance(pos, list) and len(pos) == 3,
             f"{path}.pos", "must be a list of 3 numbers")
    for i, v in enumerate(pos):
        _require(isinstance(v, (int, float)) and not isinstance(v, bool)
                 and math.isfinite(v), f"{path}.pos[{i}]", "must be a finite number")
    _require(pos[2] >= 0, f"{path}.pos[2]", "z must be >= 0")
    return Point3(float(pos[0]), float(pos[1]), float(pos[2]))


def load_scenario(config_text):
    """Parse and validate a JSON scenario document.

    Raises ConfigParseError on malformed JSON and ConfigValidationError
    (with the dotted field path) on any invariant violation.
    """
    try:
        doc = json.loads(config_text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"invalid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "<root>", "must be a JSON object")
    _no_unknown(doc, _TOP_KEYS, "<root>")
    for key in ("room", "params", "aps", "mts"):
        _require(key in doc, key, "missing")

    _require(isinstance(doc["room"], dict), "room", "must be an object")
    _no_unknown(doc["room"], _ROOM_KEYS, "room")
    room = tuple(_number(doc["room"], k, "room") for k in ("x", "y", "z"))
    for k, v in zip(("x", "y", "z"), room):
        _require(v > 0, f"room.{k}", "must be > 0")

    _require(isinstance(doc["params"], dict), "params", "must be an object")
    _no_unknown(doc["params"], _PARAM_KEYS, "params")
    raw = {k: _number(doc["params"], k, "params") for k in _PARAM_KEYS}
    for k, v in raw.items():
        _require(v > 0, f"params.{k}", "must be > 0")
    params = SystemParams(b_v=raw["B_v"], b_r=raw["B_r"], n0=raw["N0"],
                          t_d=raw["T_d"], t_u=raw["T_u"])

    _require(isinstance(doc["aps"], list) and doc["aps"], "aps",
             "must be a non-empty list")
    aps = []
    for i, entry in enumerate(doc["aps"]):
        path = f"aps[{i}]"
        _require(isinstance(entry, dict), path, "must be an object")
        _no_unknown(entry, _AP_KEYS, path)
        pos = _position(entry, path)
        power = _number(entry, "P_T", path)
        _require(power >= 0, f"{path}.P_T", "must be >= 0")
        half_deg = _number(entry, "half_angle_deg", path)
        _require(0 < half_deg < 90, f"{path}.half_angle_deg",
                 "must be in (0, 90)")
        _check_inside(pos, room, path)
        aps.append(VlcAp(pos, power, math.radians(half_deg)))

    _require(isinstance(doc["mts"], list) and doc["mts"], "mts",
             "must be a non-empty list")
    mts = []
    for j, entry in enumerate(doc["mts"]):
        path = f"mts[{j}]"
        _require(isinstance(entry, dict), path, "must be an object")
        _no_unknown(entry, _MT_KEYS, path)
        pos = _position(entry, path)
        _check_inside(pos, room, path)
        area = _number(entry, "A", path)
        _require(area > 0, f"{path}.A", "must be > 0")
        rho = _number(entry, "rho", path)
        _require(rho > 0, f"{path}.rho", "must be > 0")
        t_s = _number(entry, "T_s", path)
        _require(t_s > 0, f"{path}.T_s", "must be > 0")
        n_c = _number(entry, "n_c", path)
        _require(n_c >= 1, f"{path}.n_c", "must be >= 1")
        fov_deg = _number(entry, "fov_deg", path)
        _require(0 < fov_deg <= 90, f"{path}.fov_deg", "must be in (0, 90]")
        c_jrf = _number(entry, "C_jRF", path)
        _require(0 < c_jrf <= 1, f"{path}.C_jRF", "must be in (0, 1]")
        rho_j = _number(entry, "rho_j", path)
        _require(0 < rho_j <= 1, f"{path}.rho_j", "must be in (0, 1]")
        npl = _number(entry, "pathloss_exp", path)
        rician_k = _number(entry, "rician_K", path)
        _require(rician_k >= 0, f"{path}.rician_K", "must be >= 0")
        omega = _number(entry, "rician_omega", path)
        _require(omega > 0, f"{path}.rician_omega", "must be > 0")
        d_j = _number(entry, "rf_distance", path)
        _require(d_j > 0, f"{path}.rf_distance", "must be > 0")
        mts.append(MobileTerminal(
            position=pos, area=area, responsivity=rho, filter_gain=t_s,
            refractive_index=n_c, fov=math.radians(fov_deg),
            conv_coeff=c_jrf, oe_efficiency=rho_j, pathloss_exp=npl,
            rician_k=rician_k, rician_omega=omega, rf_distance=d_j))

    # every AP above the highest MT; name the first MT a low AP fails
    top = max(mt.position.z for mt in mts)
    for i, ap in enumerate(aps):
        if ap.position.z <= top:
            j = next(j for j, mt in enumerate(mts)
                     if mt.position.z >= ap.position.z)
            raise ConfigValidationError(f"aps[{i}].pos[2]",
                                        f"AP must be above MT mts[{j}]")

    bv_sweep = ()
    if "sweep" in doc:
        sweep = doc["sweep"]
        _require(isinstance(sweep, dict), "sweep", "must be an object")
        _no_unknown(sweep, {"B_v"}, "sweep")
        if "B_v" in sweep:
            values = sweep["B_v"]
            _require(isinstance(values, list) and values, "sweep.B_v",
                     "must be a non-empty list")
            for i, v in enumerate(values):
                _require(isinstance(v, (int, float)) and not isinstance(v, bool)
                         and math.isfinite(v) and v > 0,
                         f"sweep.B_v[{i}]", "must be a positive number")
            bv_sweep = tuple(float(v) for v in values)

    return Scenario(room=room, aps=tuple(aps), mts=tuple(mts), params=params,
                    bv_sweep=bv_sweep)


def _check_inside(pos, room, path):
    inside = (0 <= pos.x <= room[0] and 0 <= pos.y <= room[1]
              and 0 <= pos.z <= room[2])
    _require(inside, f"{path}.pos", "position outside room bounds")


def link_geometry(ap, mt):
    """Distance and irradiance/incidence cosines of an AP-to-MT link.

    APs point straight down and the photodiode faces straight up, so the
    irradiance and incidence angles coincide and their cosine is the
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
    return d, cos_angle, cos_angle


def associate(scn, mt_index):
    """Serving AP of one MT and its link sums, in one pass over the APs.

    The serving AP has the strongest in-FOV channel gain, ties to the lowest
    index.  ``c`` sums P_T*G over the other APs, so an AP outside the FOV
    (G = 0) adds nothing; ``k2`` sums the harvest term over the other APs
    whether inside the FOV or not.
    """
    from .harvest_uplink import _harvest_term
    from .vlc_channel import channel_gain  # both local: avoid a module cycle

    mt = scn.mts[mt_index]
    best_index = None
    best_gain = 0.0
    powers, terms = [], []
    for i, ap in enumerate(scn.aps):
        gain = channel_gain(ap, mt)
        if gain.in_fov and gain.value > best_gain:
            best_index = i
            best_gain = gain.value
        powers.append(ap.power * gain.value)
        terms.append(_harvest_term(ap, mt))
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
