"""Room geometry, device parameters, the Lambertian line-of-sight channel
and static serving-AP association.

All angles inside the package are radians; config files carry degrees and
are converted on load.  Scenario objects are frozen dataclasses whose
arrays are read-only, safe for concurrent read access.
"""

import functools
import itertools
import json
import math
import operator
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigParseError,
    ConfigValidationError,
    GeometryError,
    NoCoverageError,
)
from .harvest_uplink import _harvest_term, _libm


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


@dataclass(frozen=True, eq=False)
class ApTable:
    """Ceiling LED luminaires acting as downlink access points, one a row.

    The columns are copied into read-only float arrays, and the Lambertian
    order ``m`` is worked out once from ``half_angle``; a half angle whose
    cosine rounds to 1 has no finite order and is refused.
    """

    position: np.ndarray    # (n, 3) coordinates [m]
    power: np.ndarray       # optical transmit power [W]
    half_angle: np.ndarray  # half-intensity semi-angle [rad]
    m: np.ndarray = field(init=False)  # Lambertian emission order

    def __post_init__(self):
        position = np.array(self.position, dtype=float).reshape(-1, 3)
        power = np.array(self.power, dtype=float)
        half_angle = np.array(self.half_angle, dtype=float)
        if not position.shape[:1] == power.shape == half_angle.shape:
            raise ValueError("AP columns must have one row per AP")
        m = _lambertian_order(half_angle)
        for name, column in (("position", position), ("power", power),
                             ("half_angle", half_angle), ("m", m)):
            column.setflags(write=False)
            object.__setattr__(self, name, column)


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
    aps: ApTable
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


# The array checks read an AP's fields in this order, and bound its x, y,
# z, P_T and half_angle_deg from below by _AP_LO and from above by the room
# and _AP_HI.  The bounds are finite, the largest float standing in for an
# unbounded P_T, so the range test refuses inf too; nan fails any bound.
_AP_FIELDS = operator.itemgetter("pos", "P_T", "half_angle_deg")
_AP_LO = (0.0, 0.0, 0.0, _AP["P_T"][1], _AP["half_angle_deg"][1])
_AP_HI = (min(_AP["P_T"][2], sys.float_info.max), _AP["half_angle_deg"][2])


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


def _ap_table(entries, room):
    """ApTable of the ``aps`` list, whose checks run as array passes.

    They are the checks of ``_fields``: key sets, number types, then each
    column's range, finiteness included.  Only when one fails does the row
    walker run, and it names the first bad AP.
    """
    cells = None
    try:
        pos, power, half_angle = zip(*map(_AP_FIELDS, entries))
    except (KeyError, TypeError, ValueError):
        pass  # not a non-empty list of objects with the AP's keys
    else:
        if (set(map(len, entries)) == {3} and set(map(type, pos)) == {list}
                and set(map(len, pos)) == {3}):
            columns = (*zip(*pos), power, half_angle)
            if set(map(type, itertools.chain(*columns))) == {float}:
                cells = np.fromiter(itertools.chain(*columns), float,
                                    5 * len(power)).reshape(5, -1)
                # each row's least and greatest value in range; the
                # reductions carry a nan through, and it fails both tests
                bounds = zip(_AP_LO, np.minimum.reduce(cells, 1).tolist(),
                             np.maximum.reduce(cells, 1).tolist(),
                             (*room, *_AP_HI))
                if not all(lo <= least and most <= hi
                           for lo, least, most, hi in bounds):
                    cells = None
    if cells is None:
        _entries(entries, _AP, "aps", room)  # raises at the first bad AP
    # an angle that converts to 0 radians keeps the least positive one, so
    # it is refused as too small, as any angle whose cosine rounds to 1
    half_angle = np.maximum(np.radians(cells[4]), 5e-324)
    return ApTable(cells[:3].T, cells[3], half_angle)


def load_scenario(config_text):
    """Parse and validate a JSON scenario document.

    Raises ConfigParseError on malformed or too deeply nested JSON and
    ConfigValidationError (with the dotted field path) on the first
    invariant violation: sections in the order room, params, aps, mts,
    sweep, each entry's fields in the order of its table above.  The APs'
    half angles are checked against their cosine after every AP's fields.
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
    aps = _ap_table(doc["aps"], room)
    mts = tuple(MobileTerminal(**kw)
                for kw in _entries(doc["mts"], _MT, "mts", room))

    # every AP above the highest MT; name the first MT a low AP fails
    top = max(mt.position.z for mt in mts)
    if np.minimum.reduce(aps.position[:, 2]) <= top:
        i = int(np.argmax(aps.position[:, 2] <= top))
        z = aps.position[i, 2]
        j = next(j for j, mt in enumerate(mts) if mt.position.z >= z)
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


def link_geometry(position, mt):
    """Distance and the irradiance/incidence cosine of AP-to-MT links.

    ``position`` is one AP's (x, y, z) or an (n, 3) array of them; one link
    is a batch of one.  APs point straight down and the photodiode faces
    straight up, so the irradiance and incidence angles coincide and their
    one cosine is the vertical drop over the Euclidean distance.  A bad
    link raises for the first one in AP order.
    """
    diff = np.subtract(position, (mt.position.x, mt.position.y,
                                  mt.position.z))
    sq = diff * diff
    d = np.sqrt(sq[..., 0] + sq[..., 1] + sq[..., 2])
    dz = diff[..., 2]
    linked = np.minimum(d, dz) > 0
    if not linked.all():
        if np.ravel(d)[np.argmin(linked)] == 0:
            raise GeometryError("AP and MT are colocated (zero link distance)")
        raise GeometryError("AP must be strictly above the MT plane")
    return d, dz / d


def _lambertian_order(half_angle):
    """Lambertian order m = -1/log2(cos(half_angle)) of each AP's half angle.

    An angle whose cosine rounds to 1 has no finite order: the first such AP
    is named in a ConfigValidationError.
    """
    half_angle = np.asarray(half_angle, dtype=float)
    if not all(0 < h < math.pi / 2 for h in half_angle.ravel().tolist()):
        raise ValueError("half_angle must be in (0, pi/2)")
    log_cos = np.asarray(_libm(math.log2, _libm(math.cos, half_angle)))
    if not log_cos.all():
        i = np.flatnonzero(log_cos == 0)[0]
        raise ConfigValidationError(f"aps[{i}].half_angle_deg",
                                    "too small: its cosine rounds to 1")
    return -1.0 / log_cos


def _concentrator_gain(n_c, fov):
    """Optical concentrator gain n_c^2 / sin^2(fov)."""
    if n_c < 1:
        raise ValueError("refractive index must be >= 1")
    if not 0 < fov <= math.pi / 2:
        raise ValueError("fov must be in (0, pi/2]")
    return n_c * n_c / math.sin(fov) ** 2


def _los_gain(mt, g, m, d, cos_angle):
    """Gains of links of order m, as inside the FOV; g is the concentrator
    gain."""
    return ((m + 1.0) * mt.area * mt.responsivity
            * _libm(math.pow, cos_angle, m) * cos_angle * mt.filter_gain * g
            ) / (2.0 * math.pi * d * d)


def _sum_others(values, skip):
    # every value but values[skip], left to right from 0, as sum() adds
    # before Python 3.12 (which compensates), so the link sums do not depend
    # on the Python version; a total less values[skip] rounds differently
    return functools.reduce(operator.add, values[:skip] + values[skip + 1:], 0)


def associate(scn, mt_index):
    """Serving AP of one MT and its link sums, in one array pass over the APs.

    The serving AP has the strongest in-FOV channel gain, ties to the lowest
    index.  ``c`` sums P_T*G over the other APs, so an AP outside the FOV
    (G = 0) adds nothing; ``k2`` sums the harvest term over the other APs
    whether inside the FOV or not.  Both sums run in AP order.
    """
    mt = scn.mts[mt_index]
    aps = scn.aps
    g = _concentrator_gain(mt.refractive_index, mt.fov)
    d, cos_angle = link_geometry(aps.position, mt)
    # a link past the float64 range gives inf or nan, no warning: a rate
    # built from it is not finite, and the CLI refuses the terminal
    with np.errstate(all="ignore"):
        gain = _los_gain(mt, g, aps.m, d, cos_angle)
        gain[cos_angle < math.cos(mt.fov)] = 0.0  # none outside the FOV
        powers = (aps.power * gain).tolist()
        terms = _harvest_term(aps.power, d, cos_angle, aps.m).tolist()
    # argmax ties to the lowest index; fmax takes a nan gain as 0
    positive = np.fmax(gain, 0.0)
    best = int(positive.argmax())
    if positive[best] == 0.0:
        raise NoCoverageError(
            f"mt {mt_index}: no AP inside the field of view yields nonzero gain")
    scale = mt.conv_coeff * scn.params.t_d * mt.oe_efficiency
    return Association(
        serving=best,
        a=powers[best],
        c=_sum_others(powers, best),
        k1=scale * terms[best],
        k2=scale * _sum_others(terms, best))
