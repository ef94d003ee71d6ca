"""Room geometry, device parameters, the Lambertian line-of-sight channel
and static serving-AP association.

All angles inside the package are radians; config files carry degrees and
are converted on load.  Scenario objects are frozen dataclasses whose
arrays are read-only, safe for concurrent read access.
"""

import itertools
import json
import math
import operator
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    ConfigParseError,
    ConfigValidationError,
    NoCoverageError,
)
from .harvest_uplink import _libm, _pow


@dataclass(frozen=True, eq=False)
class _Columns:
    """Devices of one kind as read-only float columns, one row per device.

    A table is built from its init fields, named as its columns; each is
    copied into a float array, and the columns that are not init fields are
    worked out from them by ``_derived``.
    """

    position: np.ndarray    # (n, 3) coordinates [m]

    def __post_init__(self):
        # past the frozen dataclass's __setattr__
        vars(self).update({f.name: np.array(getattr(self, f.name), float)
                           for f in fields(self) if f.init})
        vars(self).update(self._derived())
        for column in vars(self).values():
            column.setflags(write=False)

    def row(self, index, *names):
        """The named columns of device ``index``, as Python floats."""
        return [getattr(self, name).item(index) for name in names]


@dataclass(frozen=True, eq=False)
class ApTable(_Columns):
    """Ceiling LED luminaires acting as downlink access points.

    The Lambertian order ``m`` is worked out once from ``half_angle``; a
    half angle whose cosine rounds to 1 has no finite order and is refused.
    """

    power: np.ndarray       # optical transmit power [W]
    half_angle: np.ndarray  # half-intensity semi-angle [rad]
    m: np.ndarray = field(init=False)  # Lambertian emission order

    def _derived(self):
        return {"m": _lambertian_order(self.half_angle)}


@dataclass(frozen=True, eq=False)
class MtTable(_Columns):
    """User devices: photodiode receiver, light harvester, RF transmitter.

    The concentrator gain ``g`` is worked out once from ``refractive_index``
    and ``fov``; a FOV whose sine squared rounds to 0 has no finite gain and
    is refused.
    """

    area: np.ndarray              # photodiode area [m^2]
    responsivity: np.ndarray      # optical channel efficiency factor
    filter_gain: np.ndarray       # optical filter gain T_s
    refractive_index: np.ndarray  # concentrator refractive index
    fov: np.ndarray               # receiver field of view [rad]
    conv_coeff: np.ndarray        # optical-to-RF power conversion coefficient
    oe_efficiency: np.ndarray     # optical-to-electrical conversion efficiency
    pathloss_exp: np.ndarray      # RF uplink path-loss exponent
    rician_k: np.ndarray          # Rician factor of the uplink fade
    rician_omega: np.ndarray      # mean square value of the fade envelope
    rf_distance: np.ndarray       # MT to RF AP distance [m]
    g: np.ndarray = field(init=False)  # concentrator gain n_c^2/sin^2(fov)

    def _derived(self):
        return {"g": _concentrator_gain(self.refractive_index, self.fov)}


@dataclass(frozen=True)
class SystemParams:
    b_v: float   # VLC bandwidth [Hz]; converge sets the sweep array here
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
    aps: ApTable
    mts: MtTable
    params: SystemParams
    bv_sweep: tuple = ()     # optional VLC bandwidths for convergence studies


def _table(*rows):
    """``{key: (field, lo, hi, message, degrees)}`` of (key, field, range) rows.

    A range is written as its error message writes it: "> 0", ">= 1" or an
    interval such as "(0, 90]"; None admits any finite value.  An open bound
    is stored as the nearest float inside it, so ``lo <= value <= hi``
    checks either kind, and no bound as the largest float, so that test
    refuses an infinity.  Keys ending in ``_deg`` carry degrees and load as
    radians.
    """
    table = {}
    for key, field, valid in rows:
        lo, hi, message = -sys.float_info.max, sys.float_info.max, None
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


def _array_rules(table):
    # a device table as the array checks read it, worked out once: the field
    # names in table order; the least value of each cell row (x, y, z, then
    # the fields); the fields' greatest values; the rows that hold degrees
    names, lo, hi, _, degrees = zip(*list(table.values())[1:])
    return (names, np.array((0.0, 0.0, 0.0, *lo))[:, None], hi,
            [3 + k for k, angle in enumerate(degrees) if angle])


_ARRAY_RULES = {"aps": _array_rules(_AP), "mts": _array_rules(_MT)}


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
    """(x, y, z) of a ``pos``: three finite coordinates inside the room."""
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
    return x, y, z


def _entries(entries, table, section, room):
    if not (isinstance(entries, list) and entries):
        raise ConfigValidationError(section, "must be a non-empty list")
    return [_fields(entry, table, section, i, room)
            for i, entry in enumerate(entries)]


def _columns(entries, table, section, room):
    """``{field: column}`` of a device list: its positions, then its fields.

    They are checked in array passes, with the checks of ``_fields``: key
    sets, number types, then each column's range, finiteness included.
    Only when one fails does the row walker run, and it names the first bad
    entry.  Angles load as radians.
    """
    names, lo, hi, angles = _ARRAY_RULES[section]
    cells = None
    try:
        pos, *columns = zip(*map(operator.itemgetter(*table), entries))
    except (KeyError, TypeError, ValueError):
        pass  # not a non-empty list of objects with the table's keys
    else:
        if (set(map(len, entries)) == {len(table)}
                and set(map(type, pos)) == {list}
                and set(map(len, pos)) == {3}):
            columns = (*zip(*pos), *columns)
            if set(map(type, itertools.chain(*columns))) == {float}:
                cells = np.fromiter(itertools.chain(*columns), float,
                                    len(columns) * len(pos)).reshape(
                                        len(columns), -1)
                # x, y and z inside the room, each field in its range; nan
                # fails either bound
                high = np.array((*room, *hi))[:, None]
                if not ((lo <= cells) & (cells <= high)).all():
                    cells = None
    if cells is None:
        _entries(entries, table, section, room)  # raises at the first bad one
    cells[angles] = np.radians(cells[angles])
    return dict(zip(names, cells[3:]), position=cells[:3].T)


def load_scenario(config_text):
    """Parse and validate a JSON scenario document.

    Raises ConfigParseError on malformed or too deeply nested JSON and
    ConfigValidationError (with the dotted field path) on the first
    invariant violation: sections in the order room, params, aps, mts,
    sweep, each entry's fields in the order of its table above.  The APs'
    half angles are checked against their cosine after every AP's fields,
    and the MTs' FOVs against their sine after every MT's fields.
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
    aps = ApTable(**_columns(doc["aps"], _AP, "aps", room))
    mts = MtTable(**_columns(doc["mts"], _MT, "mts", room))

    # every AP above the highest MT; name the first MT a low AP fails
    ap_z, mt_z = aps.position[:, 2], mts.position[:, 2]
    top = np.maximum.reduce(mt_z)
    if np.minimum.reduce(ap_z) <= top:
        i = int(np.argmax(ap_z <= top))
        j = int(np.argmax(mt_z >= ap_z[i]))
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

    return Scenario(aps=aps, mts=mts, params=params, bv_sweep=bv_sweep)


def link_geometry(position, mt):
    """Distance and the irradiance/incidence cosine of AP-to-MT links.

    ``position`` is one AP's (x, y, z) or an (n, 3) array of them, and
    ``mt`` the terminal's (x, y, z); one link is a batch of one.  APs point
    straight down and the photodiode faces straight up, so the irradiance
    and incidence angles coincide and their one cosine is the vertical drop
    over the Euclidean distance.
    """
    diff = np.subtract(position, mt)
    sq = diff * diff
    d = np.sqrt(sq[..., 0] + sq[..., 1] + sq[..., 2])
    return d, diff[..., 2] / d


def _lambertian_order(half_angle):
    """Lambertian order m = -1/log2(cos(half_angle)) of each AP's half angle.

    An angle whose cosine rounds to 1 has no finite order: the first such AP
    is named in a ConfigValidationError.
    """
    log_cos = _libm(math.log2, _libm(math.cos, np.ravel(half_angle)))
    if not log_cos.all():
        i = int(np.argmax(log_cos == 0.0))
        raise ConfigValidationError(f"aps[{i}].half_angle_deg",
                                    "too small: its cosine rounds to 1")
    return -1.0 / log_cos


def _concentrator_gain(n_c, fov):
    """Optical concentrator gain n_c^2/sin^2(fov) of each MT.

    A FOV whose sine squared rounds to 0 has no finite gain: the first such
    MT is named in a ConfigValidationError.  A gain past the float64 range
    is inf: a rate built from it is not finite, and the CLI refuses the
    terminal.
    """
    sin_sq = np.square(_libm(math.sin, np.ravel(fov)))
    if not sin_sq.all():
        i = int(np.argmax(sin_sq == 0.0))
        raise ConfigValidationError(f"mts[{i}].fov_deg",
                                    "too small: its sine squared rounds to 0")
    with np.errstate(over="ignore"):
        return n_c * n_c / sin_sq


def associate(scn, mt_index):
    """Serving AP of one MT and its link sums, in one array pass over the APs.

    The serving AP has the strongest in-FOV channel gain, ties to the lowest
    index.  ``c`` sums P_T*G over the other APs, so an AP outside the FOV
    (G = 0) adds nothing; ``k2`` sums the harvest term over the other APs
    whether inside the FOV or not.  Both sums add left to right in AP order,
    from 0.0, so they do not depend on numpy's pairwise ``np.sum`` or on the
    Python version (3.12's ``sum`` compensates); a total less the serving
    term rounds differently.
    """
    aps, mts = scn.aps, scn.mts
    area, rho, t_s, g, fov, c_rf, rho_j = mts.row(
        mt_index, "area", "responsivity", "filter_gain", "g", "fov",
        "conv_coeff", "oe_efficiency")
    # a link past the float64 range gives inf, nan or 0, no warning: an AP
    # too far away counts for nothing, and the CLI refuses a terminal whose
    # rate is built from an inf or a nan
    with np.errstate(all="ignore"):
        d, cos_angle = link_geometry(aps.position, mts.position[mt_index])
        # cos^m, shared by the gain and the harvest term; a drop whose square
        # is subnormal can round d below dz, and cos > 1 to a power overflow
        cos_m = _libm(_pow, cos_angle, aps.m)
        # the line-of-sight gain of each link, as inside the FOV
        gain = ((aps.m + 1.0) * area * rho * cos_m
                * cos_angle * t_s * g) / (2.0 * math.pi * d * d)
        gain[cos_angle < math.cos(fov)] = 0.0  # none outside the FOV
        # each link's P_T*G, then its harvest term P_T^2/d^4 * cos^(2m),
        # integer powers as products
        d_sq = d * d
        links = np.array((aps.power * gain, aps.power * aps.power
                          / (d_sq * d_sq) * (cos_m * cos_m)))
        # argmax ties to the lowest index; fmax takes a nan gain as 0
        positive = np.fmax(gain, 0.0)
        best = int(positive.argmax())
        if positive[best] == 0.0:
            raise NoCoverageError(f"mt {mt_index}: no AP inside the field of "
                                  "view yields nonzero gain")
        a, term = map(float, links[:, best])
        # the other links: accumulate adds in sequence, so the last column
        # holds each left-to-right sum, with the serving link's zero in place
        links[:, best] = 0.0
        c, others = map(float, np.add.accumulate(links, axis=1)[:, -1])
    scale = c_rf * scn.params.t_d * rho_j
    return Association(serving=best, a=a, c=c, k1=scale * term,
                       k2=scale * others)
