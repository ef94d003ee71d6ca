"""Seeded inputs for the hrvlc benchmark workloads.

A workload is a closed loop of CLI calls grouped into cycles. Cycle ``i`` is a
pure function of (seed, i), so any cycle can be rerun and its outputs
compared byte for byte. Only the standard library is used here: the first
``import hrvlc.cli`` of a run is then the one that loads numpy and scipy, and
set-up time includes it.
"""

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TWO_AP_CONFIG = ROOT / "configs" / "two_ap_room.json"

# Terminal parameters that room-dense does not draw; the values of the
# shipped two-AP room.
_MT_TEMPLATE = {
    "A": 1e-4, "rho": 0.4, "T_s": 1.0, "n_c": 1.5, "C_jRF": 0.5,
    "rho_j": 0.75, "pathloss_exp": 2.5, "rician_omega": 1.0,
    "rf_distance": 4.0,
}
_PARAMS = {"B_v": 1e7, "B_r": 1.4e7, "N0": 4e-21, "T_d": 0.5, "T_u": 0.5}


@dataclass
class Op:
    """One CLI call: its argv, the file it writes and what to verify there."""

    kind: str
    argv: list
    out: Path
    expect: dict = field(default_factory=dict)


def _rng(seed, heldout, *stream):
    # string seeds hash through SHA-512, so streams are stable across runs
    # and Python versions; the held-out family shares no stream with the
    # tuning family
    family = "heldout" if heldout else "bench"
    return random.Random("/".join(map(str, (family, seed) + stream)))


class Workload:
    """Base: a seeded input set and the cycles run on it."""

    name = ""
    item_kind = ""    # the op kind whose items/s is the headline throughput
    items_per_op = 0
    trace_cycles = 0  # fixed cycle count of the traced run
    inputs = 1        # cycle i does the work of input i % inputs

    def __init__(self, seed, heldout, workdir, tiny):
        self.seed = seed
        self.heldout = heldout
        self.workdir = Path(workdir)
        self.tiny = tiny

    def call_seed(self, i):
        return _rng(self.seed, self.heldout, "call", i).randrange(2 ** 31)

    def build(self):
        """Write the configs the program reads; the set-up being timed."""
        raise NotImplementedError

    def cycle(self, i, outdir):
        """The ops of cycle ``i``, writing under ``outdir``."""
        raise NotImplementedError


class _TwoApWorkload(Workload):
    def build(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        text = TWO_AP_CONFIG.read_text(encoding="utf-8")
        mt = json.loads(text)["mts"][0]
        self.rician = (mt["rician_K"], mt["rician_omega"])
        self.config = self.workdir / "two_ap_room.json"
        self.config.write_text(text, encoding="utf-8")


class McTwoAp(_TwoApWorkload):
    """montecarlo on the two-AP room: per-draw cost with near-free geometry."""

    name = "mc-two-ap"
    item_kind = "montecarlo"

    def __init__(self, *args):
        super().__init__(*args)
        self.items_per_op = 50 if self.tiny else 200
        self.trace_cycles = 2 if self.tiny else 160

    def cycle(self, i, outdir):
        k, omega = self.rician
        out = Path(outdir) / f"mc-{i}.csv"
        argv = ["montecarlo", "--config", str(self.config), "--mt", "0",
                "--draws", str(self.items_per_op),
                "--seed", str(self.call_seed(i)), "--out", str(out)]
        return [Op("montecarlo", argv, out,
                   {"draws": self.items_per_op, "k": k, "omega": omega})]


class SweepTwoAp(_TwoApWorkload):
    """sweep then chart of its CSV: scalar rate loop and CSV/SVG I/O, no solver."""

    name = "sweep-two-ap"
    item_kind = "sweep"

    def __init__(self, *args):
        super().__init__(*args)
        self.items_per_op = 101 if self.tiny else 1001
        self.trace_cycles = 2 if self.tiny else 60

    def cycle(self, i, outdir):
        csv_out = Path(outdir) / f"sweep-{i}.csv"
        svg_out = Path(outdir) / f"sweep-{i}.svg"
        seed = self.call_seed(i)
        sweep = ["sweep", "--config", str(self.config), "--mt", "0",
                 "--points", str(self.items_per_op), "--seed", str(seed),
                 "--out", str(csv_out)]
        chart = ["chart", "--csv", str(csv_out), "--out", str(svg_out)]
        solve = ["solve", "--method", "closed", "--config", str(self.config),
                 "--mt", "0", "--seed", str(seed)]
        return [Op("sweep", sweep, csv_out,
                   {"points": self.items_per_op, "solve": solve}),
                Op("chart", chart, svg_out)]


class RoomDense(Workload):
    """A 16x16 luminaire hall; each terminal in turn gets every solver route.

    Each call reloads the large config and recomputes O(#APs) geometry, per
    draw in montecarlo, so scenario, vlc_channel and harvest_constants carry
    most of the work. FOV and Rician K are stratified over their ranges, so
    every seed gets the same spread of interior and boundary optima.
    """

    name = "room-dense"
    item_kind = "montecarlo"
    PITCH = 2.5
    AP_Z = 3.0
    MT_Z = 0.85
    FOV_DEG = (40.0, 90.0)
    K_RANGE = (0.0, 10.0)
    FOV_MARGIN_DEG = 0.5
    GRID_POINTS = 10001

    def __init__(self, *args):
        super().__init__(*args)
        if self.tiny:
            self.grid, self.n_mts, self.n_bv, self.items_per_op = 4, 4, 4, 5
            self.trace_cycles = 2
        else:
            self.grid, self.n_mts, self.n_bv, self.items_per_op = 16, 16, 24, 20
            self.trace_cycles = 16
        self.inputs = self.n_mts

    def build(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.doc = generate_hall(self.seed, self.heldout, self.grid,
                                 self.n_mts, self.n_bv)
        self.config = self.workdir / "room_dense.json"
        self.config.write_text(json.dumps(self.doc), encoding="utf-8")

    def cycle(self, i, outdir):
        mt_index = i % self.n_mts
        mt = self.doc["mts"][mt_index]
        seed = self.call_seed(i)
        base = ["--config", str(self.config), "--mt", str(mt_index),
                "--seed", str(seed)]
        ops = []
        for method in ("closed", "iter", "grid"):
            out = Path(outdir) / f"solve-{method}-{i}.csv"
            ops.append(Op(f"solve_{method}",
                          ["solve", "--method", method] + base + ["--out", str(out)],
                          out, {"method": method, "points": self.GRID_POINTS}))
        out = Path(outdir) / f"converge-{i}.csv"
        ops.append(Op("converge", ["converge"] + base + ["--out", str(out)],
                      out, {"blocks": len(self.doc["sweep"]["B_v"])}))
        out = Path(outdir) / f"mc-{i}.csv"
        ops.append(Op("montecarlo",
                      ["montecarlo", "--draws", str(self.items_per_op)] + base
                      + ["--out", str(out)], out,
                      {"draws": self.items_per_op, "k": mt["rician_K"],
                       "omega": mt["rician_omega"]}))
        return ops


def _stratified(rng, n, lo, hi):
    # one uniform draw in each of n equal strata, in shuffled order
    values = [lo + (hi - lo) * (j + rng.random()) / n for j in range(n)]
    rng.shuffle(values)
    return values


def _nearest_ap_angle_deg(pos, ap_positions):
    """Incidence angle at the terminal of its nearest AP, upward-facing PD."""
    best = math.inf
    for ax, ay, az in ap_positions:
        r = math.hypot(ax - pos[0], ay - pos[1])
        best = min(best, math.degrees(math.atan2(r, az - pos[2])))
    return best


def generate_hall(seed, heldout, grid, n_mts, n_bv):
    """Seeded hall config: grid x grid APs, n_mts terminals, n_bv bandwidths.

    Terminals are placed uniformly; a position whose nearest AP lies outside
    the terminal's FOV (less a margin) is redrawn, so every terminal is
    covered whatever the program's own association does.
    """
    rng = _rng(seed, heldout, "hall")
    side = grid * RoomDense.PITCH
    ap_positions = [((ix + 0.5) * RoomDense.PITCH, (iy + 0.5) * RoomDense.PITCH,
                     RoomDense.AP_Z) for ix in range(grid) for iy in range(grid)]
    fovs = _stratified(rng, n_mts, *RoomDense.FOV_DEG)
    ks = _stratified(rng, n_mts, *RoomDense.K_RANGE)
    mts = []
    for fov, k in zip(fovs, ks):
        # the FOV interval is open at 40 degrees
        fov = RoomDense.FOV_DEG[1] - (fov - RoomDense.FOV_DEG[0])
        while True:
            pos = [side * rng.random(), side * rng.random(), RoomDense.MT_Z]
            if (_nearest_ap_angle_deg(pos, ap_positions)
                    <= fov - RoomDense.FOV_MARGIN_DEG):
                break
        mts.append(dict(_MT_TEMPLATE, pos=pos, fov_deg=fov, rician_K=k))
    bandwidths = [1e6 * 100.0 ** (j / (n_bv - 1)) for j in range(n_bv)]
    return {
        "room": {"x": side, "y": side, "z": RoomDense.AP_Z},
        "params": dict(_PARAMS),
        "aps": [{"pos": list(p), "P_T": 3.0, "half_angle_deg": 60}
                for p in ap_positions],
        "mts": mts,
        "sweep": {"B_v": bandwidths},
    }


WORKLOADS = {w.name: w for w in (McTwoAp, SweepTwoAp, RoomDense)}
