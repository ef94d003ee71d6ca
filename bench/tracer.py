"""In-memory tracer that wraps the package's public functions from outside.

Each listed function is replaced at every ``hrvlc`` module that binds it, so
a call is caught however its caller looked it up (``hrvlc.cli.load_scenario``
as well as ``hrvlc.scenario.load_scenario``). A timed layer records a span
(name, parent span, start, end); a layer's self time is its span minus its
child spans. A counted layer only counts calls: it runs so often and so
briefly that timing it would swamp what it measures, and its time stays in
its caller's self time. A name the package no longer has is reported
missing, not raised: these numbers are diagnostics, and helpers get renamed.
"""

import functools
import sys
import time
from array import array

# metric prefix -> (module, attribute, timed)
LAYERS = {
    "cli.main": ("hrvlc.cli", "main", True),
    "cli.sweep": ("hrvlc.cli", "cmd_sweep", True),
    "cli.solve": ("hrvlc.cli", "cmd_solve", True),
    "cli.converge": ("hrvlc.cli", "cmd_converge", True),
    "cli.montecarlo": ("hrvlc.cli", "cmd_montecarlo", True),
    "cli.chart": ("hrvlc.cli", "cmd_chart", True),
    "scenario.load_scenario": ("hrvlc.scenario", "load_scenario", True),
    "scenario.associate": ("hrvlc.scenario", "associate", True),
    "scenario.link_geometry": ("hrvlc.scenario", "link_geometry", False),
    "vlc_channel.channel_gain": ("hrvlc.vlc_channel", "channel_gain", True),
    "harvest_uplink.harvest_constants":
        ("hrvlc.harvest_uplink", "harvest_constants", True),
    "harvest_uplink.sample_rician": ("hrvlc.harvest_uplink", "sample_rician", True),
    "harvest_uplink.harvested_energy":
        ("hrvlc.harvest_uplink", "harvested_energy", True),
    "objective.total_rate": ("hrvlc.objective", "total_rate", True),
    "objective.reduce_coefficients":
        ("hrvlc.objective", "reduce_coefficients", True),
    "objective.rate_derivative": ("hrvlc.objective", "rate_derivative", False),
    "optimizer.solve_iterative": ("hrvlc.optimizer", "solve_iterative", True),
    "optimizer.solve_closed_form": ("hrvlc.optimizer", "solve_closed_form", True),
    "optimizer.grid_oracle": ("hrvlc.optimizer", "grid_oracle", True),
}


class Tracer:
    """Wraps LAYERS while installed; keeps spans and per-layer totals."""

    def __init__(self):
        self.names = list(LAYERS)
        self.calls = dict.fromkeys(self.names, 0)
        self.self_ns = dict.fromkeys(self.names, 0)
        self.missing = []
        # span i: name index, parent span (-1 at top level), start, end [ns]
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = []  # [span id, child ns] of each open span
        self._patched = []

    def install(self):
        self.missing = []
        for name, (module, attr, timed) in LAYERS.items():
            original = getattr(sys.modules.get(module), attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = (self._timed if timed else self._counted)(name, original)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").partition(".")[0] != "hrvlc":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def _counted(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _timed(self, name, fn):
        index = self.names.index(name)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(self.span_start)
            frame = [span, 0]
            self.span_name.append(index)
            self.span_parent.append(stack[-1][0] if stack else -1)
            stack.append(frame)
            start = clock()
            self.span_start.append(start)
            self.span_end.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.span_end[span] = end
                duration = end - start
                self.calls[name] += 1
                self.self_ns[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
        return wrapper

    def metrics(self):
        """(name, value, unit) of each per-layer metric, in LAYERS order."""
        for name, (_, _, timed) in LAYERS.items():
            yield f"{name}.calls", self.calls[name], "count"
            if timed:
                yield f"{name}.self_s", self.self_ns[name] * 1e-9, "s"

    def write_spans(self, path):
        """Spans as tab-separated id, parent, name, start_ns, end_ns."""
        origin = self.span_start[0] if self.span_start else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i, (n, p, s, e) in enumerate(zip(
                    self.span_name, self.span_parent,
                    self.span_start, self.span_end)):
                fh.write(f"{i}\t{p}\t{self.names[n]}\t{s - origin}\t{e - origin}\n")
