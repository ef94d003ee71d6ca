#!/usr/bin/env python3
"""hrvlc benchmark: CLI workloads in a closed loop with one caller.

    python3 bench/run.py --workload mc-two-ap --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Each run is one fresh process driving ``hrvlc.cli.main(argv)`` in-process,
one call after another, so argparse and exit-code mapping are timed while
interpreter start-up is not; set-up (importing ``hrvlc.cli`` and writing the
workload's configs) is timed on its own as ``setup_s``. With ``--trace 0``
the loop runs for ``--seconds`` and the end-to-end metrics are reported;
with ``--trace 1`` a fixed, seed-determined number of cycles runs, each once
plain and once traced, and the per-layer metrics are reported. Outputs are
verified after the timed region. The last stdout line is the result JSON;
the lines before it record the machine and the per-command figures.
"""

import os

# BLAS/OpenMP pools size themselves when numpy loads: pin them before any
# import below can load it. The machine this was tuned on has 2 cores.
PINNED_THREADS = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer  # noqa: E402
from verify import read_rows, read_solve, verify_cycle  # noqa: E402
from workloads import ROOT, WORKLOADS  # noqa: E402

SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
# fresh child processes timed for setup_s besides the run's own, half before
# and half after the loop, so the median spans the run's whole duration
SETUP_PROBES = 6
TAIL_BEYOND = 10        # samples a tail percentile must leave above it
# throughput name of an op kind's items (draws or sweep points) per second
THROUGHPUT_NAMES = {"montecarlo": "draws_per_s", "sweep": "points_per_s",
                    "chart": "chart_points_per_s"}


@dataclass
class CycleRun:
    ops: list
    codes: list      # exit code per op
    seconds: list    # wall time per op
    wall: float      # wall time of the whole cycle


def _set_up(args, workdir):
    """Import the CLI and build the workload's inputs; (import_s, setup_s)."""
    if not (SRC / "hrvlc").is_dir():
        # never time an installed copy in place of the checkout's source
        raise SystemExit(f"no package source at {SRC / 'hrvlc'}")
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("hrvlc.cli")
    imported = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed, args.heldout, workdir,
                                        args.tiny)
    workload.build()
    return cli, workload, (imported - start, time.perf_counter() - start)


def _probe_setups(args, workdir, count, tag):
    """(import_s, setup_s) of fresh processes doing the same set-up."""
    samples = []
    for k in range(count):
        argv = [sys.executable, __file__, "--workload", args.workload,
                "--seed", str(args.seed), "--probe-setup",
                str(workdir / f"probe-{tag}-{k}")]
        argv += ["--heldout"] * args.heldout + ["--tiny"] * args.tiny
        done = subprocess.run(argv, capture_output=True, text=True,
                              timeout=120, check=True)
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        samples.append((probe["import_s"], probe["setup_s"]))
    return samples


def _call(cli, argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects argv by exiting
        return exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # noqa: BLE001 - a crash fails this op, not the run
        print(f"op crashed: {argv[0]}: {exc!r}", file=sys.stderr)
        return -1


def _run_cycle(cli, workload, i, outdir):
    Path(outdir).mkdir(parents=True, exist_ok=True)
    ops = workload.cycle(i, outdir)
    codes, seconds = [], []
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        codes.append(_call(cli, op.argv))
        seconds.append(time.perf_counter() - t0)
    return CycleRun(ops, codes, seconds, time.perf_counter() - start)


def _verify(cli, runs, twin, tmpdir):
    """Problems per op of ``runs``; ``twin`` reruns runs[0] and must match it."""

    def solve_alpha(argv):
        out = tmpdir / "alpha.csv"
        if _call(cli, argv + ["--out", str(out)]) != 0:
            raise ValueError(f"reference solve failed: {argv}")
        row, problems = read_solve(out, "closed")
        if problems:
            raise ValueError(f"reference solve: {problems}")
        return row[0]

    tmpdir.mkdir(parents=True, exist_ok=True)
    report = []
    for run in runs:
        problems = verify_cycle(run.ops, solve_alpha)
        for j, code in enumerate(run.codes):
            if code != 0:
                problems[j].append(f"{run.ops[j].kind}: exit code {code}")
        report.append(problems)
    for j, (op, again) in enumerate(zip(runs[0].ops, twin.ops)):
        if not (op.out.is_file() and again.out.is_file()
                and op.out.read_bytes() == again.out.read_bytes()):
            report[0][j].append(f"{op.kind}: rerun output differs")
    return report


def _tail(values):
    """Highest percentile leaving TAIL_BEYOND samples above it, with its rank.

    With too few samples for that, the maximum.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _timed_mode(args, cli, workload, workdir):
    twin = _run_cycle(cli, workload, 0, workdir / "twin")  # also the warm-up
    runs = []
    deadline = time.perf_counter() + args.seconds
    while len(runs) < workload.inputs or time.perf_counter() < deadline:
        runs.append(_run_cycle(cli, workload, len(runs), workdir / "timed"))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = _verify(cli, runs, twin, workdir / "verify")

    by_kind = {}
    fastest = {}  # (input, op position in the cycle) -> its fastest call
    for i, run in enumerate(runs):
        for j, (op, s) in enumerate(zip(run.ops, run.seconds)):
            by_kind.setdefault(op.kind, []).append(s)
            key = (i % workload.inputs, j)
            fastest[key] = min(s, fastest.get(key, s))
    cycle_s = [run.wall for run in runs]
    # Other tenants of a shared host slow calls by up to 2x and never speed
    # one up, so a run's median mostly measures them. The gated timings take
    # the fastest call of each op of each input instead, so the input mix is
    # fixed, and a cycle's time is the sum of its ops' fastest calls. Calls
    # are kept short (tens of ms), so a run holds many of each and nearly
    # always some that met no contention; see README.md for the spreads.
    item_j = [op.kind for op in runs[0].ops].index(workload.item_kind)
    metrics = {
        "items_per_s": _metric(workload.items_per_op / statistics.fmean(
            fastest[k, item_j] for k in range(workload.inputs)), "1/s"),
        "cycle_min_ms": _metric(
            1e3 * sum(fastest.values()) / workload.inputs, "ms"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }

    detail = {"cycles": _metric(len(runs), "count"),
              "cycle_p50_ms": _metric(1e3 * statistics.median(cycle_s), "ms")}
    value, rank = _tail(cycle_s)
    detail["cycle_tail_ms"] = _metric(1e3 * value, "ms")
    detail["cycle_tail_percentile"] = _metric(rank, "%")
    for kind, seconds in by_kind.items():
        detail[f"{kind}_p50_ms"] = _metric(1e3 * statistics.median(seconds), "ms")
        detail[f"{kind}_n"] = _metric(len(seconds), "count")
        if kind in THROUGHPUT_NAMES:
            detail[THROUGHPUT_NAMES[kind]] = _metric(
                workload.items_per_op / statistics.median(seconds), "1/s")
    solves = [s for kind, v in by_kind.items() if kind.startswith("solve_")
              for s in v]
    if solves:
        value, rank = _tail(solves)
        detail["solve_tail_ms"] = _metric(1e3 * value, "ms")
        detail["solve_tail_percentile"] = _metric(rank, "%")
    detail["peak_rss_mb"] = metrics["peak_rss_mb"]
    return runs, report, metrics, detail


def _output_counts(runs):
    """Exact counts read from the outputs of ``runs``."""
    iterations, optima, bytes_out, rows, ops = [], [], 0, 0, 0
    for run in runs:
        for op in run.ops:
            ops += 1
            bytes_out += op.out.stat().st_size
            if op.out.suffix != ".csv":
                continue
            table = read_rows(op.out)
            rows += len(table)
            if op.kind == "solve_iter":
                iterations.append(int(table[0]["iterations"]))
            elif op.kind in ("solve_closed", "montecarlo"):
                optima += [float(row["alpha_star"]) for row in table
                           if row.get("draw_index") not in ("mean", "std")]
    boundary = sum(a in (0.0, 1.0) for a in optima)
    return {
        "optimizer.iterations_per_iter_solve":
            _metric(statistics.fmean(iterations) if iterations else 0.0, "count"),
        "optimizer.boundary_frac":
            _metric(boundary / len(optima) if optima else 0.0, "ratio"),
        "cli.out_bytes_per_op": _metric(bytes_out / ops, "B"),
        "cli.rows_per_op": _metric(rows / ops, "count"),
    }


def _trace_mode(args, cli, workload, workdir):
    warm = _run_cycle(cli, workload, 0, workdir / "warm")
    # plain and traced runs of each cycle alternate, so that both sides of
    # each pair meet the same contention from other tenants
    tracer = Tracer()
    plain, traced = [], []
    for i in range(workload.trace_cycles):
        plain.append(_run_cycle(cli, workload, i, workdir / "plain"))
        tracer.install()
        try:
            traced.append(_run_cycle(cli, workload, i, workdir / "traced"))
        finally:
            tracer.uninstall()
    # tracing must not change a byte: traced cycle 0 is checked against plain
    report = _verify(cli, plain, warm, workdir / "verify")
    report += _verify(cli, traced, plain[0], workdir / "verify")

    metrics = {name: _metric(value, unit)
               for name, value, unit in tracer.metrics()}
    metrics.update(_output_counts(traced))
    metrics["trace.missing_layers"] = _metric(len(tracer.missing), "count")
    metrics["trace.overhead_frac"] = _metric(statistics.median(
        t.wall / p.wall for p, t in zip(plain, traced)) - 1.0, "ratio")
    traces = RUN_DIR / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    # one file per workload, overwritten: the spans of its latest traced run
    spans = traces / f"{args.workload}{'-tiny' * args.tiny}.spans.tsv"
    tracer.write_spans(spans)
    detail = {"cycles": len(traced), "missing_layers": tracer.missing,
              "spans": len(tracer.span_start),
              "spans_file": str(spans.relative_to(ROOT))}
    return plain + traced, report, metrics, detail


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        cpu = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        **versions,
        "threads": PINNED_THREADS,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def run(args):
    workdir = RUN_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    try:
        cli, workload, own = _set_up(args, workdir / "inputs")
        before, after = (1, 0) if args.tiny else (SETUP_PROBES // 2,) * 2
        samples = [own] + _probe_setups(args, workdir, before, "before")
        mode = _trace_mode if args.trace else _timed_mode
        runs, report, metrics, detail = mode(args, cli, workload, workdir)
        samples += _probe_setups(args, workdir, after, "after")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(len(problems) for problems in report)
    failed = sum(bool(p) for problems in report for p in problems)
    detail["failed_frac"] = _metric(failed / attempted, "ratio")
    detail["setup_s"] = _metric(statistics.median(s[1] for s in samples), "s")
    if args.trace:
        metrics["setup.import_s"] = _metric(
            statistics.median(s[0] for s in samples), "s")
    else:
        metrics["setup_s"] = detail["setup_s"]
    shown = [p for problems in report for op in problems for p in op][:5]
    print(json.dumps({"env": _environment()}))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "heldout": args.heldout, "tiny": args.tiny,
                      "trace": args.trace, "items_per_op": workload.items_per_op,
                      "detail": detail, "problems": shown}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def probe_setup(args):
    _, _, (import_s, setup_s) = _set_up(args, Path(args.probe_setup) / "inputs")
    print(json.dumps({"import_s": import_s, "setup_s": setup_s}))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--heldout", action="store_true",
                        help="draw inputs from the held-out seed family, "
                             "which no tuning has used")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke test")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload tiny, traced and untraced, "
                             "and check the verifier catches a corrupted output")
    parser.add_argument("--probe-setup", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.smoke:
        from smoke import smoke
        return smoke()
    if args.probe_setup:
        return probe_setup(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
