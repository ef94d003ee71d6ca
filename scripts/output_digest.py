"""One sha256 over the CLI's exit codes and output bytes on a fixed matrix.

    python3 scripts/output_digest.py --src PATH [--expect HEX]

PATH is a checkout of this repository: its ``src/hrvlc`` is the code that
runs. The inputs come from the checkout holding this script: both shipped
configs and the first eight terminals of the seeded 256-AP hall that the
benchmark's room-dense workload builds. Each terminal runs, for seeds 0, 7,
987654 and 2**64 + 3 (three uint32 entropy words, [3, 0, 1], where the
others take one), ``sweep`` at 1001 points, ``solve`` by each method (and
again by ``grid`` at 101 points and by ``iter`` at eps 1e-3),
``converge`` with eps 1e-9, 1e-3, 2**-53 and 1e-16 (2**-53 stops at step
53, the last whose midpoints are exact; 1e-16 steps past it), and
``montecarlo`` with 1 and 200 draws; the two-AP room's terminal also runs ``montecarlo`` with 20000 draws
and ``converge`` with eps 1e-300, past the bits of its midpoints. Every
sweep and eps 1e-9 converge CSV is then charted. Two checkouts that write
the same bytes print the same digest, so a change that promises identical
output is checked by running this once with its parent as PATH and once
with itself. With ``--expect HEX`` the script exits 1 when the digest is
not HEX, so CI fails on any output byte a change has not declared.
"""

import argparse
import collections
import hashlib
import importlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from workloads import generate_hall  # noqa: E402

SEEDS = (0, 7, 987654, 2 ** 64 + 3)
HALL_TERMINALS = 8
CALLS = (
    ("sweep", ["sweep", "--points", "1001"]),
    ("solve-closed", ["solve", "--method", "closed"]),
    ("solve-iter", ["solve", "--method", "iter"]),
    ("solve-grid", ["solve", "--method", "grid"]),
    ("solve-grid-101", ["solve", "--method", "grid", "--points", "101"]),
    ("solve-iter-1e-3", ["solve", "--method", "iter", "--eps", "1e-3"]),
    ("converge", ["converge"]),
    ("converge-1e-3", ["converge", "--eps", "1e-3"]),
    ("converge-2^-53", ["converge", "--eps", "1.1102230246251565e-16"]),
    ("converge-1e-16", ["converge", "--eps", "1e-16"]),
    ("montecarlo-1", ["montecarlo", "--draws", "1"]),
    ("montecarlo-200", ["montecarlo", "--draws", "200"]),
)
TWO_AP_CALLS = (
    ("montecarlo-20000", ["montecarlo", "--draws", "20000"]),
    ("converge-1e-300", ["converge", "--eps", "1e-300"]),
)
CHARTED = ("sweep", "converge")


def _import_cli(src):
    pkg_dir = (Path(src) / "src").resolve()
    if not (pkg_dir / "hrvlc").is_dir():
        raise SystemExit(f"no package source at {pkg_dir / 'hrvlc'}")
    sys.path.insert(0, str(pkg_dir))
    cli = importlib.import_module("hrvlc.cli")
    if pkg_dir not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"imported {cli.__file__}, not the copy in {pkg_dir}")
    return cli


def _terminals(workdir):
    """(name, config path, terminal index) of every terminal in the matrix."""
    hall = workdir / "hall.json"
    hall.write_text(json.dumps(generate_hall(2, False, 16, 16, 24)),
                    encoding="utf-8")
    configs = [("two_ap_room", ROOT / "configs" / "two_ap_room.json", 1),
               ("single_ap_room", ROOT / "configs" / "single_ap_room.json", 1),
               ("hall", hall, HALL_TERMINALS)]
    return [(f"{name}[{mt}]", path, mt)
            for name, path, count in configs for mt in range(count)]


def _run(cli, argv, out):
    """Exit code of ``main(argv)`` and the bytes at ``out``, or b"" if none."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, out.read_bytes() if out.exists() else b""


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True,
                        help="checkout whose src/hrvlc is run")
    parser.add_argument("--expect", metavar="HEX",
                        help="exit 1 unless the digest is HEX")
    args = parser.parse_args()
    cli = _import_cli(args.src)

    digest = hashlib.sha256()
    codes = collections.Counter()

    def record(label, code, data):
        digest.update(f"{label}\0{code}\0{len(data)}\0".encode())
        digest.update(data)
        codes[code] += 1

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for name, config, mt in _terminals(workdir):
            calls = CALLS + (TWO_AP_CALLS if name == "two_ap_room[0]" else ())
            for seed in SEEDS:
                for label, argv in calls:
                    tag = f"{name}-seed{seed}-{label}"
                    csv_out = workdir / f"{tag}.csv"
                    record(tag, *_run(cli, argv + [
                        "--config", str(config), "--mt", str(mt),
                        "--seed", str(seed), "--out", str(csv_out)], csv_out))
                    if label in CHARTED:
                        svg_out = workdir / f"{tag}.svg"
                        record(f"{tag}-chart", *_run(cli, [
                            "chart", "--csv", str(csv_out),
                            "--out", str(svg_out)], svg_out))
    print(f"{sum(codes.values())} calls, exit codes "
          f"{dict(sorted(codes.items()))}", file=sys.stderr)
    print(digest.hexdigest())
    if args.expect is not None and digest.hexdigest() != args.expect:
        sys.exit(f"digest differs from the expected {args.expect}")


if __name__ == "__main__":
    main()
