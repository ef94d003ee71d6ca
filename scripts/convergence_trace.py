"""Bisection convergence traces for the VLC bandwidths in the config sweep."""

import csv
import sys
from pathlib import Path

from hrvlc import cli

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "two_ap_room.json"
OUT = ROOT / "out"


def main():
    OUT.mkdir(exist_ok=True)
    csv_path = OUT / "convergence.csv"
    svg = OUT / "convergence.svg"
    for argv in (["converge", "--config", str(CONFIG), "--mt", "0",
                  "--seed", "7", "--out", str(csv_path)],
                 ["chart", "--csv", str(csv_path), "--out", str(svg)]):
        code = cli.main(argv)
        if code:
            sys.exit(code)
    with open(csv_path, newline="", encoding="utf-8") as fh:
        iterations = [int(row["iteration"]) for row in csv.DictReader(fh)]
    # a block per bandwidth: the iteration counter restarts at 1
    print(f"converge: {iterations.count(1)} bandwidths, "
          f"at most {max(iterations)} iterations each")
    print(f"wrote {csv_path}, {svg}")


if __name__ == "__main__":
    main()
