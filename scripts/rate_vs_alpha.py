"""Sweep the total rate over alpha for the two-AP room and chart it."""

import csv
import sys
from pathlib import Path

from hrvlc import cli

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "two_ap_room.json"
OUT = ROOT / "out"


def main():
    OUT.mkdir(exist_ok=True)
    sweep_csv = OUT / "rate_vs_alpha.csv"
    svg = OUT / "rate_vs_alpha.svg"
    solve_csv = OUT / "optimal_alpha.csv"
    common = ["--config", str(CONFIG), "--mt", "0", "--seed", "7"]
    for argv in (["sweep", "--points", "201", *common, "--out", str(sweep_csv)],
                 ["chart", "--csv", str(sweep_csv), "--out", str(svg)],
                 ["solve", "--method", "closed", *common,
                  "--out", str(solve_csv)]):
        code = cli.main(argv)
        if code:
            sys.exit(code)
    with open(solve_csv, newline="", encoding="utf-8") as fh:
        best = next(csv.DictReader(fh))
    print(f"alpha* {float(best['alpha_star']):.6f}, "
          f"R* {float(best['R_star']):.6g}")
    print(f"wrote {sweep_csv}, {svg}, {solve_csv}")


if __name__ == "__main__":
    main()
