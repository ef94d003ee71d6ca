"""Monte-Carlo study of the optimal split across Rician fading draws."""

import csv
import sys
from pathlib import Path

from hrvlc import cli

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "two_ap_room.json"
OUT = ROOT / "out"


def main():
    OUT.mkdir(exist_ok=True)
    csv_path = OUT / "fading_study.csv"
    code = cli.main(["montecarlo", "--config", str(CONFIG), "--mt", "0",
                     "--draws", "5000", "--seed", "7", "--out", str(csv_path)])
    if code:
        sys.exit(code)
    with open(csv_path, newline="", encoding="utf-8") as fh:
        stats = {row["draw_index"]: row for row in csv.DictReader(fh)}
    mean, std = stats["mean"], stats["std"]
    print(f"alpha*: mean {float(mean['alpha_star']):.6f}, "
          f"std {float(std['alpha_star']):.3g}")
    print(f"R*:     mean {float(mean['R_star']):.6g}, "
          f"std {float(std['R_star']):.3g}")
    print(f"wrote {csv_path}")


if __name__ == "__main__":
    main()
