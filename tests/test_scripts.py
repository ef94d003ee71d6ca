"""The experiment scripts: each drives the CLI and reports from its CSVs."""

import csv
import importlib.util
import re
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, files", [
    ("rate_vs_alpha",
     ["rate_vs_alpha.csv", "rate_vs_alpha.svg", "optimal_alpha.csv"]),
    ("convergence_trace", ["convergence.csv", "convergence.svg"]),
    ("fading_study", ["fading_study.csv"]),
], ids=["rate_vs_alpha", "convergence_trace", "fading_study"])
def test_writes_the_files_it_names(tmp_path, monkeypatch, capsys, name,
                                   files):
    script = load_script(name)
    monkeypatch.setattr(script, "OUT", tmp_path)
    script.main()
    out = capsys.readouterr().out
    wrote = re.search(r"^wrote (.*)$", out, re.MULTILINE).group(1)
    assert wrote.split(", ") == [str(tmp_path / f) for f in files]
    for f in files:
        assert (tmp_path / f).stat().st_size > 0


def test_fading_study_prints_the_csv_mean(tmp_path, monkeypatch, capsys):
    script = load_script("fading_study")
    monkeypatch.setattr(script, "OUT", tmp_path)
    script.main()
    printed = re.search(r"^alpha\*: mean (\S+),", capsys.readouterr().out,
                        re.MULTILINE).group(1)
    with open(tmp_path / "fading_study.csv", newline="",
              encoding="utf-8") as fh:
        [mean] = [row for row in csv.DictReader(fh)
                  if row["draw_index"] == "mean"]
    assert printed == f"{float(mean['alpha_star']):.6f}"
