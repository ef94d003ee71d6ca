"""Smoke test of the benchmark itself, in seconds: ``python3 bench/run.py --smoke``.

Runs every workload with tiny inputs, untraced and traced, each in a fresh
process as the real runs are, and checks each result line against
BENCHMARK.json. Then checks that the verifier counts a failure for a
perturbed ``alpha_star``, and that the benchmark fails without printing a
result in a directory that holds only itself.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from verify import verify_cycle
from workloads import ROOT, WORKLOADS, RoomDense

RUN = Path(__file__).with_name("run.py")
SMOKE_DIR = ROOT / ".bench_run" / "smoke"


def _run(argv, cwd=ROOT):
    return subprocess.run([sys.executable] + argv, cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def _check_result(workload, trace, spec):
    done = _run([str(RUN), "--workload", workload, "--seed", "1",
                 "--seconds", "0.5", "--trace", str(trace), "--tiny"])
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr.strip()[-500:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0
            and result["attempted"] >= 1):
        problems.append(f"not correct: {done.stdout.strip().splitlines()[-2]}")
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != wanted:
        problems.append(f"metrics differ from BENCHMARK.json: "
                        f"{sorted(set(got.items()) ^ set(wanted.items()))}")
    return problems


def _corruption_caught(workdir):
    """The verifier passes a clean room-dense cycle and fails a perturbed one."""
    sys.path.insert(0, str(ROOT / "src"))
    from hrvlc.cli import main as cli_main

    workload = RoomDense(1, False, workdir / "inputs", True)
    workload.build()
    ops = workload.cycle(0, workdir / "out")
    (workdir / "out").mkdir(parents=True)
    if any(cli_main(op.argv) != 0 for op in ops):
        return ["clean cycle: an op exited non-zero"]
    if any(verify_cycle(ops, None)):
        return [f"clean cycle fails verification: {verify_cycle(ops, None)}"]
    closed = ops[0].out
    header, row = closed.read_text(encoding="utf-8").splitlines()
    fields = row.split(",")
    alpha = float(fields[0])
    fields[0] = repr(alpha - 1e-3 if alpha > 0.5 else alpha + 1e-3)
    closed.write_text(f"{header}\n{','.join(fields)}\n", encoding="utf-8")
    if not verify_cycle(ops, None)[0]:
        return ["perturbed alpha_star passed verification"]
    return []


def _fails_alone(workdir):
    """Without the repository around it, the benchmark exits non-zero silently."""
    bare = workdir / "bare"
    shutil.copytree(RUN.parent, bare / RUN.parent.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = _run([str(Path(RUN.parent.name) / RUN.name), "--workload",
                 "mc-two-ap", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare)
    if done.returncode == 0 or done.stdout.strip():
        return [f"bare checkout: exit {done.returncode}, stdout {done.stdout!r}"]
    return []


def smoke():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    shutil.rmtree(SMOKE_DIR, ignore_errors=True)
    SMOKE_DIR.mkdir(parents=True)
    checks = [(f"{w} trace={t}", lambda w=w, t=t: _check_result(w, t, spec))
              for w in WORKLOADS for t in (0, 1)]
    checks += [("verifier catches a perturbed alpha_star",
                lambda: _corruption_caught(SMOKE_DIR / "corrupt")),
               ("fails alone", lambda: _fails_alone(SMOKE_DIR))]
    failures = 0
    try:
        for name, check in checks:
            problems = check()
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok'}  {name}")
            for problem in problems:
                print(f"      {problem}")
    finally:
        shutil.rmtree(SMOKE_DIR, ignore_errors=True)
    return 1 if failures else 0
