"""Quick self-test of the benchmark harness.

    python3 bench/selftest.py

Runs every workload on its shortened scene, untraced and traced, through
every output check, and verifies the printed result against BENCHMARK.json.
Then it shows that the checks catch a corrupted label tree, and that the
benchmark refuses to run in a directory without the propfuse sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"


def _run(cwd: Path, script: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def check_result(workload: str, trace: int, declared: dict) -> None:
    proc = _run(ROOT, BENCH / "run.py", "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--short")
    assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, (workload, trace, proc.stderr)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = declared["per_layer" if trace else "end_to_end"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in wanted}, f"{workload} trace={trace}: {got}"
    if not trace:
        for name, m in result["metrics"].items():
            assert m["value"] > 0, f"{workload}: {name} reads {m['value']}"
    print(f"ok  {workload:10s} trace={trace} attempted={result['attempted']}")


def check_corruption_is_caught() -> None:
    """Swap two lines of a written label file; the checks must object."""
    from checks import check_run
    from workloads import WORKLOADS

    good = next(d for d in sorted((WORK / "runs" / "crowd").iterdir()) if (d / "labels").is_dir())
    bad = WORK / "selftest-corrupt"
    shutil.rmtree(bad, ignore_errors=True)
    shutil.copytree(good, bad)
    victim = max((bad / "labels").glob("*.jsonl"), key=lambda p: p.stat().st_size)
    lines = victim.read_text(encoding="ascii").splitlines(keepends=True)
    lines[0], lines[-1] = lines[-1], lines[0]
    victim.write_text("".join(lines), encoding="ascii")
    inputs = json.loads(next((WORK / "inputs").glob("crowd-3-short/ready.json")).read_text())
    report = json.loads((good / "eval.json").read_text())
    checked = check_run({
        "manifest": inputs["manifest"],
        "gt": inputs["gt"],
        "config": WORKLOADS["crowd"].config(),
        "trees": [str(good), str(bad)],
        "evals": [report, report],
        "refuse_frames": 0,
    })
    assert checked["mismatched_trees"] == [str(bad)], checked["mismatched_trees"]
    assert checked["bad_frames"][str(bad)], "a shuffled label file passed the order check"
    assert not checked["bad_frames"][str(good)]
    shutil.rmtree(bad)
    print("ok  a corrupted label tree is caught")


def check_refuses_bare_directory() -> None:
    """With only BENCHMARK.json and bench/, the run must fail without a result."""
    bare = WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = _run(bare, bare / "bench" / "run.py", "--workload", "street200", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    assert proc.returncode != 0, "the benchmark ran without the propfuse sources"
    assert '"metrics"' not in proc.stdout, proc.stdout
    print("ok  a directory without the sources is refused")


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    from workloads import WORKLOADS

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_result(workload, trace, declared)
    check_corruption_is_caught()
    check_refuses_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
