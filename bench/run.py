"""The propfuse benchmark: one workload, one seed, one JSON line of results.

    python3 bench/run.py --workload street200 --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout. The inputs of the workload are
synthesized from the seed in a process of their own and kept under
bench/.work/inputs. With --trace 0 the run measures the end-to-end
metrics: a few processes that only set up, then one process that sets up
and runs rounds of run_pipeline plus the evaluation of the written label
tree until --seconds are used. With --trace 1 it alternates untraced and
traced rounds in one process and reports the per-layer split instead.
Either way the label trees are checked (checks.py) and the last line of
standard output is the result object. README.md explains the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

# every process of a run must be done by then
HARD_LIMIT_S = 170.0
SETUP_PROBES = 9
# evenly spaced frames whose candidates checks.py re-fuses by brute force
REFUSE_FRAMES = 12
# the Python part of a reference pass (worker._reference_pass) and one of
# its 1080p field copies, as best_by_position reads them on the reference
# machine in a calm spell; times are reported at that speed
REFERENCE_PASS_S = 2.8e-3
REFERENCE_COPY_S = 2.5e-3


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    """Starts worker processes one at a time and collects their results."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = _env()
        self.scratch = Path(tempfile.mkdtemp(prefix="results-", dir=WORK))

    def __call__(self, mode: str, *args: str) -> dict:
        result = self.scratch / f"{mode}-{time.monotonic_ns()}.json"
        cmd = [sys.executable, str(BENCH / "worker.py"), mode, "--result", str(result), *args]
        if mode in ("setup", "time"):
            cmd += ["--t0", repr(time.monotonic())]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"no time left to start the {mode} process")
        try:
            proc = subprocess.run(
                cmd, env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"the {mode} process did not finish in time") from None
        if proc.returncode != 0:
            raise BenchError(f"the {mode} process failed with code {proc.returncode}:\n{proc.stderr}")
        return json.loads(result.read_text(encoding="utf-8"))

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


def _fingerprint(files) -> str:
    h = hashlib.sha256()
    for path in files:
        h.update(path.read_bytes())
    return h.hexdigest()


def ensure_inputs(run: Runner, workload, seed: int, short: bool) -> dict:
    """Generate the workload's bundle for this seed, or reuse a matching one.

    Only one bundle per workload is kept, since the high-resolution one
    takes most of a gigabyte.
    """
    tag = f"{workload.name}-{seed}" + ("-short" if short else "")
    inputs = WORK / "inputs"
    target = inputs / tag
    stamp = {
        "workload": workload.name,
        "seed": seed,
        "short": short,
        "source": _fingerprint([BENCH / "workloads.py", *sorted((SRC / "propfuse").glob("*.py"))]),
    }
    ready = target / "ready.json"
    if ready.is_file() and json.loads(ready.read_text(encoding="utf-8")).get("stamp") == stamp:
        return json.loads(ready.read_text(encoding="utf-8"))
    if inputs.is_dir():
        for old in inputs.iterdir():
            if old.name.split("-")[0] == workload.name:
                shutil.rmtree(old, ignore_errors=True)
    target.mkdir(parents=True)
    args = ["--workload", workload.name, "--seed", str(seed), "--out", str(target)]
    made = run("gen", *args, *(["--short"] if short else []))
    made["gt"] = str(target / "gt.jsonl")
    made["stamp"] = stamp
    ready.write_text(json.dumps(made), encoding="utf-8")
    return made


def _check(run: Runner, workload, inputs: dict, trees: list, evals: list) -> dict:
    spec = {
        "manifest": inputs["manifest"],
        "gt": inputs["gt"],
        "config": workload.config(),
        "trees": trees,
        "evals": evals,
        "refuse_frames": REFUSE_FRAMES,
    }
    path = run.scratch / "check-spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return run("check", "--spec", str(path))


def _count_failures(rounds: list, checked: dict, extra_problems: list) -> tuple[int, int, list]:
    """Attempted and failed operations, and what went wrong.

    An operation is one target frame of a round, or one eval pass. A frame
    fails when its label file is missing, does not parse or holds a bad
    label; every operation of a round fails when its tree differs from the
    first round's; eval passes fail when a whole-run check fails.
    """
    problems = list(checked["problems"]) + list(extra_problems)
    attempted = failed = 0
    for r in rounds:
        frames, evals = r["frames"], len(r["eval_s"])
        attempted += frames + evals
        bad = checked["bad_frames"].get(r["dir"], {})
        if r["dir"] in checked["mismatched_trees"]:
            failed += frames + evals
            problems.append(f"{r['dir']}: label tree differs from the first round's")
            continue
        failed += len(bad)
        problems.extend(f"{r['dir']}: frame {f}: {why}" for f, why in sorted(bad.items()))
        if checked["problems"] or extra_problems:
            failed += evals
    return attempted, failed, problems


def best_pipeline_s(rounds: list) -> float:
    """The pipeline time with every frame at the fastest speed any round saw.

    Each stage of each frame (the per-frame seconds of ``run_report.json``)
    contributes the least time it took in any round, and the rest of
    run_pipeline (set-up, report) the least time any round spent on it.
    """
    staged = sum(
        min(frame[stage] for frame in samples)
        for samples in zip(*(r["frame_s"] for r in rounds))
        for stage in samples[0]
    )
    rest = min(r["pipeline_s"] - sum(sum(f.values()) for f in r["frame_s"]) for r in rounds)
    return staged + rest


def best_by_position(samples: list) -> float:
    """Mean over positions of the least value any round had at that position.

    ``samples`` holds one equally long list per round. A position (an eval
    pass, a reference pass) comes once a round at the same point of it, as
    each frame of the pipeline does, so its best over the rounds is taken
    the way best_pipeline_s takes each frame's: a host spell that slows
    part of the rounds moves both estimates alike.
    """
    return statistics.fmean(min(column) for column in zip(*samples))


def timed_run(run: Runner, workload, inputs: dict, seconds: float, out: Path, probes: int) -> dict:
    config = json.dumps(workload.config())
    common = ["--manifest", inputs["manifest"], "--config", config]
    run("setup", *common)  # warms the page cache and the bytecode cache; not counted
    started = time.monotonic()
    setups = [run("setup", *common)["setup_s"] for _ in range(probes)]
    budget = max(0.0, seconds - (time.monotonic() - started))
    timed = run(
        "time", *common, "--gt", inputs["gt"], "--out", str(out),
        "--budget", repr(budget), "--eval-reps", str(workload.eval_reps),
        "--reference-copies", str(workload.reference_copies),
    )
    rounds = timed["rounds"]
    checked = _check(run, workload, inputs, [r["dir"] for r in rounds], rounds)
    attempted, failed, problems = _count_failures(rounds, checked, [])
    setups.append(timed["setup_s"])
    first = rounds[0]
    passes = [r["reference_s"] for r in rounds]
    # < 1 when the host ran Python slower than on the reference machine;
    # set-up and eval are interpreter work and are scaled by it
    speed = REFERENCE_PASS_S / best_by_position([[p for p, _ in r] for r in passes])
    # the same for the workload's mix of interpreter work and memory traffic;
    # the pipeline is scaled by it (equal to speed when the mix has no copies)
    calm_pass_s = REFERENCE_PASS_S + workload.reference_copies * REFERENCE_COPY_S
    pipeline_speed = calm_pass_s / best_by_position([[p + c for p, c in r] for r in passes])
    setup_s = statistics.median(setups)
    best_s = best_pipeline_s(rounds)
    best_eval_s = best_by_position([r["eval_s"] for r in rounds])
    # CPU seconds per wall second over every round, pipeline and eval alike
    utilization = sum(r["pipeline_cpu_s"] + sum(r["eval_cpu_s"]) for r in rounds) / sum(
        r["pipeline_s"] + sum(r["eval_s"]) for r in rounds
    )
    metrics = {
        "setup_s": (setup_s * speed, "s"),
        "pipeline_fps": (first["frames"] / (best_s * pipeline_speed), "frames/s"),
        "eval_dets_per_s": (first["n_detections"] / (best_eval_s * speed), "detections/s"),
        "cpu_s": (utilization * (best_s * pipeline_speed + best_eval_s * speed), "s"),
        "peak_rss_mb": (timed["peak_rss_mb"], "MB"),
        "map50": (first["map50"], "ratio"),
        "map75": (first["map75"], "ratio"),
    }
    detail = {
        "speed": speed,
        "pipeline_speed": pipeline_speed,
        "reference_s": passes,
        "unscaled": {
            "setup_s": setup_s,
            "pipeline_fps": first["frames"] / best_s,
            "eval_dets_per_s": first["n_detections"] / best_eval_s,
            "cpu_s": utilization * (best_s + best_eval_s),
        },
        "setup_samples_s": setups,
        "pipeline_s": [r["pipeline_s"] for r in rounds],
        "best_pipeline_s": best_s,
        "utilization": utilization,
        "eval_s": [r["eval_s"] for r in rounds],
        "teacher_map75": checked["teacher_map75"],
        "refused_frames": checked["refused_frames"],
    }
    return _result(attempted, failed, problems, metrics, detail)


def traced_run(run: Runner, workload, inputs: dict, seconds: float, out: Path, probes: int) -> dict:
    from tracer import EXPECTED_BINDINGS

    config = json.dumps(workload.config())
    traced = run(
        "trace", "--manifest", inputs["manifest"], "--config", config, "--gt", inputs["gt"],
        "--out", str(out), "--budget", repr(float(seconds)),
    )
    rounds = traced["plain_rounds"] + traced["traced_rounds"]
    checked = _check(run, workload, inputs, [r["dir"] for r in rounds], rounds)
    extra = []
    missing = sorted(set(EXPECTED_BINDINGS) - set(traced["bindings"]))
    if missing:
        extra.append(f"the tracer did not wrap {', '.join(missing)}")
    unattributed = traced["layers"]["trace.unattributed_s"]["value"]
    if unattributed < 0:
        extra.append(f"root spans cover {-unattributed} s more than the traced wall clock")
    attempted, failed, problems = _count_failures(rounds, checked, extra)
    metrics = {k: (v["value"], v["unit"]) for k, v in traced["layers"].items()}
    overhead = best_pipeline_s(traced["traced_rounds"]) - best_pipeline_s(traced["plain_rounds"])
    metrics["trace.overhead_s"] = (overhead, "s")
    detail = {"spans": str(out / "spans.json")}
    return _result(attempted, failed, problems, metrics, detail)


def _result(attempted, failed, problems, metrics, detail) -> dict:
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "problems": problems,
        "detail": detail,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--short", action="store_true", help="shortened scenes, for the self-test")
    args = p.parse_args(argv)

    deadline = time.monotonic() + HARD_LIMIT_S
    # exit through Python on SIGTERM, so that subprocess.run kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "propfuse" / "__init__.py").is_file():
        print(f"error: no propfuse sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    run = Runner(deadline)
    try:
        inputs = ensure_inputs(run, workload, args.seed, args.short)
        out = WORK / "runs" / workload.name
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        measure = traced_run if args.trace else timed_run
        probes = 2 if args.short else SETUP_PROBES
        result = measure(run, workload, inputs, args.seconds, out, probes)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()

    name = f"{workload.name}-seed{args.seed}-trace{args.trace}" + ("-short" if args.short else "")
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{name}.json").write_text(json.dumps(result, indent=2), encoding="utf-8")
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for key, m in result["metrics"].items():
        print(f"{workload.name} {key} = {m['value']:.6g} {m['unit']}")
    if "speed" in result["detail"]:
        unscaled = ", ".join(f"{k} {v:.6g}" for k, v in result["detail"]["unscaled"].items())
        d = result["detail"]
        print(
            f"{workload.name} host speed {d['speed']:.3f}, for the pipeline "
            f"{d['pipeline_speed']:.3f}; unscaled: {unscaled}"
        )
    line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
