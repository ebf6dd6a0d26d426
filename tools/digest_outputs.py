"""Print one sha256 per propfuse output tree, as JSON, for a given source tree.

Run it on two checkouts and compare the two JSON files: equal digests mean
the outputs are byte-identical. Usage, from any directory:

    python tools/digest_outputs.py --src PARENT_CHECKOUT --work /tmp/a > a.json
    python tools/digest_outputs.py --src CHANGED_CHECKOUT --work /tmp/b > b.json
    diff a.json b.json

Every scene of ``tests/_bundles.py`` in ``--src`` is written with that tree's
``write_bundle`` and the written tree is hashed; so is the directory of each
extra manifest named on the command line (write those with each tree's
``bench/worker.py gen`` to compare what the two trees write). Each scene,
and each extra manifest, is then run through that tree's CLI:

- ``pipeline`` for every fusion method at k 0, 1 and 3 in both compositions,
  plus swbf with the precomputed provider (misses dropped or falling back to
  patches) where the scene has embeddings; each label tree is scored with
  ``eval`` (JSON and CSV), and both are hashed together;
- ``eval`` of the wbf k=1 (trajectory) tree twice more, with ``--classes``:
  the manifest's first class alone, on a copy of the tree that keeps only
  that class's lines (ground truth of the other classes is left out), and
  every class plus ``absent``, a class with no ground truth;
- ``propagate`` of the first, middle and last frame at k 0, 1 and 3, and
  ``fuse`` of each candidate file with every method and the manifest's
  classes, and once with wbf and no manifest, so with the classes the file
  names, sorted;
- ``selfcheck`` of the first and middle frame, hops 1 and 3, on the ground
  truth and on the detections.

The run report's per-frame ``seconds`` and its ``stages`` are timings and are
left out. A command that fails is hashed by its exit code and message, with
the work directory written as ``<work>``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import shutil
import sys
from pathlib import Path

METHODS = ("swbf", "wbf", "nms", "snms", "nmw")
KS = (0, 1, 3)
COMPOSITIONS = ("trajectory", "additive")
PROVIDERS = (("precomputed", "drop"), ("precomputed", "fallback"))


def tree_digest(root: Path) -> str:
    """sha256 over every file under ``root``: its relative path, then its bytes."""
    h = hashlib.sha256()
    files = [root] if root.is_file() else sorted(p for p in root.rglob("*") if p.is_file())
    for path in files:
        data = path.read_bytes()
        if path.name == "run_report.json":
            report = json.loads(data)
            report.pop("stages", None)
            for frame in report.get("frames", []):
                frame.pop("seconds", None)
            data = json.dumps(report, sort_keys=True).encode()
        h.update(str(path.relative_to(root.parent if root.is_file() else root)).encode() + b"\0")
        h.update(data + b"\0")
    return h.hexdigest()


class Runner:
    """Runs the CLI of the tree under test in this process and hashes what it writes."""

    def __init__(self, main, work: Path):
        self.main = main
        self.work = work
        self.digests: dict[str, str] = {}
        self.failed: list[str] = []

    def failure(self, argv: list) -> str | None:
        """Run one command: None if it succeeds, else its exit code and message."""
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = self.main([str(a) for a in argv])
        if rc == 0:
            return None
        return f"exit {rc}: " + err.getvalue().replace(str(self.work), "<work>")

    def record(self, name: str, failure: str | None, *outputs: Path) -> bool:
        """Store the digest of ``outputs``, or of the failure; True if there was none."""
        h = hashlib.sha256()
        if failure is not None:
            h.update(failure.encode())
            self.failed.append(name)
        for out in () if failure is not None else outputs:
            h.update(tree_digest(out).encode())
        self.digests[name] = h.hexdigest()
        return failure is None

    def run(self, name: str, argv: list, *outputs: Path) -> bool:
        return self.record(name, self.failure(argv), *outputs)


def digest_manifest(runner: Runner, tag: str, manifest_path: Path, load_manifest) -> None:
    manifest = load_manifest(manifest_path)
    frames = manifest.frame_indices()
    out = runner.work / "runs" / tag
    out.mkdir(parents=True, exist_ok=True)
    m = ["--manifest", manifest_path]

    def pipeline(name: str, flags: list) -> None:
        labels, report, csv = out / name, out / f"{name}.eval.json", out / f"{name}.eval.csv"
        failure = runner.failure(["pipeline", *m, "--out", labels, *flags])
        if failure is None:
            evaluation = ["eval", "--dets", labels / "labels", "--gt", manifest.gt_path]
            failure = runner.failure([*evaluation, "--out", report, "--csv", csv])
        runner.record(f"{tag}/pipeline/{name}", failure, labels, report, csv)

    for method in METHODS:
        for k in KS:
            for comp in COMPOSITIONS:
                flags = ["--method", method, "--k", k, "--composition", comp]
                pipeline(f"{method}-k{k}-{comp}", flags)
                if method == "swbf" and manifest.embeddings_path is not None:
                    for provider, miss in PROVIDERS:
                        more = ["--feature-provider", provider, "--embed-miss", miss]
                        pipeline(f"{method}-k{k}-{comp}-{provider}-{miss}", flags + more)

    labels = out / "wbf-k1-trajectory" / "labels"
    if labels.is_dir():
        first = manifest.classes[0]
        only_first = out / "wbf-k1-trajectory-first-class"
        only_first.mkdir()
        for f in sorted(labels.glob("*.jsonl")):
            lines = f.read_text(encoding="ascii").splitlines(keepends=True)
            kept = [line for line in lines if json.loads(line)["class"] == first]
            (only_first / f.name).write_text("".join(kept), encoding="ascii")
        vocabularies = [
            ("first-class", only_first, first),
            ("with-absent", labels, ",".join([*manifest.classes, "absent"])),
        ]
        for name, dets, classes in vocabularies:
            report, csv = out / f"vocabulary-{name}.json", out / f"vocabulary-{name}.csv"
            argv = ["eval", "--dets", dets, "--gt", manifest.gt_path, "--classes", classes]
            runner.run(f"{tag}/eval/wbf-k1-{name}", argv + ["--out", report, "--csv", csv], report, csv)

    for t in sorted({frames[0], frames[len(frames) // 2], frames[-1]}):
        for k in KS:
            cands = out / f"cand-{t}-k{k}.jsonl"
            argv = ["propagate", *m, "--frame", t, "--k", k, "--out", cands]
            if not runner.run(f"{tag}/propagate/{t}-k{k}", argv, cands):
                continue
            for method in METHODS:
                fused = out / f"fused-{t}-k{k}-{method}.jsonl"
                argv = ["fuse", "--in", cands, "--out", fused, "--method", method, *m]
                runner.run(f"{tag}/fuse/{t}-k{k}-{method}", argv, fused)
            fused = out / f"fused-{t}-k{k}-wbf-file-classes.jsonl"
            argv = ["fuse", "--in", cands, "--out", fused, "--method", "wbf"]
            runner.run(f"{tag}/fuse/{t}-k{k}-wbf-file-classes", argv, fused)

    for t in sorted({frames[0], frames[len(frames) // 2]}):
        for hops in (1, 3):
            for source in ("gt", "dets"):
                report = out / f"selfcheck-{t}-{hops}-{source}.json"
                argv = ["selfcheck", *m, "--frame", t, "--hops", hops, "--source", source]
                argv += ["--out", report]
                runner.run(f"{tag}/selfcheck/{t}-h{hops}-{source}", argv, report)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, type=Path, help="source checkout to digest")
    parser.add_argument("--work", required=True, type=Path, help="scratch directory, emptied first")
    parser.add_argument("manifests", nargs="*", type=Path, help="extra manifests to run")
    args = parser.parse_args()

    src = args.src.resolve()
    sys.path[:0] = [str(src / "src"), str(src / "tests")]
    import _bundles
    import propfuse
    from propfuse.cli import main as cli_main
    from propfuse.manifest import load_manifest
    from propfuse.synth import write_bundle

    if not Path(propfuse.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"propfuse was imported from {propfuse.__file__}, not from {src}")
    work = args.work.resolve()
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(cli_main, work)

    builders = sorted(n for n in vars(_bundles) if n.endswith("_bundle"))
    for name in builders:
        bundle_dir = work / "bundles" / name
        manifest_path = write_bundle(getattr(_bundles, name)(), bundle_dir)
        runner.digests[f"{name}/written"] = tree_digest(bundle_dir)
        digest_manifest(runner, name, manifest_path, load_manifest)
    for i, manifest_path in enumerate(args.manifests):
        tag = f"extra{i}-{manifest_path.parent.name}"
        runner.digests[f"{tag}/written"] = tree_digest(manifest_path.resolve().parent)
        digest_manifest(runner, tag, manifest_path.resolve(), load_manifest)

    json.dump(runner.digests, sys.stdout, indent=1, sort_keys=True)
    print()
    failed = ", ".join(runner.failed) or "none"
    print(f"{len(runner.digests)} digests; failed, hashed by message: {failed}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
