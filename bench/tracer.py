"""Spans and counts around the public functions of each propfuse layer.

``Tracer.install`` swaps every traced function for a wrapper in every
propfuse module that binds it. Modules import functions by name, so
``sample_bilinear`` has to be replaced in ``motion`` and in ``similarity``,
``transfer_box`` in ``motion``, ``propagation`` and ``evaluation``, and so
on; methods are replaced on their class. Each wrapper records a span
(name, start, end, parent) and feeds a count hook with the call and its
result. Spans stay in memory until ``dump``; ``uninstall`` puts the
original functions back.

A span's self time is its duration minus the durations of its direct
children. Over a traced interval the self times of all spans plus the time
covered by no span at all (the unattributed remainder) add up to the
interval's wall clock.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# (span name, module that defines the function, attribute path)
TRACED = (
    ("manifest.load_manifest", "propfuse.manifest", "load_manifest"),
    ("manifest.teacher_labels", "propfuse.manifest", "SequenceManifest.teacher_labels"),
    ("manifest.frame_image", "propfuse.manifest", "SequenceManifest.frame_image"),
    ("pipeline.run_pipeline", "propfuse.pipeline", "run_pipeline"),
    ("propagation.build_candidates", "propfuse.propagation", "build_candidates"),
    ("motion.read_flow", "propfuse.motion", "read_flow"),
    ("motion.transfer_box", "propfuse.motion", "transfer_box"),
    ("motion.sample_bilinear", "propfuse.motion", "sample_bilinear"),
    ("similarity.embed", "propfuse.similarity", "PatchDescriptor.embed"),
    ("similarity.rescore", "propfuse.similarity", "rescore"),
    ("fusion.fuse_candidates", "propfuse.fusion", "fuse_candidates"),
    ("fusion.cluster_class", "propfuse.fusion", "cluster_class"),
    ("io.read_detections", "propfuse.io", "read_detections"),
    ("io.write_detections", "propfuse.io", "write_detections"),
    ("io.read_frame", "propfuse.io", "read_frame"),
    ("evaluation.evaluate", "propfuse.evaluation", "evaluate"),
    ("evaluation.average_precision", "propfuse.evaluation", "average_precision"),
    ("cli.cmd_eval", "propfuse.cli", "cmd_eval"),
)

# Module bindings the tracer must replace for the per-layer split to be
# complete: the defining module of each traced function plus every module
# of the pipeline and eval paths that imports it by name. A binding missing
# after install means a layer's time would silently count as its caller's.
EXPECTED_BINDINGS = (
    "propfuse.manifest.load_manifest",
    "propfuse.cli.load_manifest",
    "propfuse.manifest.SequenceManifest.teacher_labels",
    "propfuse.manifest.SequenceManifest.frame_image",
    "propfuse.pipeline.run_pipeline",
    "propfuse.propagation.build_candidates",
    "propfuse.pipeline.build_candidates",
    "propfuse.motion.read_flow",
    "propfuse.motion.transfer_box",
    "propfuse.propagation.transfer_box",
    "propfuse.evaluation.transfer_box",
    "propfuse.motion.sample_bilinear",
    "propfuse.similarity.sample_bilinear",
    "propfuse.similarity.PatchDescriptor.embed",
    "propfuse.similarity.rescore",
    "propfuse.fusion.rescore",
    "propfuse.fusion.fuse_candidates",
    "propfuse.pipeline.fuse_candidates",
    "propfuse.fusion.cluster_class",
    "propfuse.io.read_detections",
    "propfuse.manifest.read_detections",
    "propfuse.cli.read_detections",
    "propfuse.io.write_detections",
    "propfuse.pipeline.write_detections",
    "propfuse.io.read_frame",
    "propfuse.manifest.read_frame",
    "propfuse.evaluation.evaluate",
    "propfuse.cli.evaluate",
    "propfuse.evaluation.average_precision",
    "propfuse.cli.cmd_eval",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        # one [name id, start, end, parent span index or -1] per call
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.bindings: list[str] = []
        self._stack: list[int] = []
        self._embedded: set = set()
        self._fields: set = set()
        self._undo: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import propfuse.cli  # noqa: F401  (make sure every binding module is loaded)

        modules = [m for n, m in list(sys.modules.items()) if n == "propfuse" or n.startswith("propfuse.")]
        hooks = self._hooks()
        for name, module_name, attr in TRACED:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(name, original, hooks.get(name)), f"{module_name}.{attr}")
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hooks.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper, f"{module.__name__}.{key}")

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    def _set(self, target, key, wrapper, label) -> None:
        self._undo.append((target, key, getattr(target, key)))
        setattr(target, key, wrapper)
        self.bindings.append(label)

    def _wrap(self, name, fn, hook):
        name_id = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter
        calls_key = name + "_calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name_id, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            counts[calls_key] += 1
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _hooks(self) -> dict:
        counts = self.counts

        def read_flow(args, kwargs, field):
            counts["flow_bytes"] += 12 + field.data.nbytes
            self._fields.add(str(args[0]))

        def transfer_box(args, kwargs, moved):
            motion = args[1] if len(args) > 1 else kwargs["motion"]
            counts["hops"] += len(motion.fields)
            counts["transfer_box_kept"] += moved is not None

        def build_candidates(args, kwargs, cand):
            counts["candidates"] += len(cand)

        def embed(args, kwargs, vec):
            self._embedded.add((args[1], args[2].as_tuple()))

        def rescore(args, kwargs, scored):
            counts["rescore_kept"] += scored is not None

        def cluster_class(args, kwargs, clusters):
            counts["clusters"] += len(clusters)

        def fuse_candidates(args, kwargs, result):
            counts["fused_pre_filter"] += result.clusters
            counts["fused_kept"] += len(result.labels.detections)

        return {
            "motion.read_flow": read_flow,
            "motion.transfer_box": transfer_box,
            "propagation.build_candidates": build_candidates,
            "similarity.embed": embed,
            "similarity.rescore": rescore,
            "fusion.cluster_class": cluster_class,
            "fusion.fuse_candidates": fuse_candidates,
        }

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> tuple[dict, float]:
        """Self seconds per span name, and the summed duration of root spans."""
        child = [0.0] * len(self.spans)
        roots = 0.0
        for name_id, start, end, parent in self.spans:
            if parent < 0:
                roots += end - start
            else:
                child[parent] += end - start
        out = {name: 0.0 for name in self.names}
        for i, (name_id, start, end, parent) in enumerate(self.spans):
            out[self.names[name_id]] += (end - start) - child[i]
        return out, roots

    def durations(self, name: str) -> list[float]:
        """Duration of every span of one name, in call order."""
        name_id = self.names.index(name)
        return [end - start for nid, start, end, _ in self.spans if nid == name_id]

    def layer_metrics(self, wall_s: float) -> dict:
        """The per-layer metrics, keyed by name, as (value, unit) pairs."""
        c = self.counts
        self_s, roots = self.self_times()

        def ratio(num, den):
            return num / den if den else 0.0

        m = {}
        for name in self.names:
            m[name + "_calls"] = (c[name + "_calls"], "count")
            m[name + "_s"] = (self_s[name], "s")
        m["motion.sample_bilinear_us_per_call"] = (
            1e6 * ratio(self_s["motion.sample_bilinear"], c["motion.sample_bilinear_calls"]),
            "us",
        )
        m["motion.flow_mb_read"] = (c["flow_bytes"] / 1e6, "MB")
        m["motion.flow_reads_per_field"] = (ratio(c["motion.read_flow_calls"], len(self._fields)), "ratio")
        m["motion.transfer_box_kept_ratio"] = (
            ratio(c["transfer_box_kept"], c["motion.transfer_box_calls"]),
            "ratio",
        )
        m["propagation.hops"] = (c["hops"], "count")
        m["propagation.candidates"] = (c["candidates"], "count")
        m["similarity.embed_distinct_ratio"] = (
            ratio(len(self._embedded), c["similarity.embed_calls"]),
            "ratio",
        )
        m["similarity.rescore_kept_ratio"] = (
            ratio(c["rescore_kept"], c["similarity.rescore_calls"]),
            "ratio",
        )
        m["fusion.clusters"] = (c["clusters"], "count")
        m["fusion.post_kept_ratio"] = (ratio(c["fused_kept"], c["fused_pre_filter"]), "ratio")
        m["pipeline.run_pipeline_self_s"] = m.pop("pipeline.run_pipeline_s")
        m["trace.wall_s"] = (wall_s, "s")
        m["trace.unattributed_s"] = (wall_s - roots, "s")
        m["trace.spans"] = (len(self.spans), "count")
        return m

    def dump(self, path) -> None:
        payload = {
            "names": self.names,
            "spans": self.spans,
            "counts": dict(self.counts),
            "bindings": self.bindings,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
