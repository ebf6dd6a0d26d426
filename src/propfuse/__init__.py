"""Motion-guided label propagation and box fusion for video detections.

The package turns per-frame detector output plus dense motion fields into
denser, steadier pseudo labels: neighbouring frames' boxes are carried to a
target frame along composed motion, optionally re-scored by visual
similarity, and merged by weighted box fusion (or classic NMS-family
baselines). A synthetic-sequence generator and an AP/mAP evaluator make the
whole loop testable without any real data.
"""

from importlib import import_module

from .errors import (
    CliUsageError,
    EmbeddingLookupError,
    EmptyCropError,
    FlowFormatError,
    FlowLengthError,
    MissingFlowError,
    PropfuseError,
    SceneValidationError,
    ValidationError,
    VocabularyError,
)
from .fusion import FusionConfig, FusionResult, fuse, fuse_candidates, nms, nmw, soft_nms
from .geometry import BBox, Detection, FrameSize, LabelSet, clip_to_frame, iou
from .io import DetectionRecord, read_detections, read_frame, write_detections, write_frame
from .manifest import SequenceManifest, load_manifest
from .motion import (
    ComposedMotion,
    FlowStore,
    Frame,
    MotionField,
    constant_field,
    read_flow,
    transfer_box,
    write_flow,
)
from .pipeline import PipelineConfig, PipelineRun, load_config, run_pipeline
from .propagation import CandidateSet, build_candidates
from .similarity import (
    FallbackProvider,
    FeatureVector,
    PatchDescriptor,
    PrecomputedEmbeddings,
    cosine_sim,
    rescore,
)

__version__ = "0.1.0"

# The names of ``synth`` and ``evaluation``, which a pipeline run never uses,
# resolve on first access (PEP 562), so that importing the package does not
# compile those modules. Each access reads the module's current binding, so
# nothing is stored here that could go stale.
_ON_DEMAND = {
    "DetectorNoise": "synth",
    "ObjectSpec": "synth",
    "SceneSpec": "synth",
    "SequenceBundle": "synth",
    "generate": "synth",
    "write_bundle": "synth",
    "ConsistencyReport": "evaluation",
    "EvalReport": "evaluation",
    "average_precision": "evaluation",
    "evaluate": "evaluation",
    "self_consistency": "evaluation",
}


def __getattr__(name: str):
    module = _ON_DEMAND.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


__all__ = [
    "BBox",
    "CandidateSet",
    "CliUsageError",
    "ComposedMotion",
    "ConsistencyReport",
    "Detection",
    "DetectionRecord",
    "DetectorNoise",
    "EmbeddingLookupError",
    "EmptyCropError",
    "EvalReport",
    "FallbackProvider",
    "FeatureVector",
    "FlowFormatError",
    "FlowLengthError",
    "FlowStore",
    "Frame",
    "FrameSize",
    "FusionConfig",
    "FusionResult",
    "LabelSet",
    "MissingFlowError",
    "MotionField",
    "ObjectSpec",
    "PatchDescriptor",
    "PipelineConfig",
    "PipelineRun",
    "PrecomputedEmbeddings",
    "PropfuseError",
    "SceneSpec",
    "SceneValidationError",
    "SequenceBundle",
    "SequenceManifest",
    "ValidationError",
    "VocabularyError",
    "average_precision",
    "build_candidates",
    "clip_to_frame",
    "constant_field",
    "cosine_sim",
    "evaluate",
    "fuse",
    "fuse_candidates",
    "generate",
    "iou",
    "load_config",
    "load_manifest",
    "nms",
    "nmw",
    "read_detections",
    "read_flow",
    "read_frame",
    "rescore",
    "run_pipeline",
    "self_consistency",
    "soft_nms",
    "transfer_box",
    "write_bundle",
    "write_detections",
    "write_flow",
    "write_frame",
    "__version__",
]
