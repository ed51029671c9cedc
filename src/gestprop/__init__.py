"""Multimodal prediction of co-speech gesture properties.

A small research toolkit covering the full pipeline: prosodic and lexical
feature extraction from audio + time-aligned transcripts, frame-level label
encoding of gesture annotations at 20 fps, a dual-encoder dilated-convolution
classifier with in-repo reverse-mode autodiff, chance baselines, a Macro-F1
cross-validation protocol, and a synthetic corpus generator with planted
text/audio couplings used by the acceptance suite.
"""

__version__ = "0.1.0"

from .corpus import (
    CATEGORY,
    PHASE,
    PRESENCE,
    SEMANTICS,
    FrameTable,
    PropertySchema,
    Recording,
    build_frame_table,
    encode_labels,
    load_manifest,
    make_folds_between,
    make_folds_within,
    rasterize,
)
from .evaluation import (
    aggregate_folds,
    baseline_predict,
    binarize,
    evaluate_property,
    f1_scores,
)
from .experiment import ExperimentConfig, run_baselines, run_cv, run_features
from .features import FrameDataset, WindowProvider, build_features, load_dataset
from .net import DecoderSpec, EncoderSpec, ModelSpec, load_checkpoint, save_checkpoint
from .prosody import AudioClip, ProsodyTrack, extract_prosody
from .synth import SynthSpec, generate_synthetic_corpus, preset
from .textfeat import load_embeddings
from .training import LossSpec, TrainConfig

__all__ = [
    "AudioClip",
    "CATEGORY",
    "DecoderSpec",
    "EncoderSpec",
    "ExperimentConfig",
    "FrameDataset",
    "FrameTable",
    "LossSpec",
    "ModelSpec",
    "PHASE",
    "PRESENCE",
    "ProsodyTrack",
    "PropertySchema",
    "Recording",
    "SEMANTICS",
    "SynthSpec",
    "TrainConfig",
    "WindowProvider",
    "aggregate_folds",
    "baseline_predict",
    "binarize",
    "build_features",
    "build_frame_table",
    "encode_labels",
    "evaluate_property",
    "extract_prosody",
    "f1_scores",
    "generate_synthetic_corpus",
    "load_checkpoint",
    "load_dataset",
    "load_embeddings",
    "load_manifest",
    "make_folds_between",
    "make_folds_within",
    "preset",
    "rasterize",
    "run_baselines",
    "run_cv",
    "run_features",
    "save_checkpoint",
]
