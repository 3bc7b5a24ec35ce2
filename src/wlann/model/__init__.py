"""Model assembly: configuration, preprocessing pipeline, and the network."""

from .config import (
    AstBranchConfig,
    AugmentConfig,
    BandpassConfig,
    CnnBranchConfig,
    OptimizerConfig,
    WlannConfig,
)
from .network import (
    ConvLayerParams,
    WlannParams,
    ast_branch,
    ast_branch_vjp,
    backward,
    classify_head,
    classify_head_vjp,
    extract_patches,
    forward,
    fuse,
    fuse_vjp,
    predict_scores,
    waveform_branch,
    waveform_branch_vjp,
)
from .pipeline import pad_or_crop_center, prepare_input

__all__ = [
    "AstBranchConfig",
    "AugmentConfig",
    "BandpassConfig",
    "CnnBranchConfig",
    "ConvLayerParams",
    "OptimizerConfig",
    "WlannConfig",
    "WlannParams",
    "ast_branch",
    "ast_branch_vjp",
    "backward",
    "classify_head",
    "classify_head_vjp",
    "extract_patches",
    "forward",
    "fuse",
    "fuse_vjp",
    "pad_or_crop_center",
    "predict_scores",
    "prepare_input",
    "waveform_branch",
    "waveform_branch_vjp",
]
