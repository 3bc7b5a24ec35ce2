"""Differentiable numerics: tensors, primitive ops with hand-derived
adjoints, attention/GRU building blocks, and finite-difference checking."""

from . import functional
from .attention import (
    AttentionParams,
    TransformerBlockParams,
    multi_head_self_attention,
    multi_head_self_attention_vjp,
    transformer_block,
    transformer_block_vjp,
)
from .gradcheck import DENOM_FLOOR, GradCheckReport, TensorCheck, grad_check
from .gru import (
    GruCellParams,
    bigru,
    bigru_vjp,
    gru_sequence,
    gru_sequence_vjp,
)
from .tensor import ParamGroup, Tensor

__all__ = [
    "AttentionParams",
    "DENOM_FLOOR",
    "GradCheckReport",
    "GruCellParams",
    "ParamGroup",
    "Tensor",
    "TensorCheck",
    "TransformerBlockParams",
    "bigru",
    "bigru_vjp",
    "functional",
    "grad_check",
    "gru_sequence",
    "gru_sequence_vjp",
    "multi_head_self_attention",
    "multi_head_self_attention_vjp",
    "transformer_block",
    "transformer_block_vjp",
]
