"""Computed (not measured) counts: GEMM operation counts and cache bytes.

The flop counts follow from the config geometry alone: they are what the
network's matrix products must do per forward pass, to be set against
the measured self time of the kernels that do them. The cache figures
come from walking the cache that `model.network.forward` returns.
"""

from __future__ import annotations

import numpy as np


def conv_forward_flops(cfg) -> float:
    """Multiply-adds x 2 of the waveform branch's im2col GEMMs, one example."""
    flops = 0.0
    lengths = cfg.conv_lengths()
    c_in = 1
    for c_out, l_out in zip(cfg.cnn.channel_widths, lengths[1:]):
        flops += 2.0 * c_out * c_in * cfg.cnn.kernel * l_out
        c_in = c_out
    return flops


def attention_forward_flops(cfg) -> float:
    """GEMM flops of all self-attention layers, one example.

    Per layer: the q/k/v and output projections (4 x N x D x D) and the
    score and context products (2 x N x N x D), each multiply-add
    counted as 2 flops.
    """
    n, d = cfg.num_patches, cfg.ast.embed_dim
    per_layer = 2.0 * (4 * n * d * d + 2 * n * n * d)
    return per_layer * cfg.ast.depth


def _root_array(array: np.ndarray) -> np.ndarray:
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def cache_bytes(cache) -> tuple[int, int]:
    """(total bytes, float64 bytes) of the distinct arrays a cache retains.

    Views count as the array they view, once. Parameter tensors and the
    config are not arrays and are skipped: they outlive the cache.
    """
    seen: dict[int, np.ndarray] = {}
    pending = [cache]
    while pending:
        item = pending.pop()
        if isinstance(item, np.ndarray):
            root = _root_array(item)
            seen[id(root)] = root
        elif isinstance(item, (tuple, list)):
            pending.extend(item)
    total = sum(array.nbytes for array in seen.values())
    f64 = sum(array.nbytes for array in seen.values() if array.dtype == np.float64)
    return total, f64
