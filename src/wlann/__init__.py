"""wlann: dual-branch waveform + log-mel respiratory sound classification.

A self-contained desk-scale stack: corpus ingestion, deterministic DSP,
a hand-verified differentiable-numerics substrate, the dual-branch
network with Bi-GRU context modeling, focal-loss training, and the
sensitivity/specificity challenge scoring protocol.

Importing the package pins BLAS to one thread unless the variable is
already set: the thread count changes how a GEMM is summed, so results
are bitwise reproducible only at a fixed count. `train_step` runs its
own two threads and `evaluate` its `jobs`. The pin takes effect only if
NumPy has not been loaded before `wlann`, as with the `wlann` command.
"""

import os

BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _variable in BLAS_THREAD_VARIABLES:
    os.environ.setdefault(_variable, "1")

__version__ = "0.1.0"
