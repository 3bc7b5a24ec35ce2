"""wlann: dual-branch waveform + log-mel respiratory sound classification.

A self-contained desk-scale stack: corpus ingestion, deterministic DSP,
a hand-verified differentiable-numerics substrate, the dual-branch
network with Bi-GRU context modeling, focal-loss training, and the
sensitivity/specificity challenge scoring protocol.

Importing the package pins BLAS to one thread unless the variable is
already set: the thread count changes how a GEMM is summed, so results
are bitwise reproducible only at a fixed count. `train_step` runs its
own two threads and `evaluate` its `jobs`. The pin takes effect only if
NumPy has not been loaded before `wlann`, as with the `wlann` command;
otherwise BLAS keeps its default count and the import warns with
`BlasThreadsWarning`, unless one of the variables was set beforehand.
"""

import os
import sys
import warnings

BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class BlasThreadsWarning(UserWarning):
    """NumPy was loaded before `wlann` with no BLAS thread variable set, so the pin came late."""


if "numpy" in sys.modules and not any(name in os.environ for name in BLAS_THREAD_VARIABLES):
    warnings.warn(
        "NumPy was imported before wlann and no BLAS thread variable was set, so BLAS runs "
        "at its default thread count: GEMM bits differ from the wlann command's, and the "
        "two-thread training step is slower. Import wlann first, or set OPENBLAS_NUM_THREADS.",
        BlasThreadsWarning,
        stacklevel=2,
    )
for _variable in BLAS_THREAD_VARIABLES:
    os.environ.setdefault(_variable, "1")

__version__ = "0.1.0"
