"""Exception taxonomy shared by all wlann modules.

The CLI maps these onto its exit-code contract: validation problems exit
with 1, storage problems with 2, numeric failures with 3.
"""


class WlannError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(WlannError):
    """Invalid domain data: bad labels, bad intervals, bad manifests."""


class FormatError(ValidationError):
    """Malformed file content (WAV header, annotation document, config)."""


class ShapeError(ValidationError):
    """Tensor or signal shapes or dtypes violate an operation's contract."""


class ConfigError(ValidationError):
    """A configuration value breaks a structural invariant."""


class StorageError(WlannError):
    """I/O failure: unreadable, unwritable, or truncated files."""


class NumericError(WlannError):
    """Non-finite values or a failed numeric verification."""


class CheckpointError(StorageError):
    """Checkpoint container problems, with a machine-readable code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


CHECKPOINT_BAD_MAGIC = "bad_magic"
CHECKPOINT_TRUNCATED = "truncated_payload"
CHECKPOINT_TRAILING_BYTES = "trailing_bytes"
CHECKPOINT_SHAPE_MISMATCH = "shape_mismatch"
CHECKPOINT_MISSING_TENSOR = "missing_tensor"
