"""Exception types shared across the library, and the file-type check
every reader makes before it opens an input.

The CLI maps these onto stable exit codes; library callers can catch
the base class or the specific failure they care about.
"""

import os
import stat


class TqdError(Exception):
    """Base class for all library errors."""


class DataError(TqdError):
    """Malformed, empty, or non-finite input data (manifests, scores, specs)."""


class SamplingError(TqdError):
    """Batch preparation could not produce a batch (no retainable samples,
    rejection-attempt cap exceeded)."""


class NumericError(TqdError):
    """A numeric invariant broke at runtime (NaN loss, non-finite activation,
    failed statistical check)."""


class CheckpointError(TqdError):
    """A checkpoint file is corrupt or does not match the requested model."""


class UsageError(TqdError):
    """Bad command-line arguments or flag combinations."""


def regular_file_size(path, what: str, error: type[Exception] = OSError) -> int:
    """The size in bytes of the regular file at path.

    A directory, device or FIFO raises error before anything opens it:
    reading /dev/zero never ends, and opening a FIFO blocks until a
    writer comes. A path os.stat cannot follow raises its OSError.
    """
    info = os.stat(path)
    if not stat.S_ISREG(info.st_mode):
        raise error(f"{what} {path} is not a regular file")
    return info.st_size
