"""Exception types shared across the package."""


class LcqnnError(ValueError):
    """Base class for validation errors raised by this package."""


class CapacityError(LcqnnError):
    """A requested register or block exceeds the supported simulation size."""


class EncodingError(LcqnnError):
    """An input vector cannot be amplitude-encoded."""


class ArchitectureError(LcqnnError):
    """Model architecture parameters are inconsistent."""


class IdxFormatError(LcqnnError):
    """An IDX file is malformed (bad magic, truncated payload, wrong shape) or unusable."""


class TrainingError(RuntimeError):
    """Training aborted (for example, the loss became non-finite)."""
