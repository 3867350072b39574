"""Exception taxonomy shared across the package.

Every failure surfaced to callers derives from :class:`LocodecError` so the
command line can map pipeline errors to a single exit code while malformed
inputs (files, configs) are distinguished by their concrete class.
"""


class LocodecError(Exception):
    """Base class for all package errors."""


class FormatError(LocodecError):
    """A file or blob does not parse as the expected format."""


class IntegrityError(LocodecError):
    """Parsed data violates a structural invariant (lengths, finiteness, labels)."""


class UnsupportedRateError(LocodecError):
    """A session is not at the canonical rate, or a raw rate does not
    decimate to it by an integer factor."""


class SplitError(LocodecError):
    """A sequential split would produce a segment too short to window."""


class FilterDesignError(LocodecError):
    """Invalid filter design parameters (edges vs Nyquist, unsupported order)."""


class ShapeError(LocodecError):
    """Tensor operands have incompatible shapes."""


class SpecMismatchError(LocodecError):
    """A stored decoder state does not match the expected family or layout."""


class ModelLoadError(LocodecError):
    """A model file is truncated, corrupt, or has an unknown version."""


class DivergenceError(LocodecError):
    """Training loss became non-finite."""

    def __init__(self, epoch: int, lr: float):
        super().__init__(f"non-finite training loss at epoch {epoch} (lr={lr})")
        self.epoch = epoch
        self.lr = lr


class DegenerateDataError(LocodecError):
    """Statistic undefined on this input (constant data, all-zero differences)."""


class FitError(LocodecError):
    """Least-squares design matrix is rank deficient."""


class PlanError(LocodecError):
    """Experiment plan is inconsistent with the session roster."""


class ConfigError(LocodecError):
    """Run configuration failed to parse or contains unknown keys."""


class OffsetError(ConfigError, ValueError):
    """A time offset that is not a whole number of samples: a malformed
    input, and a ValueError to callers of the windowing functions."""


class LeakageError(LocodecError):
    """A data-hygiene assertion failed: test samples reached a fitting stage."""
