"""Exception types shared across the package."""


class VlrmergeError(Exception):
    """Base class for all errors raised by this package."""


class CheckpointFormatError(VlrmergeError):
    """Checkpoint file violates the on-disk format or its invariants."""


class InputChangedError(VlrmergeError):
    """An input file changed while a merge was reading it."""


class InsufficientMemoryError(VlrmergeError):
    """One merge worker's buffers, ``needed`` bytes, exceed the ``available`` bytes this process may use."""

    def __init__(self, needed: int, available: int):
        self.needed, self.available = needed, available
        mib = 1 << 20
        super().__init__(
            f"one merge worker needs about {needed / mib:.1f} MiB (its block buffers, and for ties the ranking key "
            f"of the largest transformer tensor), but this process may use only {available / mib:.1f} MiB"
        )


class NonFiniteWeightError(VlrmergeError):
    """An input weight that a merge reads is NaN or infinite."""


class VocabError(VlrmergeError):
    """Vocabulary sidecar is malformed or inconsistent with its embedding."""


class ClassificationError(VlrmergeError):
    """One or more tensor names could not be assigned a component role."""

    def __init__(self, unmatched: list[str]):
        self.unmatched = list(unmatched)
        super().__init__(
            "unmatched tensor names (no classification rule applies): "
            + ", ".join(self.unmatched)
        )


class TripleValidationError(VlrmergeError):
    """The (pre, lvlm, rm) checkpoint triple is not mergeable."""

    def __init__(self, report: list[str]):
        self.report = list(report)
        super().__init__("triple validation failed:\n  " + "\n  ".join(self.report))


class RecipeError(VlrmergeError):
    """Merge recipe fields are missing or out of range for the method."""


class DatasetError(VlrmergeError):
    """Evaluation input file is malformed."""


class ScorerError(VlrmergeError):
    """External scorer failed, timed out, or returned unusable replies."""
