"""Exception types shared across the toolkit."""


class SentaxisError(Exception):
    """Base class for all toolkit errors."""


class ParseError(SentaxisError):
    """A file violated its declared format.

    Carries the source path and 1-based line number when known.
    """

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f"{path}:"
        if line is not None:
            loc = f"{loc}{line}:"
        super().__init__(f"{loc} {message}" if loc else message)
        self.path = path
        self.line = line


class EmptyInputError(SentaxisError):
    """An input file or collection held no usable content."""


class ConfigError(SentaxisError):
    """Invalid configuration or parameter combination."""


class DegenerateVectorError(SentaxisError):
    """Cosine geometry requested on a zero vector."""


class InsufficientDataError(SentaxisError):
    """Too few usable items to carry out an operation."""


class NoQualifyingPhrasesError(SentaxisError):
    """No extracted phrase survived the frequency cutoff."""

    def __init__(self, cutoff):
        super().__init__(f"no phrase reaches frequency cutoff {cutoff}")
        self.cutoff = cutoff


class DegenerateMatrixError(SentaxisError):
    """A matrix has no variance left to analyze."""


class PartitionError(SentaxisError):
    """A word partition came out one-sided."""


class SeedMissingError(SentaxisError):
    """A seed word is absent from the vocabulary or corpus."""


class AmbiguousOrientationError(SentaxisError):
    """Both reference vectors are equidistant from the seed."""


class PipelineError(SentaxisError):
    """A pipeline stage failed; wraps the original error."""

    def __init__(self, stage, cause):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
