"""Exception hierarchy shared across the package."""


class QkdflError(Exception):
    """Base class for all package-specific errors."""


class DegenerateSessionError(QkdflError):
    """A key-agreement session produced an empty sifted key."""


class InvalidPairError(QkdflError):
    """A pairwise key was requested for an invalid client pair (i == j)."""


class AggregationShapeError(QkdflError):
    """Masked updates submitted for aggregation are structurally incompatible."""


class ProtocolError(QkdflError):
    """Masked updates mix masking contexts, repeat a client or miss part of the cohort."""


class UndefinedProxyError(QkdflError):
    """A leakage proxy is undefined for the given inputs (zero norm/variance)."""


class DivergenceError(QkdflError):
    """Local training produced a non-finite loss, or a masked aggregate is not finite."""


class TrainerExitError(QkdflError):
    """A forked worker (a client trainer or a keystream expander) exited
    without sending its results."""


class LayerStateError(QkdflError):
    """A layer's backward ran without a forward of its own to consume."""


class ConfigError(QkdflError):
    """An experiment configuration is missing or malformed."""


class DatasetFormatError(QkdflError, ValueError):
    """A dataset container is truncated, has trailing bytes or a bad header."""
