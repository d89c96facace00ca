"""Exception hierarchy shared across the toolkit."""


class KnnmtError(Exception):
    """Base class for all toolkit errors."""


class MalformedDumpError(KnnmtError):
    """A representation dump violates its declared header (dim, vocab, lang)."""


class EmptyDatastoreError(KnnmtError):
    """Tried to build a datastore from an empty dump."""


class IncompatibleStoresError(KnnmtError):
    """Stores cannot be merged (dim or vocabulary mismatch)."""


class DimensionMismatchError(KnnmtError):
    """Vector or matrix dimensions do not agree."""


class InsufficientEntriesError(KnnmtError):
    """k, or a cell-probe index's cell count, exceeds the number of stored entries."""


class EmptyInputError(KnnmtError):
    """An operation received an empty collection it cannot work with."""


class CorruptFileError(KnnmtError):
    """Bad magic bytes or truncated binary file."""


class EmptyRetrievalError(KnnmtError):
    """Retrieval returned no neighbors; caller must fall back to the base model."""


class UntrainedModelError(KnnmtError):
    """The toy model was given no training data."""


class EmptyPairsError(KnnmtError):
    """No aligned training pairs could be extracted."""


class SingularSystemError(KnnmtError):
    """Normal equations are singular; retry with ridge > 0."""


class NoOverlapError(KnnmtError):
    """Two context dumps share no sentences."""


class IncompleteTableError(KnnmtError):
    """A score table is missing required languages."""


class InsufficientDataError(KnnmtError):
    """Not enough observations for the statistic."""


class ScaleMismatchError(KnnmtError):
    """Scores on different scales cannot be combined."""


class UndefinedReferenceError(KnnmtError):
    """A reference sentence is empty, leaving the metric undefined."""
