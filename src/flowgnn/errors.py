"""Exception types raised across the package."""


class FlowDataError(Exception):
    """Base class for ingestion and dataset construction failures."""


class MissingColumn(FlowDataError):
    """A column named by the schema is absent from the file header."""


class NonNumericFeature(FlowDataError):
    """A feature cell failed to parse as a finite number (strict mode)."""


class EmptySample(FlowDataError):
    """A flow file contained a header but zero data rows."""


class InconsistentDimension(FlowDataError):
    """Samples in one dataset disagree on the feature dimension."""


class UnknownLabel(FlowDataError):
    """A label is not part of the declared class set, or not a valid index."""


class EmptyInput(FlowDataError):
    """An aggregation was requested over zero rows."""


class EmptyGraph(FlowDataError):
    """A graph operation was requested on a graph without edges."""


class InsufficientClassSize(FlowDataError):
    """A class has fewer samples than the per-class training quota."""


class NeuralNetError(Exception):
    """Base class for tensor and training failures."""


class ShapeMismatch(NeuralNetError):
    """Operand shapes are incompatible for the requested operation."""


class BatchTooSmall(NeuralNetError):
    """Batch normalization in train mode needs at least two rows."""


class NotScalarLoss(NeuralNetError):
    """backward() was called on a tensor that is not a 1x1 scalar."""


class NumericalError(NeuralNetError):
    """A forward operation produced a NaN or infinite entry."""


class CheckpointError(ValueError):
    """A checkpoint field is missing, of the wrong type or not decodable."""
