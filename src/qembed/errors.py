"""Exception hierarchy shared across the package."""


class QembedError(Exception):
    """Base class for all package errors."""


# --- simulator ---------------------------------------------------------------

class QubitCapExceeded(QembedError):
    """Requested qubit count is outside the configured cap."""


class NonFiniteAngle(QembedError):
    """Rotation angle is NaN or infinite."""


class IndexOutOfRange(QembedError):
    """Qubit index does not exist on the target state."""


class DuplicateQubitIndex(QembedError):
    """A multi-qubit operation names the same qubit twice."""


# --- encoding ----------------------------------------------------------------

class EncodingError(QembedError):
    """Base class for encoder input errors."""


class EmptyInput(EncodingError):
    pass


class NonBinaryInput(EncodingError):
    pass


class NonAsciiCharacter(EncodingError):
    pass


class LengthMismatch(QembedError):
    pass


class DuplicateString(EncodingError):
    pass


class OutOfRangeFeature(EncodingError):
    """linear_pi angle map requires features in [0, 1]."""


class ZeroVector(EncodingError):
    pass


class NonFiniteInput(EncodingError):
    pass


class MissingQuantizer(EncodingError):
    """Basis encoding of continuous features needs a fitted quantizer."""


class InvalidScheme(EncodingError):
    """Scheme fields are inconsistent with its kind."""


class RowEncodeError(EncodingError):
    """Batch encoding failed on a specific row."""

    def __init__(self, row: int, cause: Exception):
        super().__init__(f"row {row}: {cause}")
        self.row = row
        self.cause = cause


# --- pipeline ----------------------------------------------------------------

class PipelineError(QembedError):
    """Base class for data-pipeline errors."""


class MissingColumn(PipelineError):
    pass


class UnparsableCell(PipelineError):
    def __init__(self, row: int, column: str, value: str):
        super().__init__(f"row {row}, column {column!r}: cannot parse {value!r}")
        self.row = row
        self.column = column
        self.value = value


class EmptyFile(PipelineError):
    pass


class ZeroVariance(PipelineError):
    pass


class UnknownColumn(PipelineError):
    pass


class SingleClass(PipelineError):
    pass


class ClassTooSmall(PipelineError):
    pass


class TooFewComponents(PipelineError):
    pass


class NonIncreasingRatios(PipelineError):
    pass


# --- models ------------------------------------------------------------------

class ModelError(QembedError):
    pass


class NonFiniteFeature(ModelError):
    pass


class DimensionMismatch(ModelError):
    pass


class InvalidHyperparameter(ModelError):
    pass


class InvalidLabel(ModelError):
    """A training label is not 0 or 1."""


# --- bench -------------------------------------------------------------------

class ConfigError(QembedError):
    pass


class EmptyResults(QembedError):
    pass
