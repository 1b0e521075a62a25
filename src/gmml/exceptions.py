"""Exception hierarchy shared across the package."""


class GmmlError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(GmmlError):
    """Operands have incompatible dimensions."""


class NotPositiveDefinite(GmmlError):
    """A matrix required to be symmetric positive definite is not."""


class ConvergenceError(GmmlError):
    """An iterative factorization failed to converge."""


class SingularScatter(GmmlError):
    """A scatter matrix is singular or near-singular.

    Attributes
    ----------
    which : str
        Either ``"similarity"`` or ``"dissimilarity"``, naming the matrix
        that failed the positive-definiteness check.
    detail : str
        What the check found, which a caller adding context extends.
    """

    def __init__(self, which: str, detail: str = ""):
        self.which = which
        self.detail = detail
        msg = (
            f"{which} scatter matrix is singular or near-singular"
            f"{': ' + detail if detail else ''}; "
            "increase --lambda above 0 for a regularized solve"
        )
        super().__init__(msg)


class DataError(GmmlError):
    """Base class for dataset/metric/report file errors."""


class ParseError(DataError):
    """A file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class InconsistentWidth(ParseError):
    """Rows of a delimited file have differing column counts."""


class EmptyFile(DataError):
    """A file contains no data rows."""


class VersionMismatch(DataError):
    """A metric file declares an unsupported format version."""


class CorruptMatrix(DataError):
    """A stored metric fails validation on load."""
