"""Exception types shared across the library."""


class Error(Exception):
    """Base class for all stonepair errors."""


class DomainError(Error):
    """A partial operation was applied outside its domain of definition."""


class ParseError(Error):
    """Malformed textual input.  Carries a 1-based position when known, and
    the 0-based character offset when built by ``at``."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None,
                 offset: int | None = None):
        self.message = message
        self.line = line
        self.column = column
        self.offset = offset
        super().__init__(message, line, column)

    @classmethod
    def at(cls, message: str, text: str, offset: int) -> "ParseError":
        """The error at character ``offset`` of ``text``, by line and column."""
        line = text.count("\n", 0, offset) + 1
        return cls(message, line, offset - text.rfind("\n", 0, offset), offset)

    def __str__(self) -> str:
        if self.line is not None and self.column is not None:
            return f"{self.line}:{self.column}: {self.message}"
        if self.column is not None:
            return f"column {self.column}: {self.message}"
        return self.message


class LatticeError(Error):
    """A lattice-structure requirement (bounds, meets, joins) is not met."""


class SizeError(Error):
    """An exhaustive enumeration guard was exceeded."""


class PresentationError(Error):
    """A filter presentation does not describe a prime-filter fragment."""


class InternalInvariantError(Error):
    """An identity the theory guarantees has failed; this indicates a bug."""
