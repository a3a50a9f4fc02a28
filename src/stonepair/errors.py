"""Exception types shared across the library."""


class Error(Exception):
    """Base class for all stonepair errors."""


class DomainError(Error):
    """A partial operation was applied outside its domain of definition."""


class ParseError(Error):
    """Malformed textual input at a 1-based line and column; ``at`` also
    keeps the 0-based character offset.  A file loader sets ``path``, and
    the message then names the file: ``path:line:column: message``."""

    def __init__(self, message: str, line: int, column: int, offset: int | None = None):
        self.message = message
        self.line = line
        self.column = column
        self.offset = offset
        self.path: str | None = None
        super().__init__(message, line, column)

    @classmethod
    def at(cls, message: str, text: str, offset: int) -> "ParseError":
        """The error at character ``offset`` of ``text``, by line and column;
        lines end where ``str.splitlines`` ends them, as in ``fo.read_lines``."""
        lines = (text[:offset] + "|").splitlines()
        return cls(message, len(lines), len(lines[-1]), offset)

    def __str__(self) -> str:
        where = f"{self.line}:{self.column}: {self.message}"
        return where if self.path is None else f"{self.path}:{where}"


class LatticeError(Error):
    """A lattice-structure requirement (bounds, meets, joins) is not met."""


class SizeError(Error):
    """An exhaustive enumeration guard was exceeded."""


class PresentationError(Error):
    """A filter presentation does not describe a prime-filter fragment."""


class InternalInvariantError(Error):
    """An identity the theory guarantees has failed; this indicates a bug."""
