"""Exception hierarchy shared across the toolkit."""


class BiblioRankError(Exception):
    """Base class for all toolkit errors; ``exit_code`` is the command-line
    exit status of the class."""

    exit_code = 2


class ConfigError(BiblioRankError):
    """Invalid run configuration or command arguments."""

    exit_code = 1


class DataError(BiblioRankError):
    """Invalid or inconsistent input data."""


class ParseError(DataError):
    """An input file failed to parse.

    Carries the 1-based line number and, when known, the offending field
    and the file's path; reads ``line N: <message>[ (field: F)][ in <path>]``.
    """

    def __init__(self, message, line=None, field=None, path=None):
        super().__init__(message)
        self.message = message
        self.line = line
        self.field = field
        self.path = path

    def __str__(self):
        text = self.message if self.line is None else f"line {self.line}: {self.message}"
        if self.field is not None:
            text += f" (field: {self.field})"
        if self.path is not None:
            text += f" in {self.path}"
        return text


class GraphError(DataError):
    """Graph construction or lookup failure."""


class DegenerateTeleportError(DataError):
    """All raw teleport weights are zero; no distribution can be formed."""


class StatsError(DataError):
    """Degenerate statistical input (too few points, zero variance, ...)."""


class NonConvergenceError(BiblioRankError):
    """Power iteration hit the iteration cap; the run fails."""

    exit_code = 3
