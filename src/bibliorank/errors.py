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
    """A corpus or table file failed to parse.

    Carries the 1-based line number and, when known, the offending field.
    """

    def __init__(self, message, line=None, field=None):
        self.line = line
        self.field = field
        prefix = ""
        if line is not None:
            prefix = f"line {line}: "
        if field is not None:
            message = f"{message} (field: {field})"
        super().__init__(prefix + message)


class GraphError(DataError):
    """Graph construction or lookup failure."""


class DegenerateTeleportError(DataError):
    """All raw teleport weights are zero; no distribution can be formed."""


class StatsError(DataError):
    """Degenerate statistical input (too few points, zero variance, ...)."""


class NonConvergenceError(BiblioRankError):
    """Power iteration hit the iteration cap under a strict run."""

    exit_code = 3
