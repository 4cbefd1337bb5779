"""Exception hierarchy shared by all vdfield modules."""


class VdfError(Exception):
    """Base class for all library errors."""


class RankMismatch(VdfError):
    """Group elements (or cuts) of incompatible rank were combined."""


class IndeterminateValuation(VdfError):
    """The valuation cannot be read off: the series is zero modulo a
    finite truncation, so its true valuation is unknown."""


class TruncationUnreachable(VdfError):
    """A requested truncation level cannot be reached by finitely many
    terms of the grid (the target lies beyond every multiple of the
    expansion step in the lexicographic order)."""


class IntegrationGap(VdfError):
    """Asymptotic integration (or the dominant-balance step of the
    linear solver) has no single-term solution at the current depth."""

    def __init__(self, message, attempts=None):
        super().__init__(message)
        self.attempts = attempts or []


class NonDecreasingResidual(VdfError):
    """The linear solver's residual valuation failed to increase; this
    indicates a bug or an operator outside the solver's contract."""


class ConfigError(VdfError):
    """A field-configuration file is malformed or inconsistent."""


class ParseError(VdfError):
    """Syntax error in the expression grammar, or a malformed argument.

    Carries the line/column of the offending token when a token supplied
    one; line and column are None otherwise."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class UnboundSymbol(ParseError):
    """An expression referenced a generator name the field does not define."""
