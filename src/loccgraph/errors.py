"""The package's error taxonomy: the kinds of failure callers branch on.

* InputError    -- malformed input or an unmet precondition;
* BoundExceeded -- a configured bound was hit (coloring bound, search
                   budget, tree-enumeration bound), so no answer was reached;
* IllegalMove   -- an LOCC move whose precondition fails in its state;
* AssertionError, raised only by `require` -- an internal inconsistency.
"""


class LoccError(Exception):
    """Base class for every error raised by this package."""


class InputError(LoccError, ValueError):
    """Malformed input or an unmet precondition.  `line` is the 1-based
    line of the text input it was found on, when there is one."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class BoundExceeded(LoccError):
    pass


class IllegalMove(LoccError):
    pass


def require(holds: bool, claim: str) -> None:
    """An invariant check that, unlike `assert`, survives `python -O`."""
    if not holds:
        raise AssertionError(claim)
