"""Exception types shared across the package.

The CLI maps these to exit codes: InputError -> 3, GuardExceeded -> 4,
CheckFailed (a theorem-backed identity broke) -> 2.
"""


class TowerlimError(Exception):
    """Base class for package errors.

    Keyword arguments name where it happened (family, level, rep, limit,
    ...) and are kept in `context`.
    """

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.context = context


class InputError(TowerlimError):
    """Invalid user input (config, arguments, preconditions)."""


class GuardExceeded(TowerlimError):
    """A desk-scale resource guard would be exceeded; `context` names the
    guard's `limit` and the measured size."""


class CheckFailed(TowerlimError):
    """An identity that must hold failed; indicates a bug or a broken theorem."""
