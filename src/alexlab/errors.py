"""Exception hierarchy shared by the whole package, and the reading of the
environment variables that override computation limits.

The CLI maps these onto its exit-code contract: ParseError -> 1,
LimitError -> 2, DomainError -> 3.
"""

import os


class AlexlabError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(AlexlabError):
    """Malformed input text: presentation files, Thurston data, torus specs."""


class LimitError(AlexlabError):
    """A documented computation limit was exceeded (e.g. gcd variable count)."""


class DomainError(AlexlabError):
    """Mathematically invalid input: dimension mismatches, non-unimodular
    monodromies, out-of-hypothesis calls."""


def limit_from_env(name: str, default: int) -> int:
    """The integer in environment variable `name`, or `default` when unset."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise LimitError("%s must be an integer, got %r" % (name, raw))
