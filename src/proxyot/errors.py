"""Exception taxonomy shared by every module.

Each class maps to one process exit code and one stderr label so the CLI
can translate failures mechanically: usage errors exit 1, data/format errors
exit 2, numeric errors exit 3.
"""

from __future__ import annotations


class ProxyOTError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1
    label = "error"


class UsageError(ProxyOTError):
    """The caller asked for something invalid (bad argument, bad config)."""

    exit_code = 1
    label = "usage error"


class DataError(ProxyOTError):
    """An input file or data value violates its documented contract."""

    exit_code = 2
    label = "data error"


class NumericError(ProxyOTError):
    """A numeric computation left the finite range it was promised to stay in."""

    exit_code = 3
    label = "numeric error"


class NumericOverflowError(NumericError):
    """A transport solve left the float range.

    Raised when linear-domain scaling overflows, which a log-domain solver
    would survive, and when m/tau overflows, which every solver hits.
    """
