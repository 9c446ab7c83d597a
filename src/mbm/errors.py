"""Exception hierarchy for the mbm package."""

from __future__ import annotations


class MbmError(Exception):
    """Base class for every error raised by this package."""


class DuplicateBids(MbmError):
    """Two or more agents submitted identical bids.

    The mechanism is only defined for tie-free bid profiles; callers must
    perturb or reject tied inputs. ``pairs`` lists the colliding agent
    index pairs.
    """

    def __init__(self, pairs):
        self.pairs = [tuple(p) for p in pairs]
        listing = ", ".join(f"({i}, {j})" for i, j in self.pairs)
        super().__init__(f"tied bids between agent pairs: {listing}")


class InvalidConfig(MbmError):
    """Mechanism configuration outside its domain (needs n > 2, 1 < m_bar < n)."""


class InvalidAllocation(MbmError):
    """Allocation violates its structural contract (negative share, off-simplex, length mismatch)."""


class DegenerateBuyerMass(MbmError):
    """Every prospective buyer in the branch holds a zero initial share.

    The buyer scaling factor divides by the combined buyer share, so the
    branch is undefined for such inputs.
    """


class SearchBudgetExceeded(MbmError):
    """A brute-force deviation search would exceed its evaluation cap.

    Raised instead of silently subsampling: a property verified on a
    subsample is not verified.
    """

    def __init__(self, required: int, budget: int):
        self.required = required
        self.budget = budget
        super().__init__(
            f"coalition search needs {required} evaluations, cap is {budget}"
        )


class SpecInvalid(MbmError):
    """An InstanceSpec fails validation (bad n, m_bar, or model name)."""


class InvalidAlpha(MbmError):
    """Retained-owner fraction alpha must satisfy alpha * n integer in [2, n - 1]."""


class ParseError(MbmError):
    """Cap-table text could not be parsed; carries the 1-based row/column."""

    def __init__(self, message: str, row: int | None = None, column: int | None = None):
        self.row = row
        self.column = column
        where = ""
        if row is not None:
            where = f"row {row}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)


class NumeralOutOfBounds(MbmError, ValueError):
    """A numeral is too long, or its decimal exponent too large, to parse.

    Refused before any integer is built, so hostile text cannot cost
    unbounded time or memory.
    """


class InvalidNumeral(MbmError, ValueError):
    """Text that is not a rational literal in fraction, integer or decimal notation."""


class InvalidArgument(MbmError):
    """A command-line value or MBM_SEED that does not parse, or a negative search budget."""


class SharesDontSumToOne(MbmError):
    """Cap-table shares must total exactly 1 (pass normalize to rescale)."""

    def __init__(self, total):
        from .rational import rational_str  # rational imports this module
        self.total = total
        super().__init__(f"shares sum to {rational_str(total)}, expected exactly 1")


class DuplicateAgentId(MbmError):
    """Cap-table agent labels must be unique."""
