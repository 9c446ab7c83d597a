"""Cap-table ingestion.

Files are UTF-8, comma-delimited, with a required header row; one leading
byte-order mark is dropped. Two layouts:

    agent_id,share,bid      full instance, ready to run
    agent_id,share          table only (no bids)

Share and bid numerals may be decimals ("0.3") or fractions ("3/10"); both
parse exactly, decimals via exact powers of ten. A numeral may be at most
1,000 characters long, with a decimal exponent within ±1,000. Shares must
sum to exactly 1 unless the caller asks for normalization, which rescales
by exact division.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from .core import Allocation, BidProfile, MbmConfig, _built, _OnRead, _reduced
from .errors import DuplicateAgentId, NumeralOutOfBounds, ParseError, SharesDontSumToOne
from .rational import Rational, as_ratio, parse_ratio, ratio_str, rational

_HEADERS = (("agent_id", "share", "bid"), ("agent_id", "share"))


@dataclass(frozen=True)
class CapTableRecord:
    """One shareholder row: unique label, exact share, optional bid.

    Each record keeps its share and bid as (p, q) pairs in ``_ratios``; one
    from ``parse_captable`` makes the rationals when they are first read."""

    agent_id: str
    share: Rational = _OnRead(lambda r, _: Rational(*r._ratios[0]))
    bid: Rational | None = _OnRead(lambda r, _: r._ratios[1] and Rational(*r._ratios[1]), None)

    def __post_init__(self):
        ratios = (x if x is None else as_ratio(rational(x)) for x in (self.share, self.bid))
        object.__setattr__(self, "_ratios", tuple(ratios))


def _cell_ratio(text: str, row: int, column: int, what: str) -> tuple:
    try:
        p, q = parse_ratio(text)
    except NumeralOutOfBounds as exc:
        raise ParseError(str(exc), row=row, column=column) from exc
    except (ValueError, TypeError) as exc:
        raise ParseError(f"not a number: {text!r}", row=row, column=column) from exc
    if p < 0:
        raise ParseError(f"negative {what} {ratio_str(p, q)}", row=row, column=column)
    return p, q


def parse_captable(source, normalize: bool = False) -> list:
    """Parse cap-table text (a string or a readable) into records.

    Raises ParseError with 1-based row/column on malformed cells (with the
    row alone on text the csv reader refuses, such as an oversized field),
    DuplicateAgentId on repeated labels, and SharesDontSumToOne when the
    share column is off the simplex and ``normalize`` is false.
    """
    if hasattr(source, "read"):
        source = source.read()
    # spreadsheet "CSV UTF-8" exports start with a byte-order mark
    source = source.removeprefix("\ufeff")
    reader = csv.reader(io.StringIO(source))
    try:
        # each kept row with its physical line, so blank lines keep the count
        rows = [([cell.strip() for cell in row], reader.line_num) for row in reader if row]
    except csv.Error as exc:  # a field past csv's size limit, say
        raise ParseError(str(exc), row=reader.line_num) from exc
    if not rows:
        raise ParseError("empty cap table", row=1)

    (header_cells, header_line), *body = rows
    header = tuple(cell.lower() for cell in header_cells)
    if header not in _HEADERS:
        raise ParseError(
            f"header must be 'agent_id,share[,bid]', got {','.join(header_cells)!r}",
            row=header_line,
        )
    has_bids = len(header) == 3

    records = []
    seen_ids = set()
    for row, line in body:
        if len(row) != len(header):
            raise ParseError(f"expected {len(header)} fields, got {len(row)}", row=line)
        agent_id = row[0]
        if not agent_id:
            raise ParseError("empty agent_id", row=line, column=1)
        if agent_id in seen_ids:
            raise DuplicateAgentId(f"agent_id {agent_id!r} appears more than once")
        seen_ids.add(agent_id)
        share = _cell_ratio(row[1], line, 2, "share")
        bid = _cell_ratio(row[2], line, 3, "bid") if has_bids else None
        records.append((agent_id, share, bid))

    if not records:
        raise ParseError("cap table has a header but no rows", row=header_line + 1)

    # the shares as integers over their lcm: share i is a[i] / d
    a, d = _reduced(*[((p,), q) for _, (p, q), _ in records])
    total = sum(a)
    if normalize and total:
        d = total
    if total != d:
        raise SharesDontSumToOne(Rational(total, d))
    return [
        _built(CapTableRecord, agent_id=agent_id, _ratios=((x, d), bid))
        for (agent_id, _, bid), x in zip(records, a)
    ]


def to_instance(records, m_bar: int):
    """Build (Allocation, BidProfile, MbmConfig) from parsed records.

    Every record must carry a bid; table-only files cannot be run. The
    shares are not checked here: ``parse_captable`` rejects negative and
    non-summing shares, and the engine checks the simplex on every run.
    """
    missing = [r.agent_id for r in records if r._ratios[1] is None]
    if missing:
        raise ParseError(f"cap table has no bid column; cannot run for agents {missing}")
    config = MbmConfig(n=len(records), m_bar=m_bar)  # n > 2 before the forms are built
    shares, bids = zip(*(r._ratios for r in records))
    initial = Allocation._from_form(*_reduced(*[((p,), q) for p, q in shares]))
    return initial, BidProfile._from_form(*_reduced(*[((p,), q) for p, q in bids])), config
