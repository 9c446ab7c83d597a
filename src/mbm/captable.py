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

from .core import Allocation, BidProfile, MbmConfig, _over_lcm
from .errors import DuplicateAgentId, NumeralOutOfBounds, ParseError, SharesDontSumToOne
from .rational import Rational, rational

_HEADERS = (("agent_id", "share", "bid"), ("agent_id", "share"))


@dataclass(frozen=True)
class CapTableRecord:
    """One shareholder row: unique label, exact share, optional bid."""

    agent_id: str
    share: Rational
    bid: Rational | None = None


def _cell_rational(text: str, row: int, column: int) -> Rational:
    try:
        return rational(text)
    except NumeralOutOfBounds as exc:
        raise ParseError(str(exc), row=row, column=column) from exc
    except (ValueError, TypeError) as exc:
        raise ParseError(f"not a number: {text!r}", row=row, column=column) from exc


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
            raise ParseError(
                f"expected {len(header)} fields, got {len(row)}", row=line
            )
        agent_id = row[0]
        if not agent_id:
            raise ParseError("empty agent_id", row=line, column=1)
        if agent_id in seen_ids:
            raise DuplicateAgentId(f"agent_id {agent_id!r} appears more than once")
        seen_ids.add(agent_id)
        share = _cell_rational(row[1], row=line, column=2)
        if share.numerator < 0:
            raise ParseError(f"negative share {share}", row=line, column=2)
        bid = None
        if has_bids:
            bid = _cell_rational(row[2], row=line, column=3)
            if bid.numerator < 0:
                raise ParseError(f"negative bid {bid}", row=line, column=3)
        records.append(CapTableRecord(agent_id=agent_id, share=share, bid=bid))

    if not records:
        raise ParseError("cap table has a header but no rows", row=header_line + 1)

    # the shares as integers over their lcm: share i is a[i] / lcm
    a, lcm = _over_lcm([r.share for r in records])
    total = sum(a)
    if normalize:
        if total == 0:
            raise SharesDontSumToOne(Rational(total, lcm))
        records = [
            CapTableRecord(r.agent_id, Rational(x, total), r.bid)
            for r, x in zip(records, a)
        ]
    elif total != lcm:
        raise SharesDontSumToOne(Rational(total, lcm))
    return records


def to_instance(records, m_bar: int):
    """Build (Allocation, BidProfile, MbmConfig) from parsed records.

    Every record must carry a bid; table-only files cannot be run. The
    shares are not checked here: ``parse_captable`` rejects negative and
    non-summing shares, and the engine checks the simplex on every run.
    """
    missing = [r.agent_id for r in records if r.bid is None]
    if missing:
        raise ParseError(
            f"cap table has no bid column; cannot run for agents {missing}"
        )
    initial = Allocation.from_shares(tuple(r.share for r in records))
    profile = BidProfile(tuple(r.bid for r in records))
    return initial, profile, MbmConfig(n=len(records), m_bar=m_bar)
