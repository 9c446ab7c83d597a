"""Cap-table parsing: exact numerals, located errors, normalization."""

import io

import pytest

from mbm import (
    CapTableRecord,
    DuplicateAgentId,
    InvalidAllocation,
    ParseError,
    SharesDontSumToOne,
    parse_captable,
    run_expected,
    to_instance,
)
from mbm.rational import Rational as Q

WORKED = "agent_id,share,bid\na,0.5,10\nb,0.3,5\nc,0.2,2\n"


def test_parse_worked_decimals_exactly():
    records = parse_captable(WORKED)
    assert [r.agent_id for r in records] == ["a", "b", "c"]
    assert [r.share for r in records] == [Q(1, 2), Q(3, 10), Q(1, 5)]
    assert [r.bid for r in records] == [Q(10), Q(5), Q(2)]


def test_parse_accepts_file_objects():
    records = parse_captable(io.StringIO(WORKED))
    assert len(records) == 3


def test_parse_fraction_syntax():
    records = parse_captable("agent_id,share,bid\na,1/3,7\nb,1/3,5\nc,1/3,2\n")
    assert all(r.share == Q(1, 3) for r in records)


def test_parse_table_only_leaves_bids_empty():
    records = parse_captable("agent_id,share\na,0.5\nb,0.5\n")
    assert all(r.bid is None for r in records)
    with pytest.raises(ParseError):
        to_instance(records, m_bar=2)


def test_shares_must_sum_to_one_without_normalize():
    text = "agent_id,share,bid\na,0.5,10\nb,0.3,5\nc,0.199,2\n"
    with pytest.raises(SharesDontSumToOne) as info:
        parse_captable(text)
    assert info.value.total == Q(999, 1000)
    records = parse_captable(text, normalize=True)
    assert sum((r.share for r in records), Q(0)) == 1
    assert records[0].share == Q(1, 2) / Q(999, 1000)
    # an all-zero column has nothing to rescale
    with pytest.raises(SharesDontSumToOne) as info:
        parse_captable("agent_id,share,bid\na,0,10\nb,0/3,5\nc,0.0,2\n", normalize=True)
    assert (info.value.total, str(info.value)) == (0, "shares sum to 0, expected exactly 1")


def test_parse_errors_carry_location():
    with pytest.raises(ParseError) as info:
        parse_captable("agent_id,share,bid\na,0.5,10\nb,zebra,5\nc,0.2,2\n")
    assert info.value.row == 3 and info.value.column == 2

    with pytest.raises(ParseError) as info:
        parse_captable("agent_id,share,bid\na,0.5\n")
    assert info.value.row == 2

    with pytest.raises(ParseError) as info:
        parse_captable("agent_id,share,bid\na,0.5,\n")
    assert info.value.row == 2 and info.value.column == 3

    with pytest.raises(ParseError) as info:
        parse_captable("agent_id,share,bid\na,-0.5,10\n")
    assert info.value.row == 2 and info.value.column == 2

    with pytest.raises(ParseError) as info:
        parse_captable("agent_id,share,bid\na,0.5,10\n,0.3,5\nc,0.2,2\n")
    assert (info.value.row, info.value.column) == (3, 1)
    assert str(info.value) == "row 3, column 1: empty agent_id"


def test_numeral_bounds_are_parse_errors_with_location():
    with pytest.raises(ParseError) as info:
        parse_captable("agent_id,share,bid\na,1e-5000,3\nb,1,2\n", normalize=True)
    assert (info.value.row, info.value.column) == (2, 2)
    assert str(info.value) == "row 2, column 2: exponent -5000 outside -1000..1000"

    long_bid = "1" * 1001
    with pytest.raises(ParseError) as info:
        parse_captable(f"agent_id,share,bid\na,1/2,10\nb,1/2,{long_bid}\n")
    assert str(info.value) == "row 3, column 3: numeral longer than 1000 characters"


def test_leading_byte_order_mark_is_dropped():
    want = parse_captable(WORKED)
    assert parse_captable("\ufeff" + WORKED) == want
    assert parse_captable(io.StringIO("\ufeff" + WORKED)) == want
    # only one: a second mark is part of the header
    with pytest.raises(ParseError):
        parse_captable("\ufeff\ufeff" + WORKED)


def test_header_required():
    with pytest.raises(ParseError):
        parse_captable("a,0.5,10\nb,0.5,5\n")
    with pytest.raises(ParseError):
        parse_captable("")
    with pytest.raises(ParseError):
        parse_captable("agent_id,share,bid\n")


def test_duplicate_agent_ids_rejected():
    with pytest.raises(DuplicateAgentId):
        parse_captable("agent_id,share,bid\na,0.5,10\na,0.5,5\n")


def test_to_instance_builds_worked(worked):
    initial, profile, config = to_instance(parse_captable(WORKED), m_bar=2)
    want_initial, want_profile, want_config = worked
    assert initial == want_initial
    assert profile == want_profile
    assert config == want_config


@pytest.mark.parametrize(
    "shares, message",
    [
        ((Q(1, 2), Q(1, 4), Q(1, 5)), "shares sum to 19/20"),
        ((Q(3, 2), Q(-1, 4), Q(-1, 4)), "agent 1 has negative share -1/4"),
    ],
)
def test_off_simplex_records_are_rejected_by_the_engine(shares, message):
    # records built by hand skip the parser's share checks; to_instance
    # passes them on and the engine's simplex check rejects them
    records = [
        CapTableRecord(agent_id, share, bid)
        for agent_id, share, bid in zip("abc", shares, (Q(10), Q(5), Q(2)))
    ]
    initial, profile, config = to_instance(records, m_bar=2)
    with pytest.raises(InvalidAllocation, match=message):
        run_expected(initial, profile, config)
