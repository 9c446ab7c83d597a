"""The one rational type: coercion rules, numeral reading and printing."""

import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbm import BidProfile, InvalidNumeral, NumeralOutOfBounds, ParseError, parse_captable
from mbm.rational import ONE, ZERO, Rational as Q, decimal_approx, parse_ratio, rational
from mbm.rational import rational_str


def test_rational_coercion_accepts_int_str_rational():
    assert rational(5) == Q(5)
    assert rational("0.3") == Q(3, 10)
    assert rational("3/10") == Q(3, 10)
    assert rational("2.5e-3") == Q(1, 400)
    assert rational(Q(7, 2)) == Q(7, 2)
    from fractions import Fraction

    assert rational(Fraction(1, 3)) == Q(1, 3)


def test_rational_coercion_rejects_floats_and_junk():
    with pytest.raises(TypeError):
        rational(0.1)
    with pytest.raises(ValueError):
        rational("zebra")
    with pytest.raises(ValueError):
        rational("1/0")
    with pytest.raises(TypeError):
        rational(None)


def test_numeral_bounds():
    assert rational("9" * 1000) == Q(10**1000 - 1)
    assert rational("1e1000") == Q(10**1000)
    assert rational(" 2.5E-1000 ") == Q(5, 2 * 10**1000)
    for text in ("9" * 1001, "1e1001", "1e-1001", "2.5E+5000", "1e-1_001"):
        with pytest.raises(NumeralOutOfBounds):
            rational(text)
    assert issubclass(NumeralOutOfBounds, ValueError)


def test_canonical_form():
    assert str(Q(2, 4)) == "1/2"
    assert Q(1, -2) == Q(-1, 2)
    assert (ZERO, ONE) == (Q(0), Q(1))


def test_fraction_fallback_backend_runs_the_mechanism(subprocess_env):
    # an importable gmpy2 in a clean interpreter: the one exact type is still
    # Fraction, and it drives the worked instance
    script = textwrap.dedent(
        """
        import fractions, sys, types
        stand_in = types.ModuleType("gmpy2")
        stand_in.mpq = type("mpq", (fractions.Fraction,), {})
        sys.modules["gmpy2"] = stand_in

        from mbm.rational import BACKEND, Rational as Q
        assert BACKEND == "fractions", BACKEND
        assert Q is fractions.Fraction, Q

        from mbm import Allocation, BidProfile, MbmConfig, run_expected
        initial = Allocation.from_shares((Q(1, 2), Q(3, 10), Q(1, 5)))
        profile = BidProfile((Q(10), Q(5), Q(2)))
        expected = run_expected(initial, profile, MbmConfig(3, 2))
        assert expected.high_branch.price == 5
        assert expected.high_branch.final_allocation.shares == (Q(5, 8), Q(3, 8), Q(0))
        assert expected.high_branch.branch_probability == Q(4, 5)
        print("fractions ok")
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=subprocess_env
    )
    assert proc.returncode == 0, proc.stderr
    assert "fractions ok" in proc.stdout


# --- plain numerals: read on integers, equal to Fraction's reading -----------

_DIGITS = st.text("0123456789", min_size=1, max_size=400)
_PADDING = st.sampled_from(["", " ", "\t", " \n "])
_PLAIN = st.one_of(
    _DIGITS,
    st.builds("{}.{}".format, _DIGITS, _DIGITS),
    st.builds("{}/{}".format, _DIGITS, _DIGITS.filter(lambda q: q.strip("0"))),
)


@settings(max_examples=300, deadline=None)
@given(_PADDING, _PLAIN, _PADDING)
def test_plain_numerals_equal_fraction(left, text, right):
    value = rational(left + text + right)
    assert type(value) is Q
    assert value == Fraction(text)


@pytest.mark.parametrize(
    "text",
    [
        "007", "0", "000", "0.500", "00.0", "1.50", "10/20", "0007/0014", " 42 ",
        "9" * 400, "9" * 401, "1" * 400 + "." + "5" * 400, "1" * 400 + "/" + "7" * 400,
        "1" * 401 + "/" + "7" * 400, "1" * 400 + "/" + "7" * 401,
        # not plain: today's Fraction path
        "+3", "3.", ".5", "1_000", "1_000.5", "2.5e-3", "٣", "１２/٣",
    ],
)
def test_numerals_on_and_off_the_plain_path_equal_fraction(text):
    value = rational(text)
    assert type(value) is Q
    assert value == Fraction(text)


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("5/0", InvalidNumeral, "not a rational literal: '5/0'"),
        ("0/0", InvalidNumeral, "not a rational literal: '0/0'"),
        (" 5/000 ", InvalidNumeral, "not a rational literal: ' 5/000 '"),
        ("1e-1001", NumeralOutOfBounds, "exponent -1001 outside -1000..1000"),
        ("9" * 1001, NumeralOutOfBounds, "numeral longer than 1000 characters"),
        ("1" * 500 + "/" + "7" * 500, NumeralOutOfBounds, "numeral longer than 1000 characters"),
        ("1/2/3", InvalidNumeral, "not a rational literal: '1/2/3'"),
        ("1 / 2", InvalidNumeral, "not a rational literal: '1 / 2'"),
    ],
)
def test_numeral_errors_keep_their_type_and_text(text, error, message):
    with pytest.raises(error) as info:
        rational(text)
    assert type(info.value) is error
    assert str(info.value) == message


def test_negative_share_keeps_its_parse_error():
    with pytest.raises(ParseError) as info:
        parse_captable("agent_id,share,bid\na,-3,1\nb,4,2\n")
    assert (info.value.row, info.value.column) == (2, 2)
    assert str(info.value) == "row 2, column 2: negative share -3"
    with pytest.raises(ValueError, match="agent 1 bid -1/2 is negative"):
        BidProfile((Q(1), Q(-1, 2), Q(2)))


# --- the integer numeral reader -------------------------------------------------

_SIGN = st.sampled_from(["", "+", "-"])
_UNDERSCORED = st.builds("{}_{}".format, _DIGITS, _DIGITS)
_EXPONENTS = st.sampled_from(
    ["", "e3", "E-2", "e+7", "e999", "e1000", "e-1000", "e1001", "e-1001", "e5000", "e1_001",
     "e-0_1000", "e", "e+"]
)
_CELL = st.one_of(
    st.builds(
        "{}{}{}{}{}".format, _SIGN, _DIGITS | _UNDERSCORED,
        st.sampled_from(["", ".", "/"]), st.sampled_from(["", "0", "000", "5", "0_1"]) | _DIGITS,
        _EXPONENTS,
    ),
    st.builds("{}{}".format, st.sampled_from(["٣", "１２", "٣/٤", "1.٥"]), _EXPONENTS),
    st.sampled_from(
        ["1" * 1001, "1" * 500 + "/" + "7" * 500, "9" * 1000, "1" * 999 + ".5", "0/0", "5/0",
         "1/2/3", "1 / 2", ".5", "3.", "abc", "", "-0", "+0.0", "1e", "nan", "inf"]
    ),
)


def _outcome(read, text):
    try:
        return read(text)
    except Exception as exc:  # the refusal is compared by type and message
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(_PADDING, _CELL, _PADDING)
def test_the_integer_numeral_reader_equals_rational(left, cell, right):
    text = left + cell + right
    want = _outcome(rational, text)
    got = _outcome(parse_ratio, text)
    if isinstance(want, tuple):
        assert got == want
        return
    p, q = got
    assert q > 0 and Q(p, q) == want == Fraction(text) and type(want) is Q
    # the same cell in a table: the record's value, or the located ParseError
    cell = cell.strip()
    try:
        (record,) = parse_captable(f"agent_id,share,bid\na,1,{cell}\n")
    except ParseError as exc:
        error = (exc.row, exc.column, str(exc))
    else:
        error = None
        assert record.bid == want
    if want < 0:
        assert error == (2, 3, f"row 2, column 3: negative bid {rational_str(want)}")
    else:
        assert error is None


@settings(max_examples=200, deadline=None)
@given(_CELL)
def test_refused_cells_keep_their_error_and_location(cell):
    cell = cell.strip()
    want = _outcome(rational, cell)
    if not isinstance(want, tuple):
        return
    error, message = want
    with pytest.raises(ParseError) as info:
        parse_captable(f"agent_id,share,bid\na,{cell},1\nb,0,2\n", normalize=True)
    assert (info.value.row, info.value.column) == (2, 2)
    if error is NumeralOutOfBounds:
        assert str(info.value) == f"row 2, column 2: {message}"
    else:
        assert error is InvalidNumeral
        assert str(info.value) == f"row 2, column 2: not a number: {cell!r}"


# --- decimal approximations ----------------------------------------------------


def test_decimal_approx_rounds_half_to_even_at_any_precision():
    # 7 has no prebuilt context; 20 and 6 do
    assert decimal_approx(Fraction(12345625, 10**8), 7) == "0.1234562"
    assert decimal_approx(Fraction(12345635, 10**8), 7) == "0.1234564"
    assert decimal_approx(Fraction(1234565, 10**7), 6) == "0.123456"
    assert decimal_approx(Fraction(2, 3), 7) == "0.6666667"


def test_decimal_approx_repeats_after_inexact_divisions():
    first = [decimal_approx(Fraction(1, 7), digits) for digits in (20, 6, 7)]
    for digits in (20, 6, 7):
        decimal_approx(Fraction(2, 3), digits)  # inexact: sets flags
    assert [decimal_approx(Fraction(1, 7), digits) for digits in (20, 6, 7)] == first
    assert first == ["0.14285714285714285714", "0.142857", "0.1428571"]
    assert decimal_approx(Fraction(1, 4)) == "0.25"
