import io
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import heatflow.fields
from heatflow.fields import (
    FieldStack,
    _decode,
    _encode,
    read_field_csv,
    read_stack_csv,
    write_field_csv,
    write_stack_csv,
)


def test_field_csv_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    f = rng.standard_normal(37) * 10.0 ** rng.integers(-12, 12, 37)
    p = tmp_path / "f.csv"
    write_field_csv(p, f)
    back = read_field_csv(p)
    np.testing.assert_array_equal(back, f)


def test_stack_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    stack = FieldStack(rng.standard_normal((11, 4)), ["0.1", "0.2", "0.3", "0.4"], "scales")
    p = tmp_path / "s.csv"
    write_stack_csv(p, stack)
    back = read_stack_csv(p)
    np.testing.assert_array_equal(back.values, stack.values)
    assert back.labels == stack.labels
    assert p.read_text().splitlines()[0] == "0.1,0.2,0.3,0.4"


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1.797e308, -1.797e308, 1.0 / 3.0, -2.5e-300]


def test_field_csv_bytes_match_per_value_format(tmp_path):
    values = EDGE_VALUES + [math.inf, -math.inf, math.nan]
    p = tmp_path / "f.csv"
    write_field_csv(p, np.array(values))
    assert p.read_text() == "".join("{:.16e}\n".format(v) for v in values)


def test_stack_csv_bytes_match_per_value_format(tmp_path):
    # FieldStack holds finite values only, so the stack gets the finite ones
    values = np.array(EDGE_VALUES).reshape(4, 2)
    p = tmp_path / "s.csv"
    write_stack_csv(p, FieldStack(values, ["a", "b"], "scales"))
    rows = "".join(",".join("{:.16e}".format(v) for v in row) + "\n" for row in values)
    assert p.read_text() == "a,b\n" + rows


def _expected(values, sep=","):
    """The rows of an (N,) or (N, S) array by per-value format, the reference for _encode."""
    rows = values.reshape(len(values), -1).tolist()
    return "".join(sep.join(format(v, ".16e") for v in row) + "\n" for row in rows)


@settings(max_examples=300, deadline=None)
@given(stack=arrays(np.float64, st.tuples(st.integers(1, 30), st.sampled_from([1, 3, 10])),
                    elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)))
def test_encoder_matches_per_value_format(stack):
    assert "".join(_encode(stack.ravel())) == _expected(stack.ravel())
    assert "".join(_encode(stack)) == _expected(stack)
    assert "".join(_encode(stack, " ")) == _expected(stack, " ")


def test_encoder_matches_per_value_format_on_random_bit_patterns():
    bits = np.random.default_rng(18).integers(0, 2**64, 10**6, dtype=np.uint64)
    values = bits.view(np.float64)
    assert "".join(_encode(values)) == _expected(values)
    # 10**4 rows of 10 cross the encoder's blocks of rows
    stack = values[:10**5].reshape(-1, 10)
    assert "".join(_encode(stack)) == _expected(stack)


def test_encoder_writes_exact_ties_half_even():
    # x = M/4 (exact) and M/20 for odd M in [4e15, 9e15): the 17-digit
    # scaled value ends in exactly .5 or sits next to it
    odd = np.random.default_rng(4).integers(2 * 10**15, 45 * 10**14, 10**5) * 2 + 1
    odd = np.append(odd, [4 * 10**15 + 1, 9 * 10**15 - 1])
    # and N / 2**(17 - e) for odd N, a tie in decade e, where 10**(16 - e) is
    # not a double for e < -6
    dyadic = np.array([n / 2.0 ** (17 - e) for e in range(-12, 16) for n in range(1, 2000, 2)])
    for values in (odd / 4, odd / 20, dyadic):
        assert "".join(_encode(values)) == _expected(values)
    assert "".join(_encode(np.array([1000000000000000.25]))) == "1.0000000000000002e+15\n"


def test_encoder_at_powers_of_ten_their_neighbours_and_the_extremes():
    tens = np.array([float(f"1e{k}") for k in range(-307, 309)])
    extremes = [0.0, -0.0, 5e-324, -5e-324, 1.797e308, -1.797e308]
    values = np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf), extremes])
    assert "".join(_encode(values)) == _expected(values)


def test_encoder_keeps_row_order_across_per_value_fallbacks():
    # non-finite, |x| outside [1e-280, 1e280] and exact ties take the per-value
    # path; each sits between values the vectorized path writes
    fallback = [math.nan, 1e-300, 1000000000000000.25, -math.inf, 5e-324, -1.797e308]
    vectorized = [1.5, -0.0, 2.0 / 3.0, -1e-5, 123456.789, 1e280]
    values = np.array([v for pair in zip(vectorized, fallback) for v in pair])
    assert "".join(_encode(values)) == _expected(values)
    assert "".join(_encode(values.reshape(4, 3))) == _expected(values.reshape(4, 3))


# integers the "%d" columns must print: 0, -0.0 (as "0"), 10**k and 10**k - 1, where
# log10 can land a decade high, and any integer below 1e15 in magnitude
_INT_EDGES = [0.0, -0.0] + [float(10**k) for k in range(16)] + [float(10**k - 1) for k in range(1, 16)]
_FLOAT_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, math.inf, -math.inf, math.nan]


@st.composite
def mixed_tables(draw):
    """(table, ints): an (N, S) table whose columns in ints hold integers; N * S
    reaches past one 8192-value block of the encoder."""
    cols = draw(st.integers(1, 5))
    ints = tuple(j for j in range(cols) if draw(st.booleans()))
    n = draw(st.integers(1, 3000))
    int_pool = draw(st.lists(st.sampled_from(_INT_EDGES) | st.integers(-10**15, 10**15).map(float),
                             min_size=1, max_size=12))
    float_pool = draw(st.lists(st.sampled_from(_FLOAT_EDGES) | st.floats(allow_subnormal=True),
                               min_size=1, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = np.empty((n, cols))
    for j in range(cols):
        pool = int_pool + [-v for v in int_pool] if j in ints else float_pool
        table[:, j] = np.array(pool)[rng.integers(0, len(pool), n)]
    return table, ints


@settings(max_examples=150, deadline=None)
@given(case=mixed_tables(), sep=st.sampled_from([",", " "]))
def test_encoder_integer_columns_match_percent_d(case, sep):
    table, ints = case
    fmts = ["%d" if j in ints else "%.16e" for j in range(table.shape[1])]
    want = (sep.join(fmts) + "\n") * len(table) % tuple(table.ravel().tolist())
    assert "".join(_encode(table, sep, ints)) == want


def test_encoder_writes_a_zero_column_stack_as_empty_rows():
    assert "".join(_encode(np.zeros((3, 0)))) == "\n\n\n"


def test_stack_validation():
    with pytest.raises(ValueError, match="labels"):
        FieldStack(np.zeros((3, 2)), ["only-one"], "scales")
    with pytest.raises(ValueError, match="finite"):
        FieldStack(np.array([[np.nan]]), ["x"], "subjects")
    with pytest.raises(ValueError, match="axis"):
        FieldStack(np.zeros((3, 1)), ["x"], "columns")


def test_malformed_csv_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1.0\nnot-a-number\n")
    with pytest.raises(ValueError, match="malformed"):
        read_field_csv(p)
    p2 = tmp_path / "ragged.csv"
    p2.write_text("a,b\n1.0,2.0\n3.0\n")
    with pytest.raises(ValueError):
        read_stack_csv(p2)


def test_ragged_stack_row_names_line_and_counts(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text("a,b\n1.0,2.0\n\n3.0\n4.0,5.0\n")
    with pytest.raises(ValueError, match=r"ragged\.csv:4: ragged stack CSV: 1 columns, header has 2$"):
        read_stack_csv(p)


def test_stack_rows_wider_than_header_name_line(tmp_path):
    # every row agrees with every other, so only the header count shows the fault
    p = tmp_path / "wide.csv"
    p.write_text("\na,b\n1.0,2.0,3.0\n4.0,5.0,6.0\n")
    with pytest.raises(ValueError, match=r"wide\.csv:3: ragged stack CSV: 3 columns, header has 2$"):
        read_stack_csv(p)


def test_bad_field_value_names_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1.0\n\n2.0\nnot-a-number\n3.0\n")
    with pytest.raises(ValueError, match=r"bad\.csv:4: malformed field CSV: .*'not-a-number"):
        read_field_csv(p)


def test_bad_stack_value_names_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1.0,2.0\n3.0,x\n")
    with pytest.raises(ValueError, match=r"bad\.csv:3: malformed stack CSV: .*'x"):
        read_stack_csv(p)


@pytest.mark.parametrize("token", ["nan", "-inf"])
def test_non_finite_field_value_names_line(tmp_path, token):
    p = tmp_path / "f.csv"
    p.write_text(f"1.0\n\n2.0\n{token}\n3.0\n")
    with pytest.raises(ValueError, match=r"f\.csv:4: non-finite value in field CSV$"):
        read_field_csv(p)


@pytest.mark.parametrize("token", ["NaN", "inf"])
def test_non_finite_stack_value_names_line(tmp_path, token):
    p = tmp_path / "s.csv"
    p.write_text(f"\na,b\n1.0,2.0\n3.0,{token}\n")
    with pytest.raises(ValueError, match=r"s\.csv:4: non-finite value in stack CSV$"):
        read_stack_csv(p)


def test_empty_field_csv_rejected(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("\n\n")
    with pytest.raises(ValueError, match=r"empty\.csv: field CSV has no data rows$"):
        read_field_csv(p)


def _assert_reads_as_loadtxt(text, cols=1):
    """_decode takes text as the encoder's rows and reads the bits np.loadtxt reads."""
    got = _decode(io.BytesIO(text.encode()), cols)
    assert got is not None
    want = np.loadtxt(io.StringIO(text), delimiter=",", ndmin=2)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@settings(max_examples=200, deadline=None)
@given(stack=arrays(np.float64, st.tuples(st.integers(1, 30), st.sampled_from([1, 3, 10])),
                    elements=st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)))
def test_decoder_reads_what_loadtxt_reads(stack):
    _assert_reads_as_loadtxt("".join(_encode(stack)), stack.shape[1])
    _assert_reads_as_loadtxt("".join(_encode(stack.ravel())))


def test_decoder_reads_what_loadtxt_reads_on_random_bit_patterns():
    bits = np.random.default_rng(18).integers(0, 2**64, 10**6, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    # about 24 MB of rows: many read blocks, each cut at a newline
    _assert_reads_as_loadtxt("".join(_encode(values)))
    _assert_reads_as_loadtxt("".join(_encode(values[:10**5].reshape(-1, 10))), 10)


def _tokens(decimals):
    """The "%.16e" rows of Decimal values: 17 significant digits, 2-3 exponent digits."""
    text = [format(d, ".16e").split("e") for d in decimals]
    return "".join(f"{m}e{int(x):+03d}\n" for m, x in text)


def test_decoder_rounds_ties_and_midpoints_below_powers_of_two(monkeypatch):
    # exact ties round half even: to 2**53 and up to 2**54 from the midpoint below
    # it, a quarter of the gap above 2**54 away; the guard hands both to float()
    text = "9.0071992547409930e+15\n9.0071992547409935e+15\n1.8014398509481983e+16\n"
    near, flagged = heatflow.fields._near_midpoint, []
    monkeypatch.setattr(heatflow.fields, "_near_midpoint",
                        lambda y, res: flagged.append(near(y, res)) or flagged[-1])
    _assert_reads_as_loadtxt(text)
    assert flagged[0].tolist() == [True, False, True]
    assert _decode(io.BytesIO(text.encode()), 1).ravel().tolist() == [2.0**53, 2.0**53 + 2, 2.0**54]
    # the 17-digit decimals nearest the midpoint under 2**k, on either side of it
    decimals = []
    for k in range(-900, 1000, 7):
        below = Decimal(2) ** k * (1 - Decimal(2) ** -54)
        text = format(below, ".16e")
        step = Decimal(1).scaleb(int(text.split("e")[1]) - 16)
        decimals += [Decimal(text) - step, Decimal(text), Decimal(text) + step]
    _assert_reads_as_loadtxt(_tokens(decimals))
    # the encoder's ties, M / 4 and M / 20 for odd M, and dyadic ties in each decade
    odd = np.random.default_rng(4).integers(2 * 10**15, 45 * 10**14, 10**4) * 2 + 1
    dyadic = np.array([n / 2.0 ** (17 - e) for e in range(-12, 16) for n in range(1, 2000, 2)])
    for values in (odd / 4, odd / 20, dyadic):
        _assert_reads_as_loadtxt("".join(_encode(values)))


def test_decoder_at_powers_of_ten_their_neighbours_and_the_extremes():
    tens = np.array([float(f"1e{k}") for k in range(-307, 309)])
    extremes = [0.0, -0.0, 5e-324, -5e-324, 1.797e308, -1.797e308]
    values = np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf), extremes])
    _assert_reads_as_loadtxt("".join(_encode(values)))


def test_decoder_on_random_17_digit_decimals():
    rng = np.random.default_rng(24)
    n = 10**5
    digits = rng.integers(10**16, 10**17, n)
    exps, signs = rng.integers(-280, 281, n), rng.choice(["", "-"], n)
    _assert_reads_as_loadtxt("".join(f"{s}{d // 10**16}.{d % 10**16:016d}e{e:+03d}\n"
                                     for s, d, e in zip(signs, digits.tolist(), exps.tolist())))


@pytest.mark.parametrize("token", [
    "4.9406564584124654e-324", "2.2250738585072014e-308", "1.7976931348623157e+308",
    "-0.0000000000000000e+00", "0.1234567890123456e+00", "1.0000000000000000e-280",
    "9.9999999999999999e+279", "-1.0000000000000000e-281", "1.0000000000000000e+280",
])
def test_encoder_shaped_extremes_read_as_float(tmp_path, token):
    p = tmp_path / "f.csv"
    p.write_text(f"1.5000000000000000e+00\n{token}\n")
    with open(p, "rb") as fh:
        assert _decode(fh, 1) is not None
    got = read_field_csv(p)
    assert got.view(np.int64).tolist() == np.array([1.5, float(token)]).view(np.int64).tolist()


@pytest.mark.parametrize("token", ["1.0000000000000000e+309", "-9.9999999999999999e+308"])
def test_encoder_shaped_overflow_names_line(tmp_path, token):
    f = tmp_path / "f.csv"
    f.write_text(f"1.5000000000000000e+00\n{token}\n")
    with pytest.raises(ValueError, match=r"f\.csv:2: non-finite value in field CSV$"):
        read_field_csv(f)
    s = tmp_path / "s.csv"
    s.write_text(f"a,b\n1.5000000000000000e+00,2.5000000000000000e+00\n3.5000000000000000e+00,{token}\n")
    with pytest.raises(ValueError, match=r"s\.csv:3: non-finite value in stack CSV$"):
        read_stack_csv(s)


@pytest.mark.parametrize("text, want", [
    ("1.0\r\n2.0\r\n", [1.0, 2.0]),
    ("1.0\n2.0", [1.0, 2.0]),
    ("1.0\n\n\n2.0\n", [1.0, 2.0]),
    (" 1.0 \n 2.0\n", [1.0, 2.0]),
    ("+1.0\n2.0000000000000000E+00\n", [1.0, 2.0]),
    ("0.5\n", [0.5]),
    ("1.0000000000000000e+00\n2.0\n3.0000000000000000e+00", [1.0, 2.0, 3.0]),
])
def test_hand_written_field_csv_reads_as_before(tmp_path, text, want):
    p = tmp_path / "f.csv"
    p.write_bytes(text.encode())
    assert read_field_csv(p).tolist() == want


@pytest.mark.parametrize("text, want", [
    ("a,b\r\n1.0 ,2.0\r\n", [[1.0, 2.0]]),
    # a lone "\r" ends the header line in text mode, not in binary
    ("a,b\r1.0000000000000000e+00,2.0000000000000000e+00\n3.0000000000000000e+00,4.0000000000000000e+00\n",
     [[1.0, 2.0], [3.0, 4.0]]),
    ("a,b\n1.0000000000000000e+00,2.0000000000000000e+00\n3.0,-4.0\n"
     "5.0000000000000000e+00,6.0000000000000000e+00\n", [[1.0, 2.0], [3.0, -4.0], [5.0, 6.0]]),
])
def test_hand_written_stack_csv_reads_as_before(tmp_path, text, want):
    p = tmp_path / "s.csv"
    p.write_bytes(text.encode())
    assert read_stack_csv(p).values.tolist() == want


@pytest.mark.parametrize("data, message", [
    (b"1e309\n", r"f\.csv:1: non-finite value in field CSV$"),
    (b"1.0,\n", r"f\.csv:1: malformed field CSV: could not convert string to float: '1\.0,'$"),
    (b"\xef\xbb\xbf1.0000000000000000e+00\n", r"f\.csv:1: malformed field CSV: .*'\\ufeff1\.0"),
])
def test_hand_written_field_csv_errors_as_before(tmp_path, data, message):
    p = tmp_path / "f.csv"
    p.write_bytes(data)
    with pytest.raises(ValueError, match=message):
        read_field_csv(p)
