import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicfft.errors import FileFormatError
from padicfft.polyio import (
    EvalData,
    PolyData,
    read_evals,
    read_evals_text,
    read_poly,
    read_poly_text,
    residue_digits,
    write_evals,
    write_evals_text,
    write_poly,
    write_poly_text,
)


def test_poly_frozen_text():
    data = PolyData(p=3, K=4, exp=0, coeffs=[1, 2, 1])
    assert write_poly_text(data) == "3 4\n0\n1\n2\n1\n"


def test_poly_round_trip():
    text = "19 2\n-3\n0\n360\n5\n"
    data = read_poly_text(text)
    assert (data.p, data.K, data.exp) == (19, 2, -3)
    assert data.coeffs == [0, 360, 5]
    assert write_poly_text(data) == text
    assert read_poly_text("+3 08\n-2\n+5\n007\n") == PolyData(p=3, K=8, exp=-2, coeffs=[5, 7])


def test_poly_writer_strips_trailing_zeros():
    assert write_poly_text(PolyData(3, 2, 0, [1, 0, 2, 0, 0])) == "3 2\n0\n1\n0\n2\n"
    assert write_poly_text(PolyData(3, 2, 0, [0, 0])) == "3 2\n0\n"
    assert read_poly_text("3 2\n0\n").coeffs == []


def test_poly_format_errors():
    with pytest.raises(FileFormatError):
        read_poly_text("3\n0\n1\n")  # header needs two fields
    with pytest.raises(FileFormatError):
        read_poly_text("x y\n0\n")
    with pytest.raises(FileFormatError):
        read_poly_text("3 4\n")  # missing exponent line
    with pytest.raises(FileFormatError):
        read_poly_text("3 4\n0\n1 2\n")  # one coefficient per line
    with pytest.raises(FileFormatError):
        read_poly_text("3 4\n0\n81\n")  # out of [0, p^K)
    with pytest.raises(FileFormatError):
        read_poly_text("3 0\n0\n")  # K >= 1
    with pytest.raises(FileFormatError):
        PolyData(p=3, K=2, exp=0, coeffs=[-1])
    # int() also takes digit separators and other scripts' digits; the formats take ASCII [+-]?[0-9]+ only
    for field in ("1_000", "\uff11\uff12", "\u0661\u0662", "12\u0663", "+-1", "0x1f", "1.0", "-"):
        for text in (f"3 8\n0\n{field}\n", f"3 8\n{field}\n", f"{field} 8\n0\n"):
            with pytest.raises(FileFormatError):
                read_poly_text(text)


def test_undecodable_file(tmp_path):
    path = tmp_path / "f"
    path.write_bytes(b"3 4\n0\n\xff\n")
    with pytest.raises(FileFormatError):
        read_poly(path)
    with pytest.raises(FileFormatError):
        read_evals(path)


def test_evals_round_trip():
    data = EvalData(s=2, d=3, exp=1, elements=[(1, 2, 3), (4, 5, 6)])
    text = write_evals_text(data)
    assert text == "2 3\n1\n1\n2\n3\n4\n5\n6\n"
    back = read_evals_text(text)
    assert back == data


def test_evals_format_errors():
    with pytest.raises(FileFormatError):
        read_evals_text("2 2\n0\n1\n2\n3\n")  # needs s*d = 4 lines, got 3
    with pytest.raises(FileFormatError):
        read_evals_text("0 2\n0\n")
    with pytest.raises(FileFormatError):
        read_evals_text("1 1\n0\n\u0661\n")
    with pytest.raises(FileFormatError):
        EvalData(s=1, d=2, exp=0, elements=[(1,)])
    with pytest.raises(FileFormatError):
        EvalData(s=1, d=1, exp=0, elements=[(-1,)])
    with pytest.raises(FileFormatError):
        EvalData(s=2, d=1, exp=0, elements=[(1,)])


def test_file_round_trip(tmp_path):
    poly = tmp_path / "f.poly"
    write_poly(poly, PolyData(3, 4, 2, [5, 0, 7]))
    assert read_poly(poly) == PolyData(3, 4, 2, [5, 0, 7])
    evals = tmp_path / "f.evals"
    write_evals(evals, EvalData(2, 2, 0, [(0, 1), (2, 3)]))
    assert read_evals(evals) == EvalData(2, 2, 0, [(0, 1), (2, 3)])


def test_residues_past_the_interpreters_digit_limit():
    # CPython converts at most sys.get_int_max_str_digits() digits between int and str; 3^1400 - 1 has 668, past a
    # limit of 640, and reads and writes to the same bytes as under the default limit, which is left as it was
    big = 3**1400 - 1
    poly, evals = PolyData(3, 1400, -1, [big, 1]), EvalData(2, 1, 0, [(big,), (2,)])
    poly_text, evals_text = write_poly_text(poly), write_evals_text(evals)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert (write_poly_text(poly), write_evals_text(evals)) == (poly_text, evals_text)
        assert read_poly_text(poly_text) == poly
        assert read_evals_text(evals_text, residue_digits(3, 1400)) == evals
        # a number longer than any residue mod p^K is refused before int() sees it
        with pytest.raises(FileFormatError, match="more than the 479 digits"):
            read_evals_text(evals_text, residue_digits(3, 1000))
        with pytest.raises(FileFormatError, match="more than the 2 digits"):
            read_poly_text("3 2\n0\n0001\n")
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    assert residue_digits(3, 1400) == 669 and len(str(big)) == 668


# numbers a reader takes, small or wide, or short text that it may not take
FIELD = st.one_of(st.integers(-2, 12), st.integers(-(10**30), 10**30)).map(str) | st.text(max_size=4)


def _line(fields):
    return st.lists(FIELD, min_size=fields, max_size=fields).map(" ".join) | st.text(max_size=8)


# the header, the exponent and up to 9 coefficient lines, each as its place wants it or else any text
FILES = st.builds(lambda head, exp, body: "\n".join([head, exp, *body]) + "\n", _line(2), _line(1),
                  st.lists(_line(1), max_size=9))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), FILES))
def test_readers_return_data_or_refuse_the_format(text):
    # any text either reads as a file or is refused with FileFormatError; no other exception escapes
    for read in (read_poly_text, read_evals_text):
        try:
            data = read(text)
        except FileFormatError:
            continue
        assert isinstance(data, (PolyData, EvalData))
