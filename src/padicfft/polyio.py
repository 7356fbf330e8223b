"""Bit-exact text files for polynomials and evaluation vectors.

Polynomial file: line 1 "p K", line 2 a global p-power exponent as a
signed decimal, then one coefficient per line as a decimal in [0, p^K),
constant term first. Evaluation file: line 1 "s d", line 2 the exponent,
then s*d coefficient lines, the d coordinates of each ring element
consecutive with the inner degree running fastest.

Writers emit canonical form (LF newlines, no trailing zero coefficient
lines on polynomials), so equal content means equal bytes. Readers take
UTF-8 text, accept any trailing zeros, and refuse every number that is not
an ASCII decimal [+-]?[0-9]+ (no digit separators, no other scripts' digits).

A residue mod p^K may have more digits than CPython converts between int
and str by default (sys.get_int_max_str_digits(), 4300 digits). Readers and
writers convert under int_digits, which raises that limit only as far as
residue_digits(p, K) and restores it after; a reader given p^K refuses a
longer number before converting it. The polynomial reader takes p and K from
the header, the evaluation reader from its caller, and the evaluation writer
the digits from its largest coordinate. The exponent line converts under the
interpreter's limit as it stands; check_exponent refuses an exponent past it.
"""

from __future__ import annotations

import contextlib
import math
import re
import sys
from dataclasses import dataclass

from .errors import FileFormatError
from .kernels import MODULUS_BITS, precision_fits

DECIMAL = re.compile(r"[+-]?[0-9]+")


@dataclass
class PolyData:
    p: int
    K: int
    exp: int
    coeffs: list

    def __post_init__(self):
        _check_modulus(self.p, self.K)
        bound = self.p**self.K
        if any(not 0 <= c < bound for c in self.coeffs):
            raise FileFormatError(f"coefficients must lie in [0, {self.p}^{self.K})")


@dataclass
class EvalData:
    s: int
    d: int
    exp: int
    elements: list  # s tuples of d nonnegative ints

    def __post_init__(self):
        if self.s < 1 or self.d < 1:
            raise FileFormatError("need s >= 1 and d >= 1")
        if len(self.elements) != self.s:
            raise FileFormatError(f"expected {self.s} elements, got {len(self.elements)}")
        for e in self.elements:
            if len(e) != self.d or any(c < 0 for c in e):
                raise FileFormatError("each element needs d nonnegative coordinates")


def _check_modulus(p: int, K: int):
    if p < 2 or K < 1:
        raise FileFormatError("need p >= 2 and K >= 1")
    if not precision_fits(p, K):
        raise FileFormatError(f"{p}^{K} is wider than the {MODULUS_BITS} bits of any exact product")


def residue_digits(p: int, K: int) -> int:
    """Decimal digits enough for every residue in [0, p^K): ceil(K log10 p) + 1."""
    return math.ceil(K * math.log10(p)) + 1


def _digit_limit() -> int:
    """The interpreter's limit on the digits of an int <-> str conversion; 0 for none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def check_exponent(exp: int):
    """Refuse an exponent that no reader takes back: one with more digits than the interpreter's limit, under which
    readers convert the exponent line."""
    limit = _digit_limit()
    if limit and abs(exp) >= 10**limit:
        raise FileFormatError(f"exponent has more than the {limit} digits an exponent line may hold")


@contextlib.contextmanager
def int_digits(n: int | None):
    """Let int and str convert numbers of up to n digits inside the block (n None: as they are).

    The limit is the interpreter's, so a thread that converts meanwhile sees it raised, and may see it restored.
    """
    limit = _digit_limit()
    if n is None or not limit or n <= limit:
        yield
        return
    sys.set_int_max_str_digits(n)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _lines(text: str) -> list:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if len(lines) < 2:
        raise FileFormatError("file needs a header line and an exponent line")
    return lines


def _ints(line: str, want: int, what: str, digits: int | None = None) -> list:
    parts = line.split()
    if len(parts) != want:
        raise FileFormatError(f"{what}: expected {want} fields, got {len(parts)}")
    if not all(DECIMAL.fullmatch(x) for x in parts):
        raise FileFormatError(f"{what}: not an ASCII decimal integer")
    if digits is not None and any(len(x.lstrip("+-")) > digits for x in parts):
        raise FileFormatError(f"{what}: more than the {digits} digits of a residue mod p^K")
    try:
        return [int(x) for x in parts]
    except ValueError as exc:  # more digits than int() converts
        raise FileFormatError(f"{what}: {exc}") from exc


def read_poly_text(text: str) -> PolyData:
    lines = _lines(text)
    p, K = _ints(lines[0], 2, "line 1")
    (exp,) = _ints(lines[1], 1, "line 2")
    _check_modulus(p, K)
    digits = residue_digits(p, K)
    with int_digits(digits):
        coeffs = [_ints(line, 1, f"line {i + 3}", digits)[0] for i, line in enumerate(lines[2:])]
    return PolyData(p=p, K=K, exp=exp, coeffs=coeffs)


def write_poly_text(data: PolyData) -> str:
    coeffs = list(data.coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    out = [f"{data.p} {data.K}", str(data.exp)]
    with int_digits(residue_digits(data.p, data.K)):
        out.extend(str(c) for c in coeffs)
    return "\n".join(out) + "\n"


def read_evals_text(text: str, digits: int | None = None) -> EvalData:
    """digits, residue_digits(p, K) of the caller's p^K, bounds each coordinate line; None reads as int() does."""
    lines = _lines(text)
    s, d = _ints(lines[0], 2, "line 1")
    (exp,) = _ints(lines[1], 1, "line 2")
    if s < 1 or d < 1:
        raise FileFormatError("need s >= 1 and d >= 1")
    body = lines[2:]
    if len(body) != s * d:
        raise FileFormatError(f"expected {s * d} coefficient lines, got {len(body)}")
    with int_digits(digits):
        flat = [_ints(line, 1, f"line {i + 3}", digits)[0] for i, line in enumerate(body)]
    elements = [tuple(flat[i * d:(i + 1) * d]) for i in range(s)]
    return EvalData(s=s, d=d, exp=exp, elements=elements)


def write_evals_text(data: EvalData) -> str:
    out = [f"{data.s} {data.d}", str(data.exp)]
    top = max((c for e in data.elements for c in e), default=0)
    with int_digits(residue_digits(2, int(top).bit_length())):
        for e in data.elements:
            out.extend(str(c) for c in e)
    return "\n".join(out) + "\n"


def _read_text(path) -> str:
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise FileFormatError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc


def read_poly(path) -> PolyData:
    return read_poly_text(_read_text(path))


def write_poly(path, data: PolyData):
    text = write_poly_text(data)  # whole before the file is opened, so a failure leaves no truncated file
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def read_evals(path, digits: int | None = None) -> EvalData:
    return read_evals_text(_read_text(path), digits)


def write_evals(path, data: EvalData):
    text = write_evals_text(data)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
