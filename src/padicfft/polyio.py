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
"""

from __future__ import annotations

import re
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
        if self.p < 2 or self.K < 1:
            raise FileFormatError("need p >= 2 and K >= 1")
        if not precision_fits(self.p, self.K):
            raise FileFormatError(f"{self.p}^{self.K} is wider than the {MODULUS_BITS} bits of any exact product")
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


def _lines(text: str) -> list:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if len(lines) < 2:
        raise FileFormatError("file needs a header line and an exponent line")
    return lines


def _ints(line: str, want: int, what: str) -> list:
    parts = line.split()
    if len(parts) != want:
        raise FileFormatError(f"{what}: expected {want} fields, got {len(parts)}")
    if not all(DECIMAL.fullmatch(x) for x in parts):
        raise FileFormatError(f"{what}: not an ASCII decimal integer")
    try:
        return [int(x) for x in parts]
    except ValueError as exc:  # more digits than int() converts
        raise FileFormatError(f"{what}: {exc}") from exc


def read_poly_text(text: str) -> PolyData:
    lines = _lines(text)
    p, K = _ints(lines[0], 2, "line 1")
    (exp,) = _ints(lines[1], 1, "line 2")
    coeffs = [_ints(line, 1, f"line {i + 3}")[0] for i, line in enumerate(lines[2:])]
    return PolyData(p=p, K=K, exp=exp, coeffs=coeffs)


def write_poly_text(data: PolyData) -> str:
    coeffs = list(data.coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    out = [f"{data.p} {data.K}", str(data.exp)]
    out.extend(str(c) for c in coeffs)
    return "\n".join(out) + "\n"


def read_evals_text(text: str) -> EvalData:
    lines = _lines(text)
    s, d = _ints(lines[0], 2, "line 1")
    (exp,) = _ints(lines[1], 1, "line 2")
    if s < 1 or d < 1:
        raise FileFormatError("need s >= 1 and d >= 1")
    body = lines[2:]
    if len(body) != s * d:
        raise FileFormatError(f"expected {s * d} coefficient lines, got {len(body)}")
    flat = [_ints(line, 1, f"line {i + 3}")[0] for i, line in enumerate(body)]
    elements = [tuple(flat[i * d:(i + 1) * d]) for i in range(s)]
    return EvalData(s=s, d=d, exp=exp, elements=elements)


def write_evals_text(data: EvalData) -> str:
    out = [f"{data.s} {data.d}", str(data.exp)]
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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(write_poly_text(data))


def read_evals(path) -> EvalData:
    return read_evals_text(_read_text(path))


def write_evals(path, data: EvalData):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(write_evals_text(data))
