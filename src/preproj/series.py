"""Truncated matrix power series with integer coefficients.

A MatrixSeries holds n x n integer matrices s_0 .. s_N; s_d records the
graded dimension counts at degree d, entry (i, j) for the block of elements
running from vertex j to vertex i. Negative entries are legal (closed forms
are alternating in the Dynkin case) and must survive printing and parsing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


def _zeros(n: int) -> list[list[int]]:
    return [[0] * n for _ in range(n)]


def _ident(n: int) -> list[list[int]]:
    m = _zeros(n)
    for i in range(n):
        m[i][i] = 1
    return m


def _madd(a, b):
    n = len(a)
    return [[a[i][j] + b[i][j] for j in range(n)] for i in range(n)]


def _msub(a, b):
    n = len(a)
    return [[a[i][j] - b[i][j] for j in range(n)] for i in range(n)]


def _mmul(a, b):
    n = len(a)
    out = _zeros(n)
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for k in range(n):
            v = ai[k]
            if v:
                bk = b[k]
                for j in range(n):
                    if bk[j]:
                        oi[j] += v * bk[j]
    return out


class MatrixSeries:
    """n x n integer matrix coefficients, degrees 0..N."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs):
        self.n = n
        self.coeffs = [[list(row) for row in m] for m in coeffs]
        if not self.coeffs:
            raise ValueError("a series needs at least the degree-0 term")
        for m in self.coeffs:
            if len(m) != n or any(len(row) != n for row in m):
                raise ValueError("coefficient is not %d x %d" % (n, n))

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, d: int):
        return self.coeffs[d]

    def __eq__(self, other) -> bool:
        return (isinstance(other, MatrixSeries) and self.n == other.n
                and self.coeffs == other.coeffs)

    def __repr__(self) -> str:
        return "MatrixSeries(n=%d, N=%d)" % (self.n, self.truncation)


def identity_series(n: int, N: int) -> MatrixSeries:
    return MatrixSeries(n, [_ident(n)] + [_zeros(n) for _ in range(N)])


def add(s: MatrixSeries, u: MatrixSeries) -> MatrixSeries:
    if s.n != u.n:
        raise ValueError("size mismatch")
    N = min(s.truncation, u.truncation)
    return MatrixSeries(s.n, [_madd(s[d], u[d]) for d in range(N + 1)])


def sub(s: MatrixSeries, u: MatrixSeries) -> MatrixSeries:
    if s.n != u.n:
        raise ValueError("size mismatch")
    N = min(s.truncation, u.truncation)
    return MatrixSeries(s.n, [_msub(s[d], u[d]) for d in range(N + 1)])


def mul(s: MatrixSeries, u: MatrixSeries) -> MatrixSeries:
    """Cauchy product, truncated to the smaller input truncation."""
    if s.n != u.n:
        raise ValueError("size mismatch")
    N = min(s.truncation, u.truncation)
    out = []
    for d in range(N + 1):
        acc = _zeros(s.n)
        for e in range(d + 1):
            acc = _madd(acc, _mmul(s[e], u[d - e]))
        out.append(acc)
    return MatrixSeries(s.n, out)


def inverse(s: MatrixSeries) -> MatrixSeries:
    """Multiplicative inverse; requires s_0 = identity, so the inverse again
    has integer coefficients: r_d = -sum_{e=1..d} s_e r_{d-e}."""
    n = s.n
    if s[0] != _ident(n):
        raise ValueError("inverse requires constant term = identity")
    out = [_ident(n)]
    for d in range(1, s.truncation + 1):
        acc = _zeros(n)
        for e in range(1, d + 1):
            acc = _madd(acc, _mmul(s[e], out[d - e]))
        out.append([[-x for x in row] for row in acc])
    return MatrixSeries(n, out)


def closed_form(C, D, N: int) -> MatrixSeries:
    """(1 - Ct + Dt^2)^{-1} to degree N: s_0 = 1, s_1 = C,
    s_d = C s_{d-1} - D s_{d-2}."""
    n = len(C)
    if len(D) != n:
        raise ValueError("size mismatch")
    out = [_ident(n)]
    if N >= 1:
        out.append([list(row) for row in C])
    for d in range(2, N + 1):
        out.append(_msub(_mmul(C, out[d - 1]), _mmul(D, out[d - 2])))
    return MatrixSeries(n, out[:N + 1])


EQUAL = "Equal"
FIRST_LEQ = "FirstLeq"
FIRST_GEQ = "FirstGeq"
INCOMPARABLE = "Incomparable"


@dataclass(frozen=True)
class CompareResult:
    relation: str
    witness: tuple | None  # (degree, row, col) of the first difference


def termwise_compare(s: MatrixSeries, u: MatrixSeries) -> CompareResult:
    """Entrywise comparison over all shared degrees.

    Equal / FirstLeq (s <= u everywhere) / FirstGeq / Incomparable, with the
    first differing entry in (degree, row, col) lexicographic order as
    witness."""
    if s.n != u.n:
        raise ValueError("size mismatch")
    N = min(s.truncation, u.truncation)
    witness = None
    saw_less = saw_greater = False
    for d in range(N + 1):
        sd, ud = s[d], u[d]
        for i in range(s.n):
            for j in range(s.n):
                a, b = sd[i][j], ud[i][j]
                if a != b:
                    if witness is None:
                        witness = (d, i, j)
                    if a < b:
                        saw_less = True
                    else:
                        saw_greater = True
    if not saw_less and not saw_greater:
        return CompareResult(EQUAL, None)
    if saw_less and saw_greater:
        return CompareResult(INCOMPARABLE, witness)
    return CompareResult(FIRST_LEQ if saw_less else FIRST_GEQ, witness)


def free_product_series(hA: MatrixSeries, hB: MatrixSeries) -> MatrixSeries:
    """Series of a free product over the vertex ring from the factor series:
    h = (1 - alpha - beta)^{-1} with alpha = 1 - hA^{-1}, beta = 1 - hB^{-1},
    i.e. h = (hA^{-1} + hB^{-1} - 1)^{-1}."""
    if hA.n != hB.n:
        raise ValueError("size mismatch")
    N = min(hA.truncation, hB.truncation)
    one = identity_series(hA.n, N)
    core = sub(add(inverse(hA), inverse(hB)), one)
    return inverse(core)


def is_termwise_nonnegative(s: MatrixSeries) -> tuple[bool, tuple | None]:
    for d in range(s.truncation + 1):
        for i in range(s.n):
            for j in range(s.n):
                if s[d][i][j] < 0:
                    return False, (d, i, j)
    return True, None


def to_tsv(s: MatrixSeries) -> str:
    """One line per degree: degree, then the row-major matrix entries."""
    lines = []
    for d in range(s.truncation + 1):
        cells = [str(d)] + [str(x) for row in s[d] for x in row]
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


def to_json_obj(s: MatrixSeries) -> list:
    return [{"degree": d, "matrix": [list(row) for row in s[d]]}
            for d in range(s.truncation + 1)]


def from_json_obj(obj) -> MatrixSeries:
    """Inverse of to_json_obj. Raises ValueError unless the degrees are
    exactly 0..N, each once, and every matrix is a list of lists of ints."""
    if not isinstance(obj, list) or not obj:
        raise ValueError("empty series")
    mats = {}
    for item in obj:
        d = item.get("degree") if isinstance(item, dict) else None
        if type(d) is not int or d < 0:
            raise ValueError("degree %r is not a nonnegative int" % (d,))
        if d in mats:
            raise ValueError("duplicate degree %d" % d)
        m = item.get("matrix")
        if not (isinstance(m, list) and all(
                isinstance(r, list) and all(type(x) is int for x in r)
                for r in m)):
            raise ValueError(
                "matrix of degree %d is not a list of lists of ints" % d)
        mats[d] = m
    for d in range(len(obj)):
        if d not in mats:
            raise ValueError("missing degree %d" % d)
    return MatrixSeries(len(mats[0]), [mats[d] for d in range(len(obj))])


def to_json(s: MatrixSeries) -> str:
    return json.dumps(to_json_obj(s), indent=None, separators=(",", ":"))
