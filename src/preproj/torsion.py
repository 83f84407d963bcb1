"""Degreewise integer structure of the relation ideal of a doubled quiver.

With unit integer weights the relations span a sublattice of the integer
span of each path block. For every degree and vertex block we assemble the
placement matrix (all products path o relation o path landing in the block,
written in the full path basis) and take its Smith normal form; an
elementary divisor outside {0, 1} is torsion in the cokernel, i.e. a graded
piece whose dimension jumps when the coefficients are reduced mod p.

Every run cross-checks the divisor counts against graded dimensions
computed independently over the rationals and over GF(p), for the given
primes and for every prime that divides an elementary divisor.
"""

from dataclasses import dataclass
from math import gcd

from .algebra import GradedEngine, preprojective_presentation
from .field import ExactMatrix, FieldSpec, QQ, SparseRref, smith_normal_form
from .quiver import Quiver

__all__ = [
    "BlockReport",
    "SmithReport",
    "TorsionError",
    "torsion_check",
]

class TorsionError(ValueError):
    pass


def _xgcd(a: int, b: int):
    """(g, x, y) with g = gcd(a, b) = x*a + y*b and g > 0 for (a, b) != 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def _comb(c1: int, r1: dict, c2: int, r2: dict) -> dict:
    out: dict = {}
    QQ.row_axpy(out, c1, r1)
    QQ.row_axpy(out, c2, r2)
    return out


def _lattice_insert(pivots: dict, row: dict) -> None:
    """Insert an integer row into an echelonized basis of the row lattice.

    pivots maps a leading column to a row whose entries below that column
    are zero and whose leading entry is positive. All updates are unimodular
    on pairs of rows, so the set of stored rows always generates the same
    lattice as everything inserted so far.
    """
    while row:
        c = min(row)
        v = row[c]
        piv = pivots.get(c)
        if piv is None:
            if v < 0:
                row = {k: -x for k, x in row.items()}
            pivots[c] = row
            return
        a = piv[c]
        if v % a == 0:
            row = _comb(1, row, -(v // a), piv)
            continue
        g, x, y = _xgcd(a, v)
        # det [[x, y], [-v/g, a/g]] = (x*a + y*v)/g = 1
        pivots[c] = _comb(x, piv, y, row)
        row = _comb(a // g, row, -(v // g), piv)


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending."""
    n = abs(n)
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


@dataclass(frozen=True)
class BlockReport:
    """Divisor data of one (degree, block) placement matrix.

    divisors is the full chain (zeros trailing) when the matrix fit under
    the cell cap, None otherwise; in the partial case only the ranks over
    the rationals and over the checked primes are known.
    """

    degree: int
    row: int
    col: int
    divisors: tuple | None
    partial: bool
    rank_q: int
    ranks_p: tuple  # pairs (p, rank over GF(p)); only filled when partial


@dataclass(frozen=True)
class SmithReport:
    truncation: int
    entries: tuple
    torsion_found: bool
    witnesses: tuple  # (degree, row, col, divisor or prime with a deficit)
    partial_blocks: tuple  # (degree, row, col)
    primes: tuple

    def divisors_outside_units(self) -> tuple:
        return tuple(w[3] for w in self.witnesses)


def _double_path_blocks(gens, n: int, N: int) -> list:
    """paths[d][(i, j)] = sorted tuples of generator indices, leftmost
    applied last, running j -> i. Degree 0 holds the trivial path ()."""
    paths = [{(v, v): [()] for v in range(n)}]
    by_head: dict[int, list[int]] = {}
    for k, g in enumerate(gens):
        by_head.setdefault(g.tail, []).append(k)
    for _ in range(N):
        prev = paths[-1]
        nxt: dict = {}
        for (e, j), lst in prev.items():
            for k in by_head.get(e, ()):
                blk = (gens[k].head, j)
                ext = nxt.setdefault(blk, [])
                for w in lst:
                    ext.append((k,) + w)
        for lst in nxt.values():
            lst.sort()
        paths.append(nxt)
    return paths


def _int_relations(pres) -> list:
    rels = []
    for rel in pres.relations:
        terms = []
        for c, b, a in rel.terms:
            if c.denominator != 1:
                raise TorsionError("non-integer relation coefficient %s" % (c,))
            terms.append((int(c), b, a))
        rels.append((rel.start, terms))
    return rels


def _placement_rows(paths, rels, d: int, i: int, j: int, col_index: dict):
    """Yield the integer rows p o rel o u over the block's path columns."""
    for v, terms in rels:
        for left_len in range(d - 1):
            left = paths[left_len].get((i, v))
            if not left:
                continue
            right = paths[d - 2 - left_len].get((v, j))
            if not right:
                continue
            for p in left:
                for u in right:
                    # the terms' pairs (b, a) are distinct, so are the keys
                    yield {col_index[p + (b, a) + u]: c for c, b, a in terms}


def _count_rows(paths, rels, d: int, i: int, j: int) -> int:
    total = 0
    for v, _ in rels:
        for left_len in range(d - 1):
            nl = len(paths[left_len].get((i, v), ()))
            if nl:
                total += nl * len(paths[d - 2 - left_len].get((v, j), ()))
    return total


def torsion_check(q: Quiver, N: int, cell_cap: int = 4_000_000,
                  primes: tuple = (2, 3)) -> SmithReport:
    """Smith normal form of every placement matrix up to degree N.

    Weights must be absent or +-1, otherwise the integer form of the
    relations is not defined and a TorsionError is raised. Blocks whose
    matrix exceeds cell_cap cells skip the divisor computation and fall
    back to rank comparisons over the rationals and over GF(p) for the
    given primes; such blocks are reported as partial, and a rank deficit
    mod p there is witnessed by the prime itself.

    Every run re-derives the graded dimensions of the quotient from the
    divisor data and asserts they match an independent computation over
    the rationals and over each checked prime field.
    """
    for key, val in sorted(q.gamma.items()):
        if val != 1 and val != -1:
            raise TorsionError(
                "gamma %s = %s is not a unit integer; no integer form" % (key, val))
    pres = preprojective_presentation(q, QQ)
    gens = pres.generators
    n = len(pres.vertices)
    rels = _int_relations(pres)
    paths = _double_path_blocks(gens, n, N)

    entries = []
    witnesses = []
    partial_blocks = []
    rank_q_at: dict = {}   # (d, i, j) -> rank over the rationals
    rank_p_at: dict = {}   # (d, i, j, p) -> rank over GF(p)
    div_primes: set = set()

    for d in range(2, N + 1):
        if not rels:
            break
        for (i, j) in sorted(paths[d]):
            cols = paths[d][(i, j)]
            nrows = _count_rows(paths, rels, d, i, j)
            if nrows == 0:
                continue
            col_index = {w: k for k, w in enumerate(cols)}
            rows = _placement_rows(paths, rels, d, i, j, col_index)
            if nrows * len(cols) > cell_cap:
                ranks = _ranks(rows, (None,) + tuple(primes))
                rank_q = ranks.pop(None)
                ranks_p = tuple(sorted(ranks.items()))
                entries.append(BlockReport(d, i, j, None, True, rank_q, ranks_p))
                partial_blocks.append((d, i, j))
                rank_q_at[(d, i, j)] = rank_q
                for p, r in ranks_p:
                    rank_p_at[(d, i, j, p)] = r
                    if r < rank_q:
                        witnesses.append((d, i, j, p))
                        div_primes.add(p)
                continue
            pivots: dict = {}
            for row in rows:
                _lattice_insert(pivots, row)
            basis = list(pivots.values())
            m = ExactMatrix(len(basis), len(cols))
            for r, row in enumerate(basis):
                for c, v in row.items():
                    m.entries[(r, c)] = v
            divs = smith_normal_form(m)
            if not all(divs):
                raise AssertionError("lattice basis rows must be independent")
            rank_q = len(divs)
            divs = divs + [0] * (min(nrows, len(cols)) - rank_q)
            entries.append(BlockReport(d, i, j, tuple(divs), False, rank_q, ()))
            rank_q_at[(d, i, j)] = rank_q
            for dv in divs:
                if dv not in (0, 1):
                    witnesses.append((d, i, j, dv))
                    div_primes.update(_prime_factors(dv))

    check_primes = sorted(set(primes) | div_primes)
    _cross_check(q, pres, rels, N, paths, entries, rank_q_at, rank_p_at,
                 check_primes)

    return SmithReport(N, tuple(entries), bool(witnesses), tuple(witnesses),
                       tuple(partial_blocks), tuple(check_primes))


def _ranks(rows, primes) -> dict:
    """Rank of the integer rows over Q (key None) and over GF(p) for every
    other p in primes, from one pass over the rows."""
    echs = {p: SparseRref(QQ if p is None else FieldSpec(p), reduced=False)
            for p in primes}
    for row in rows:
        for p, ech in echs.items():
            mrow = row if p is None else {
                k: v % p for k, v in row.items() if v % p}
            if mrow:
                ech.add_row(mrow)
    return {p: ech.rank for p, ech in echs.items()}


def _cross_check(q, pres, rels, N, paths, entries, rank_q_at, rank_p_at,
                 check_primes):
    """Check #paths - rank == graded dimension, over the rationals and
    over GF(p) for every checked prime, on every degree and block. pres is
    the rational presentation of q and rels its integer relations."""
    series_by = {None: GradedEngine(pres).series(N)}
    for p in check_primes:
        pres_p = preprojective_presentation(q, FieldSpec(p))
        series_by[p] = GradedEngine(pres_p).series(N)
    rank_p_full = dict(rank_p_at)
    for e in entries:
        if e.divisors is None:
            continue
        for p in check_primes:
            rank_p_full[(e.degree, e.row, e.col, p)] = sum(
                1 for dv in e.divisors if dv % p)
    need_rows = [
        (e.degree, e.row, e.col) for e in entries if e.divisors is None]
    # partial blocks know ranks only for the configured primes; widen to
    # any extra primes contributed by divisors elsewhere
    for (d, i, j) in need_rows:
        missing = [p for p in check_primes if (d, i, j, p) not in rank_p_full]
        if not missing:
            continue
        col_index = {w: k for k, w in enumerate(paths[d][(i, j)])}
        rows = _placement_rows(paths, rels, d, i, j, col_index)
        for p, r in _ranks(rows, missing).items():
            rank_p_full[(d, i, j, p)] = r
    for d in range(N + 1):
        for (i, j), cols in paths[d].items():
            npaths = len(cols)
            rq = rank_q_at.get((d, i, j), 0)
            if series_by[None][d][i][j] != npaths - rq:
                raise AssertionError(
                    "rational dimension mismatch at degree %d block (%d,%d)"
                    % (d, i, j))
            for p in check_primes:
                rp = rank_p_full[(d, i, j, p)] if (d, i, j) in rank_q_at else 0
                if rp > rq:
                    raise AssertionError(
                        "rank over GF(%d) exceeds rational rank" % p)
                if series_by[p][d][i][j] != npaths - rp:
                    raise AssertionError(
                        "GF(%d) dimension mismatch at degree %d block (%d,%d)"
                        % (p, d, i, j))
