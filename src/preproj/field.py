"""Exact linear algebra over Q and over GF(p).

Scalars are Fraction over Q and canonical ints in [0, p) over GF(p).
No floating point is used anywhere. Matrices are stored sparsely as
(row, col) -> value dictionaries; row vectors as key -> value dictionaries
over arbitrary ordered hashable keys.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from math import gcd


class FieldError(ValueError):
    pass


# Miller-Rabin with the first twelve prime bases is exact below this bound
# (Sorenson and Webster, 2015)
PRIME_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality for n < PRIME_BOUND; FieldError above."""
    if n >= PRIME_BOUND:
        raise FieldError("%d is above the primality bound %d"
                         % (n, PRIME_BOUND))
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldSpec:
    """The coefficient field: Q (p is None) or GF(p) for a prime p."""

    __slots__ = ("p", "zero", "one")

    def __init__(self, p: int | None = None):
        if p is not None and not is_prime(p):
            raise FieldError("not a prime: %r" % (p,))
        self.p = p
        # one shared instance of each constant: Fractions are immutable
        self.zero = Fraction(0) if p is None else 0
        self.one = Fraction(1) if p is None else 1

    @classmethod
    def parse(cls, text: str) -> "FieldSpec":
        """Parse 'q' or 'f<p>' with p in ASCII digits (e.g. 'f2', 'f7')."""
        t = text.strip().lower()
        if t == "q":
            return cls(None)
        if t.startswith("f") and t[1:].isascii() and t[1:].isdigit():
            return cls(int(t[1:]))
        raise FieldError("unrecognized field %r (expected q or f<p>)" % (text,))

    @property
    def token(self) -> str:
        """The --field notation that parse reads back: 'q' or 'f<p>'."""
        return "q" if self.p is None else "f%d" % self.p

    @property
    def name(self) -> str:
        return "Q" if self.p is None else "GF(%d)" % self.p

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldSpec) and self.p == other.p

    def __hash__(self) -> int:
        return hash(("FieldSpec", self.p))

    def __repr__(self) -> str:
        return "FieldSpec(%r)" % (self.p,)

    def convert(self, x):
        """Map an int or Fraction into the field. Raises FieldError for any
        other type (a bool, float or str included) and when a denominator
        vanishes mod p."""
        if not isinstance(x, (int, Fraction)) or isinstance(x, bool):
            raise FieldError("%r is not an int or a Fraction" % (x,))
        if self.p is None:
            return Fraction(x)
        q = Fraction(x)
        if q.denominator % self.p == 0:
            raise FieldError("denominator of %s is 0 mod %d" % (q, self.p))
        return q.numerator * pow(q.denominator, -1, self.p) % self.p

    def unit(self, x):
        v = self.convert(x)
        if not v:
            raise FieldError("%s reduces to 0 in %s" % (x, self.name))
        return v

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if self.p is None:
            return Fraction(1) / a
        return pow(a, -1, self.p)

    def acc(self, row: dict, key, val) -> None:
        """row[key] += val, reduced into the field, dropping a zero result.
        Mutates row. val may be an unreduced product of field elements."""
        old = row.get(key)
        nv = val if old is None else old + val
        if self.p is not None:
            nv %= self.p
        if nv:
            row[key] = nv
        elif old is not None:
            del row[key]

    def row_axpy(self, dst: dict, c, src: dict) -> None:
        """dst += c * src, dropping zero entries. Mutates dst."""
        p = self.p
        if p is None:
            for k, v in src.items():
                nv = dst.get(k, 0) + c * v
                if nv:
                    dst[k] = nv
                elif k in dst:
                    del dst[k]
        else:
            for k, v in src.items():
                nv = (dst.get(k, 0) + c * v) % p
                if nv:
                    dst[k] = nv
                elif k in dst:
                    del dst[k]

    def row_scale(self, row: dict, c) -> None:
        p = self.p
        if p is None:
            for k in row:
                row[k] *= c
        else:
            for k in row:
                row[k] = row[k] * c % p


QQ = FieldSpec()


class SparseRref:
    """Incremental row echelon form over a FieldSpec.

    Keys are ordered hashables; the pivot of a row is its minimal key. A
    new row is reduced against the stored rows until none of its keys is a
    pivot, then normalized to coefficient 1 at its pivot; an insertion
    changes no stored row. The pivot key set is the staircase of the row
    space, so ranks need no more, and kernel_vectors finds kernels by
    inserting augmented rows. back_substitute turns the stored rows into
    the canonical reduced echelon form when rewrite rules are wanted.
    Where the Tor differentials (koszul._kernel_degree) read only a rank,
    distinct_leads certifies it without an echelon when no two rows share
    a minimal key; this class is the fallback when two do.
    """

    def __init__(self, field: FieldSpec):
        self.field = field
        self.rows: dict = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add_row(self, row: dict):
        """Reduce a copy of row and insert it. Returns (pivot, stored_row),
        or (None, {}) when the row is already in the span. The caller's row
        is never changed or stored; a copy that holds no pivot key is
        stored without building the reduction heap."""
        field = self.field
        rows = self.rows
        row = dict(row)
        if not rows.keys().isdisjoint(row):
            heap = sorted(row)  # a sorted list is a heap
            seen = set(heap)
            while heap:
                k = heappop(heap)
                c = row.get(k)
                if not c or k not in rows:
                    continue
                piv = rows[k]
                field.row_axpy(row, field.neg(c), piv)
                for nk in piv:
                    if nk not in seen:
                        seen.add(nk)
                        heappush(heap, nk)
        if not row:
            return None, {}
        k = min(row)
        if row[k] != field.one:
            field.row_scale(row, field.inv(row[k]))
        rows[k] = row
        return k, row


def distinct_leads(rows):
    """The set of the rows' minimal keys when no row is empty and no two
    rows share one; None otherwise, returned at the first empty or
    repeated row without reading further.

    Rows with pairwise distinct minimal keys are triangular, hence
    independent: their rank is their count and their leads are the pivot
    keys any SparseRref of them would hold. rows may be a generator, so a
    rank can be certified without storing a row. Its caller is
    koszul._kernel_degree; the engine's counted degrees read their leads
    off the rewrite table instead (algebra.distinct_placement_leads).
    """
    leads = set()
    for row in rows:
        if not row:
            return None
        k = min(row)
        if k in leads:
            return None
        leads.add(k)
    return leads


def kernel_vectors(rows: dict, field: FieldSpec) -> list[dict]:
    """A basis of the combinations {tag: c} with sum c * rows[tag] = 0,
    for rows given as a map tag -> row.

    Each row is re-keyed (0, key) and augmented by (1, tag): 1, so every
    key of the image sorts before every tag, and inserted into a
    SparseRref. A stored row whose pivot is a tag has no image part left,
    so its tag part is a vanishing combination. These rows are echelon in
    the tags, hence independent, and there are len(rows) - rank of them.
    """
    ech = SparseRref(field)
    for tag, row in rows.items():
        aug = {(0, k): v for k, v in row.items()}
        aug[(1, tag)] = field.one
        ech.add_row(aug)
    return [{tag: v for (_, tag), v in row.items()}
            for (side, _), row in ech.rows.items() if side == 1]


def back_substitute(pivots: dict, field: FieldSpec):
    """Clear unit pivots from echelon rows, largest pivot first.

    pivots maps each row's pivot (its minimal key) to the row. A unit row
    has coefficient 1 at its pivot; every unit pivot key is eliminated from
    all other rows. Returns (units, others): the unit rows by pivot and the
    remaining rows, both largest pivot first. Over a field every normalized
    pivot is a unit, so units is the reduced echelon form, canonical for
    the row space. Over Z (integer rows with QQ passed, so they stay
    integer) the units are integral rewrite rules and others the rows with
    a larger leading coefficient. Mutates the rows.
    """
    units: dict = {}
    others: list = []
    for k in sorted(pivots, reverse=True):
        row = pivots[k]
        # a unit row holds no larger unit key, so no elimination brings
        # one back
        for m in [m for m in row if m in units]:
            field.row_axpy(row, field.neg(row[m]), units[m])
        if row[k] == 1:
            units[k] = row
        else:
            others.append(row)
    return units, others


class ExactMatrix:
    """Sparse exact matrix: (row, col) -> nonzero int or Fraction."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: dict | None = None):
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for (r, c), v in entries.items():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise ValueError("entry (%d,%d) outside %dx%d" % (r, c, rows, cols))
                if v:
                    self.entries[(r, c)] = v


def smith_normal_form(m: ExactMatrix) -> list[int]:
    """Elementary divisors d_1 | d_2 | ... of an integer matrix.

    Returns min(rows, cols) nonnegative integers, nonzero divisors first,
    each dividing the next, zeros trailing. The pivot is an entry of least
    absolute value, ties by (row, col). Row operations reduce its column
    mod the pivot; with the column clear, a column operation changes only
    the pivot row, which is reduced mod the pivot the same way. A nonzero
    remainder is a smaller pivot, so the search starts over; a pivot alone
    in its row and column is recorded and its row dropped. The recorded
    pivots become the chain by diag(a, b) ~ diag(gcd, lcm).
    """
    rows: dict[int, dict[int, int]] = {}
    for (r, c), v in m.entries.items():
        if not isinstance(v, int):
            raise ValueError("smith_normal_form needs integer entries, got %r" % (v,))
        if v:
            rows.setdefault(r, {})[c] = v
    pivots: list[int] = []
    while rows:
        _, pr, pc = min((abs(v), r, c) for r, row in rows.items()
                        for c, v in row.items())
        prow = rows[pr]
        p = prow[pc]
        clear = True
        for r, row in list(rows.items()):
            if r != pr and pc in row:
                QQ.row_axpy(row, -(row[pc] // p), prow)
                if not row:
                    del rows[r]
                elif pc in row:
                    clear = False
        if clear:
            rows[pr] = {c: v % p for c, v in prow.items() if v % p}
            if rows[pr]:
                rows[pr][pc] = p
            else:
                pivots.append(abs(p))
                del rows[pr]
    chain = sorted(pivots)
    # the leading ones divide everything, so the gcd/lcm pass starts after
    for i in range(chain.count(1), len(chain)):
        for j in range(i + 1, len(chain)):
            if chain[j] % chain[i]:
                g = gcd(chain[i], chain[j])
                chain[i], chain[j] = g, chain[i] // g * chain[j]
    for a, b in zip(chain, chain[1:]):
        if b % a:
            raise AssertionError("divisor chain broken: %r" % (chain,))
    return chain + [0] * (min(m.rows, m.cols) - len(chain))
