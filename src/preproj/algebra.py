"""Quadratic presentations over a vertex ring and their graded dimensions.

A presentation has a finite ordered vertex set, degree-1 generators (arrows
between vertices), and degree-2 relations: sums c*(b o a) of scalar multiples
of composable generator pairs, all terms of one relation sharing a single
(end, start) vertex pair. Graded pieces of the quotient algebra are computed
degree by degree with exact linear algebra over Q or GF(p).

Convention used throughout: a path is a tuple of generator indices written
left to right, composing right to left. In (g1, ..., gd) the rightmost gd is
applied first, so the path runs from t(gd) to h(g1); the dims matrix entry
(i, j) counts paths ending at vertex i and starting at vertex j. Degree-0
paths (one per vertex) are keyed by the vertex index itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .field import (
    QQ,
    FieldError,
    FieldSpec,
    SparseRref,
    back_substitute,
)
from .quiver import Quiver, double
from .series import MatrixSeries, closed_form, is_termwise_nonnegative


class AlgebraError(ValueError):
    pass


@dataclass(frozen=True)
class Generator:
    name: str
    tail: int
    head: int


class Relation:
    """Block-homogeneous quadratic relation: terms (c, b, a) meaning c*(b o a)
    with a applied first, h(a) = t(b); every term runs start -> end."""

    __slots__ = ("terms", "start", "end")

    def __init__(self, terms, start: int, end: int):
        self.terms = tuple(terms)
        self.start = start
        self.end = end

    def __repr__(self) -> str:
        return "Relation(%d terms, block end=%d start=%d)" % (
            len(self.terms), self.end, self.start)


class Presentation:
    """Vertices, generators, relations, field. Relations come in as raw
    (coefficient, b, a) triples; coefficients, each an int or a Fraction,
    are converted into the field (FieldSpec.convert), duplicate (b, a)
    pairs merged, zero terms and empty relations dropped.

    relation_rows is the canonical reduced echelon basis of the span of the
    relations, as rows over the degree-2 monomial keys (b, a), independent
    of listing order. It is computed here, once per presentation, and
    read by relation_dim_matrix and the Koszul resolution's stage 2."""

    __slots__ = ("vertices", "generators", "relations", "field",
                 "relation_rows")

    def __init__(self, vertices, generators, relations, field: FieldSpec = QQ):
        self.vertices = tuple(vertices)
        if not self.vertices:
            raise AlgebraError("a presentation needs at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise AlgebraError("duplicate vertex name")
        n = len(self.vertices)
        self.generators = tuple(generators)
        names = set()
        for g in self.generators:
            if not g.name or g.name in names:
                raise AlgebraError("missing or duplicate generator name %r" % (g.name,))
            names.add(g.name)
            if not (0 <= g.tail < n and 0 <= g.head < n):
                raise AlgebraError("generator %r endpoints out of range" % (g.name,))
        self.field = field
        rels = []
        ech = SparseRref(field)
        for raw in relations:
            rel = self._make_relation(raw)
            if rel is not None:
                rels.append(rel)
                ech.add_row({(b, a): c for c, b, a in rel.terms})
        self.relations = tuple(rels)
        units, _ = back_substitute(ech.rows, field)
        self.relation_rows = tuple(units[k] for k in sorted(units))

    def _make_relation(self, raw):
        gens = self.generators
        block = None
        merged: dict[tuple[int, int], object] = {}
        seen_any = False
        for c, b, a in raw:
            seen_any = True
            if not (0 <= b < len(gens) and 0 <= a < len(gens)):
                raise AlgebraError("relation term uses unknown generator index")
            if gens[a].head != gens[b].tail:
                raise AlgebraError(
                    "term (%s, %s) is not composable" % (gens[b].name, gens[a].name))
            blk = (gens[b].head, gens[a].tail)
            if block is None:
                block = blk
            elif blk != block:
                raise AlgebraError("relation mixes blocks %s and %s" % (block, blk))
            self.field.acc(merged, (b, a), self.field.convert(c))
        if not seen_any:
            raise AlgebraError("empty relation")
        if not merged:
            return None
        end, start = block
        terms = tuple((merged[k], k[0], k[1]) for k in sorted(merged))
        return Relation(terms, start, end)

    def __repr__(self) -> str:
        return "Presentation(%d vertices, %d generators, %d relations, %s)" % (
            len(self.vertices), len(self.generators), len(self.relations),
            self.field.name)


def generator_matrix(p: Presentation) -> list[list[int]]:
    """C[i][j] = number of generators from j to i."""
    n = len(p.vertices)
    C = [[0] * n for _ in range(n)]
    for g in p.generators:
        C[g.head][g.tail] += 1
    return C


def relation_dim_matrix(p: Presentation) -> list[list[int]]:
    """D[i][j] = dimension of the relation span in block (i, j), i.e. the
    rank of the relations there, not the count of listed relations."""
    n = len(p.vertices)
    D = [[0] * n for _ in range(n)]
    gens = p.generators
    for row in p.relation_rows:
        b, a = next(iter(row))
        D[gens[b].head][gens[a].tail] += 1
    return D


def preprojective_presentation(q: Quiver, field: FieldSpec = QQ) -> Presentation:
    """Presentation on the double of q with one relation per black vertex:
    sum over arrows a with h(a)=i of gamma_a (a o a*) minus sum over arrows a
    with t(a)=i of gamma_{a*} (a* o a). Absent gamma means all weights 1; a
    nonempty gamma must cover exactly the doubled arrows touching a black
    vertex, with every weight a unit in the field."""
    dq = double(q)
    idx = {v: i for i, v in enumerate(q.vertices)}
    gens = tuple(Generator(a.name, idx[a.tail], idx[a.head]) for a in dq.arrows)
    nA = len(q.arrows)
    black = q.black
    if q.gamma:
        touching = {a.name for a in dq.arrows
                    if a.tail in black or a.head in black}
        missing = sorted(touching - set(q.gamma))
        if missing:
            raise AlgebraError("gamma missing for %s" % ", ".join(missing))
        weight = lambda name: q.gamma[name]
    else:
        weight = lambda name: Fraction(1)
    rels = []
    for i, v in enumerate(q.vertices):
        if v in q.white:
            continue
        terms = []
        for k, a in enumerate(q.arrows):
            if idx[a.head] == i:
                terms.append((field.unit(weight(a.name)), k, nA + k))
            if idx[a.tail] == i:
                terms.append((field.neg(field.unit(weight(a.name + "*"))),
                              nA + k, k))
        if terms:
            rels.append(terms)
    return Presentation(q.vertices, gens, rels, field)


def place_relation(terms, u, rewrite: dict, acc) -> dict:
    """The placement rel o u in degree-d candidates, where u is a degree
    d-2 basis path (() for the trivial path) and rewrite the degree d-1
    rewrite table. Each (a,) + u is a degree d-1 candidate, hence a basis
    path unless it is a rewrite key; acc is the accumulate primitive of the
    coefficient ring."""
    row: dict = {}
    for c, b, a in terms:
        m = (a,) + u
        exp = rewrite.get(m)
        if exp is None:
            acc(row, (b,) + m, c)
        else:
            for w2, c2 in exp.items():
                acc(row, (b,) + w2, c * c2)
    return row


def distinct_placement_leads(relations, rewrite: dict) -> bool:
    """True when the placement rows of the next degree d are certified to
    have pairwise distinct leads (minimal keys) and no empty row, read off
    the degree d-1 rewrite table alone; False when that is not shown.

    Take a relation whose smallest first letter b occurs in one term only,
    (c, b, a). Its placement at a degree d-2 basis path u expands
    m = (a,) + u, a degree d-1 candidate: m itself when m is a basis path,
    rewrite[m] when m is a rewrite key. The keys starting with b come from
    that term alone, are (b,) + w for the w of that expansion, and keep
    nonzero coefficients; every other key starts with a larger letter. So
    the row's lead is (b,) + L(m), with L(m) = m for a basis path and
    L(m) = min(rewrite[m]) for a key with a nonempty rule. The rows have
    pairwise distinct leads and none is empty when:

    (i) every relation's smallest-b group is a single term;
    (ii) the smallest b differs from relation to relation;
    (iii) every rewrite key m whose first letter is some relation's a has a
    nonempty rule, and min(rewrite[m])[0] != m[0];
    (iv) for each such a, the leads min(rewrite[m]) of its keys are pairwise
    distinct.

    Proof. By (iii) no row is empty. Rows of two relations differ in their
    leads' first letter by (ii). Two rows of one relation, at u != u', have
    m != m'. If neither is a key, their leads (b,) + m differ; if both are,
    (iv) separates them. If m is a key and m' is not, L(m)[0] != a by (iii)
    while m'[0] = a. The keys with first letter a are exactly the
    candidates (a,) + u that are keys, with u a basis path ending at t(a),
    the relation's start, so (iv) covers every pair; relations sharing an a
    share those keys, and their b's keep them apart.

    Rows with pairwise distinct leads are triangular, so their rank is their
    count, one per placement. Without (iii) a lead x of a rule may start with
    a: then x = (a,) + x[1:], and x[1:] is a basis path ending at the
    relation's start (the basis is suffix-closed), so x is also the lead of
    the placement at x[1:]. The check costs one pass over the table. It is
    the one-degree case of the overlap check in Bergman's diamond lemma
    (Adv. Math. 29, 1978).
    """
    firsts = set()
    letters = set()
    for rel in relations:
        b = min(t[1] for t in rel.terms)
        group = [t for t in rel.terms if t[1] == b]
        if len(group) != 1 or b in firsts:
            return False
        firsts.add(b)
        letters.add(group[0][2])
    seen = set()
    for m, rule in rewrite.items():
        if m[0] in letters:
            if not rule:
                return False
            lead = min(rule)
            if lead[0] == m[0] or (m[0], lead) in seen:
                return False
            seen.add((m[0], lead))
    return True


# Largest candidate count C . dims_{d-1} a degree's echelon may start on.
# On the star with double arms to three leaves (centre and one leaf white)
# degree 12 has 9,035,744 candidates and still builds; degree 13 has
# 26,375,732 and is refused before its echelon starts.
CANDIDATE_BOUND = 16_000_000


class CandidateBoundError(RuntimeError):
    """A degree whose candidate count exceeds CANDIDATE_BOUND. The degrees
    below it were computed, so the answer is undetermined, not malformed
    input: deliberately not an AlgebraError."""

    def __init__(self, degree: int, candidates: int, bound: int):
        super().__init__(
            "degree %d has %d candidate paths, above the bound of %d"
            % (degree, candidates, bound))
        self.degree = degree
        self.candidates = candidates
        self.bound = bound


def check_candidates(d: int, count: int) -> None:
    """Refuse degree d before its echelon starts when its candidate count
    exceeds CANDIDATE_BOUND."""
    if count > CANDIDATE_BOUND:
        raise CandidateBoundError(d, count, CANDIDATE_BOUND)


class GradedEngine:
    """Degreewise quotient of the tensor algebra on the generators by the
    two-sided ideal of the relations.

    Degree-d monomial candidates are (g,) + w over the degree d-1 basis; the
    relation placements rel o u, u running over the degree d-2 basis, are
    expanded in those candidates through the degree d-1 rewrite table and fed
    to an exact row echelon with lexicographically minimal pivots. Candidates
    that are not pivots form the degree-d basis, which is therefore
    suffix-closed and independent of relation listing order. The echelon
    only reduces forward; when a degree needs a rewrite table (pivot
    monomial -> basis expansion), field.back_substitute turns its pivot
    rows into the canonical reduced echelon form, whose rows are the rules.

    No candidate is listed to count a degree. The candidates in block
    (i, j) number exactly (C . dims_{d-1})[i][j] and every pivot is a
    candidate, so dims_d is that product minus the pivots per (end, start)
    block. The product is compared with CANDIDATE_BOUND before the echelon
    starts. A degree built for its count alone first asks the degree d-1
    rewrite table whether its placement rows have pairwise distinct leads
    and none is empty (distinct_placement_leads). Then the rows are
    triangular, one per placement, so dims_{d-2} gives the pivot count
    per block and no row is made, nor the degree d-2 basis tuple.
    Otherwise the rows go through the echelon.

    Each built degree stores its dims matrix and, unless it was built for
    its count alone, its rewrite table. Its basis tuple (the candidates that
    are not rewrite keys, in lex order) and the groupings of that tuple by
    end or start vertex are made on first use; a degree counted without a
    rewrite table is rebuilt with one first. Both the rebuild and the tuple
    must reproduce the stored dims, or AssertionError is raised.
    """

    def __init__(self, pres: Presentation):
        self.pres = pres
        self.field = pres.field
        n = len(pres.vertices)
        self._basis = {0: tuple(range(n)),
                       1: tuple((k,) for k in range(len(pres.generators)))}
        self._rewrite: list[dict | None] = [{}, {}]
        self._dims = [[[int(i == j) for j in range(n)] for i in range(n)],
                      generator_matrix(pres)]
        self._groups: dict = {}
        self._mul_cache: dict = {}

    def _group(self, d: int, by_end: bool) -> dict:
        """Degree-d basis paths (d >= 1) grouped by end or start vertex."""
        out = self._groups.get((d, by_end))
        if out is None:
            gens = self.pres.generators
            out = {}
            for m in self._basis_tuple(d):
                v = gens[m[0]].head if by_end else gens[m[-1]].tail
                out.setdefault(v, []).append(m)
            self._groups[(d, by_end)] = out
        return out

    def _basis_tuple(self, d: int) -> tuple:
        """The degree-d basis, made on first use from the degree d-1 basis
        grouped by end vertex: (g,) + w in lex order, rewrite keys left
        out."""
        out = self._basis.get(d)
        if out is None:
            self._ensure(d, True)
            gens = self.pres.generators
            rw = self._rewrite[d]
            below = self._group(d - 1, True)
            out = tuple(m for g in range(len(gens))
                        for w in below.get(gens[g].tail, ())
                        if (m := (g,) + w) not in rw)
            n = len(self.pres.vertices)
            M = [[0] * n for _ in range(n)]
            for m in out:
                M[gens[m[0]].head][gens[m[-1]].tail] += 1
            if M != self._dims[d]:
                raise AssertionError(
                    "degree %d basis counts %r, stored dims %r"
                    % (d, M, self._dims[d]))
            self._basis[d] = out
        return out

    def path_end(self, m) -> int:
        return m if isinstance(m, int) else self.pres.generators[m[0]].head

    def _ensure(self, d: int, need_rewrite: bool) -> None:
        """Build degrees 2..d: rewrite tables below d, and at d only when
        need_rewrite."""
        built = len(self._dims)
        if built > d and (not need_rewrite or self._rewrite[d] is not None):
            return
        # only the top built degree can lack a rewrite table
        for e in range(max(2, built - 1), d + 1):
            want = need_rewrite or e < d
            if e >= len(self._dims) or (want and self._rewrite[e] is None):
                self._build(e, want)

    def _build(self, d: int, with_rewrite: bool) -> None:
        field = self.field
        gens = self.pres.generators
        n = len(self.pres.vertices)
        C, prev = self._dims[1], self._dims[d - 1]
        M = [[sum(C[i][k] * prev[k][j] for k in range(n)) for j in range(n)]
             for i in range(n)]
        check_candidates(d, sum(map(sum, M)))
        rw = self._rewrite[d - 1]
        if not with_rewrite and distinct_placement_leads(self.pres.relations,
                                                         rw):
            # one independent row per placement rel o u: dims_{d-2} counts
            # the u, and no row is made
            below = self._dims[d - 2]
            for rel in self.pres.relations:
                M[rel.end] = [x - y for x, y in zip(M[rel.end],
                                                    below[rel.start])]
        else:
            older = None if d == 2 else self._group(d - 2, True)
            ech = SparseRref(field)
            for rel in self.pres.relations:
                for u in ((),) if older is None else older.get(rel.start, ()):
                    row = place_relation(rel.terms, u, rw, field.acc)
                    if row:
                        ech.add_row(row)
            for m in ech.rows:
                M[gens[m[0]].head][gens[m[-1]].tail] -= 1
        if any(v < 0 for row in M for v in row):
            raise AssertionError(
                "degree %d has more pivots than candidates: %r" % (d, M))
        rewrite = None
        if with_rewrite:
            units, _ = back_substitute(ech.rows, field)
            rewrite = {piv: {m: field.neg(c) for m, c in r.items() if m != piv}
                       for piv, r in units.items()}
        if len(self._dims) > d:
            # a counted degree upgraded in place; the pivot keys are
            # canonical, so its dims cannot change
            if M != self._dims[d]:
                raise AssertionError(
                    "degree %d dims %r on rebuild, stored %r"
                    % (d, M, self._dims[d]))
            self._rewrite[d] = rewrite
        else:
            self._rewrite.append(rewrite)
            self._dims.append(M)

    def basis(self, d: int):
        """Degree-d basis paths (vertex indices at d=0), lexicographic."""
        if d < 0:
            raise AlgebraError("negative degree")
        return self._basis_tuple(d)

    def basis_by_start(self, d: int, v: int):
        """Degree-d basis paths starting at vertex v (at d=0: the trivial
        path, keyed by the vertex index itself)."""
        if d < 0:
            raise AlgebraError("negative degree")
        if d == 0:
            return (v,)
        return tuple(self._group(d, False).get(v, ()))

    def dims(self, d: int) -> list[list[int]]:
        """Degree-d dims matrix (a fresh copy of the count stored when the
        degree was built)."""
        if d < 0:
            raise AlgebraError("negative degree")
        self._ensure(d, False)
        return [list(row) for row in self._dims[d]]

    def series(self, N: int) -> MatrixSeries:
        """Dims to degree N. Rewrite tables are built through N-1, basis
        tuples through N-3 (the degree N-1 placements group the degree N-3
        basis by end vertex) and degree N is only counted; when its leads
        are not certified, the placements of degree N also group the
        degree N-2 basis."""
        self._ensure(N, False)
        return MatrixSeries(len(self.pres.vertices),
                            [self.dims(d) for d in range(N + 1)])

    def left_mul_path(self, g: int, w):
        """Normal form of generator g times the basis path w (an int means
        the trivial path at that vertex): {basis path: coeff}, empty when the
        product vanishes. Cached; callers must not mutate the result."""
        key = (g, w)
        hit = self._mul_cache.get(key)
        if hit is not None:
            return hit
        gens = self.pres.generators
        if isinstance(w, int):
            out = {(g,): self.field.one} if gens[g].tail == w else {}
        elif gens[g].tail != gens[w[0]].head:
            out = {}
        else:
            m = (g,) + w
            self._ensure(len(m), True)
            out = self._rewrite[len(m)].get(m)
            if out is None:
                out = {m: self.field.one}
        self._mul_cache[key] = out
        return out

    def left_mul(self, g: int, vec: dict) -> dict:
        """Left-multiply a degree-d coordinate vector by generator g, in
        degree d+1 coordinates. Degree-0 vectors are keyed by vertex index."""
        out: dict = {}
        for w, c in vec.items():
            self.field.row_axpy(out, c, self.left_mul_path(g, w))
        return out

    def normal_form(self, path) -> dict:
        """Basis expansion of an arbitrary word of generator indices; {} for
        a non-composable (hence zero) word."""
        path = tuple(path)
        gens = self.pres.generators
        for g in path:
            if not (0 <= g < len(gens)):
                raise AlgebraError("unknown generator index %r" % (g,))
        if not path:
            raise AlgebraError("empty word has no single vertex; use dims(0)")
        vec = {gens[path[-1]].tail: self.field.one}
        for pos in range(len(path) - 1, -1, -1):
            vec = self.left_mul(path[pos], vec)
            if not vec:
                return {}
        return vec


def closed_form_floor(p: Presentation, N: int) -> MatrixSeries | None:
    """The closed form cf = (I - Ct + Dt^2)^{-1} of p through degree N,
    with D the relation dims over p's field, when it is termwise
    nonnegative; None otherwise. Where it is returned it is a floor:
    h >= cf termwise, over any field.

    For a quadratic algebra the complex A(x)R -> A(x)V -> A -> k -> 0 is
    exact except at A(x)R (Polishchuk-Positselski, Quadratic Algebras,
    ch. 2). Counting dims block by block, with K the kernel at A(x)R,
    gives h (I - Ct + Dt^2) = I + h_K with h_K >= 0, so h = cf + h_K cf,
    and h_K cf >= 0 when cf >= 0. Hence degree d has at least C . cf_{d-1}
    candidates, and the first d <= N where that passes CANDIDATE_BOUND
    raises CandidateBoundError here, before any engine starts. The count
    named is exact where h = cf, a lower bound elsewhere; an engine would
    refuse by degree d.
    """
    C = generator_matrix(p)
    cf = closed_form(C, relation_dim_matrix(p), N)
    if not is_termwise_nonnegative(cf)[0]:
        return None
    col_sums = [sum(col) for col in zip(*C)]
    for d in range(2, N + 1):
        check_candidates(d, sum(c * sum(row)
                                for c, row in zip(col_sums, cf[d - 1])))
    return cf


# The prime of the modular routes of hilbert_series and
# koszul.koszulity_verdict over Q: the largest prime below 2**31. Every
# denominator below it is a unit mod it, and a product of two residues
# stays a small int.
WORD_PRIME = 2**31 - 1


def word_prime_image(p: Presentation) -> Presentation | None:
    """p with its relations reduced mod WORD_PRIME, when that reduction is
    good; None when p is over GF(p), when a denominator vanishes mod
    WORD_PRIME, or when the relation dims differ mod WORD_PRIME. This is
    the one good-reduction rule of both modular routes, hilbert_series and
    koszul.koszulity_verdict. The image's placement rows are those of p
    reduced mod WORD_PRIME, which is what inequality (2) of hilbert_series
    compares, and its closed form is p's, since C and D agree. A falling
    relation rank is refused at no loss: h_2 = C^2 - D over each field,
    so the image's series would exceed p's closed form from degree 2 on."""
    if p.field.p is not None:
        return None
    try:
        image = Presentation(p.vertices, p.generators,
                             [rel.terms for rel in p.relations],
                             FieldSpec(WORD_PRIME))
    except FieldError:
        return None
    if relation_dim_matrix(image) != relation_dim_matrix(p):
        return None
    return image


def hilbert_series(p: Presentation, N: int) -> MatrixSeries:
    """Dims of p to degree N. The closed form comes first
    (closed_form_floor), which refuses a degree from it when cf >= 0, and
    two inequalities are used.

    (1) h >= cf termwise wherever cf >= 0, over any field
    (closed_form_floor).

    (2) h_Q <= h_p termwise, for a prime p that divides no denominator of
    the relations. The placement rows of degree d have entries in Z_(p),
    and reduced mod p they span the degree-d ideal of the relations
    reduced mod p. Rank can only fall under reduction (a minor nonzero
    mod p is nonzero over Q), and the rows are block-diagonal in
    (end, start), so each block of the ideal is at least as large over Q.

    Over Q with cf >= 0 the engine runs mod WORD_PRIME first when
    word_prime_image gives a good reduction. If that series equals cf,
    then cf <= h_Q <= h_p = cf by (1) and (2), so cf is returned and the
    engine never runs over Q. Otherwise, and when the modular engine meets
    CANDIDATE_BOUND (h_p may exceed h_Q), the engine runs over Q. Where
    the reduction is refused for a relation rank that falls mod
    WORD_PRIME, no modular series could have matched cf: h_2 = C^2 - D
    over each field, so a smaller D mod WORD_PRIME makes h_p exceed cf
    from degree 2 on, and for N <= 1 both routes return [I, C].
    """
    cf = closed_form_floor(p, N)
    modular = None if cf is None else word_prime_image(p)
    if modular is not None:
        try:
            if GradedEngine(modular).series(N) == cf:
                return cf
        except CandidateBoundError:
            pass
    return GradedEngine(p).series(N)


def free_product(p1: Presentation, p2: Presentation) -> Presentation:
    """Coproduct over the vertex ring: generators concatenated (second
    factor's names disjointified with primes), relations concatenated."""
    if p1.vertices != p2.vertices:
        raise AlgebraError("vertex sets differ")
    if p1.field != p2.field:
        raise AlgebraError("fields differ")
    names = {g.name for g in p1.generators}
    gens = list(p1.generators)
    for g in p2.generators:
        nm = g.name
        while nm in names:
            nm += "'"
        names.add(nm)
        gens.append(Generator(nm, g.tail, g.head))
    off = len(p1.generators)
    rels = [list(r.terms) for r in p1.relations]
    rels += [[(c, b + off, a + off) for c, b, a in r.terms]
             for r in p2.relations]
    return Presentation(p1.vertices, gens, rels, p1.field)


def associated_graded(p: Presentation, weights) -> Presentation:
    """Degeneration by generator weights: each relation keeps only its terms
    of maximal total weight (weight of (c, b, a) = w[b] + w[a]).

    weights maps generator names to nonnegative integers; a sequence indexed
    by generator position is accepted too."""
    try:
        if isinstance(weights, dict) and any(
                isinstance(k, str) for k in weights):
            w = [weights[g.name] for g in p.generators]
        else:
            w = [weights[k] for k in range(len(p.generators))]
    except (KeyError, IndexError):
        raise AlgebraError("weights must cover every generator") from None
    if any(not isinstance(x, int) or x < 0 for x in w):
        raise AlgebraError("weights must be nonnegative integers")
    rels = []
    for r in p.relations:
        top = max(w[b] + w[a] for c, b, a in r.terms)
        rels.append([(c, b, a) for c, b, a in r.terms if w[b] + w[a] == top])
    return Presentation(p.vertices, p.generators, rels, p.field)
