"""Koszulity evidence for quadratic presentations.

Three instruments: the quadratic lower-bound report (closed-form positivity
and the termwise inequality for the computed series), the kernel of the
degree-2-relations complex, and graded Tor tables read off a minimal free
resolution built degree by degree. Everything is exact; every cross-check
between independent computation routes is a hard assertion.

There is one resolution. For a quadratic algebra the complex
A(x)R -> A(x)V -> A -> k is always exact at A(x)V and at A (Polishchuk-
Positselski, ch. 1-2), so its first three stages are a minimal resolution
as far as they go: Tor_0 = I, Tor_1 = C and Tor_2 = D, each in degree i
only, with the presentation's relation_rows as the stage-2 generators.
The search for minimal syzygies starts at stage 3, whose kernel is exactly
the kernel of A(x)R -> A(x)V; its graded dims are checked block by block
against h_A(1-Ct+Dt^2)-1. When that kernel vanishes through d_max (the series
equals 1/(1-Ct+Dt^2) there) the Tor table is the Koszul complex's, and the
verdict's method reads "koszul-complex"; when stage 3 or later finds a
generator or the Tor column cap leaves a cell partial, it reads "syzygy".

Over Q the verdict runs first mod WORD_PRIME, with every check above, when
algebra.word_prime_image gives a good reduction, and stands when it is
Koszul by the Koszul complex; the proof that the rational verdict is then
the same is in koszulity_verdict. Any other modular outcome falls back to
the verdict over Q.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    CandidateBoundError,
    GradedEngine,
    Presentation,
    closed_form_floor,
    generator_matrix,
    relation_dim_matrix,
    word_prime_image,
)
from .field import SparseRref, distinct_leads, kernel_vectors
from .series import (
    EQUAL,
    FIRST_GEQ,
    MatrixSeries,
    closed_form,
    identity_series,
    is_termwise_nonnegative,
    mul,
    sub,
    termwise_compare,
)

# Most columns a Tor degree from stage 3 on may have; a larger one is not
# echeloned, and it and every cell downstream are reported partial.
TOR_COLUMN_CAP = 200000


@dataclass(frozen=True)
class GSReport:
    """Closed-form comparison: positivity of 1/(1-Ct+Dt^2), and if positive,
    the termwise inequality and equality of the computed series against it."""

    N: int
    positivity: bool
    positivity_witness: tuple | None
    inequality: bool | None  # None when positivity fails: not asserted
    equality: bool
    first_diff: tuple | None  # (degree, row, col) of first differing entry
    series: MatrixSeries
    closed: MatrixSeries


def golod_shafarevich_check(p: Presentation, N: int,
                            engine: GradedEngine | None = None) -> GSReport:
    C = generator_matrix(p)
    D = relation_dim_matrix(p)
    cf = closed_form(C, D, N)
    h = (engine or GradedEngine(p)).series(N)
    pos, posw = is_termwise_nonnegative(cf)
    cmp = termwise_compare(h, cf)
    ineq = None
    if pos:
        ineq = cmp.relation in (EQUAL, FIRST_GEQ)
    return GSReport(N, pos, posw, ineq, cmp.relation == EQUAL, cmp.witness,
                    h, cf)


def koszul_complex_kernel(p: Presentation, N: int,
                          engine: GradedEngine | None = None) -> MatrixSeries:
    """Graded dims of the kernel of A(x)E -> A(x)V, x(x)e -> sum c (x b)(x)a.

    Computed two ways and asserted equal: as the series h_A(1-Ct+Dt^2)-1,
    and by explicit column ranks of the map in each degree <= N. The result
    is a dimension series, so it must be termwise nonnegative; that too is a
    hard assertion.
    """
    engine = engine or GradedEngine(p)
    n = len(p.vertices)
    hK = _kernel_series(p, N, engine)
    rels = _relation_gens(p)
    mats = [[[0] * n for _ in range(n)] for _ in range(min(N + 1, 2))]
    cols: dict = {}
    for d in range(2, N + 1):
        cols, _, K = _kernel_degree(engine, rels, d, cols, expect=hK)
        mats.append(K)
    return MatrixSeries(n, mats)


class _Gen:
    """One free-module generator of a resolution stage: its vertex (end),
    root (which vertex summand of the augmentation it resolves), internal
    degree, and image vector in the previous stage's coordinates."""

    __slots__ = ("vertex", "root", "degree", "vector")

    def __init__(self, vertex, root, degree, vector):
        self.vertex = vertex
        self.root = root
        self.degree = degree
        self.vector = vector


def _relation_gens(p: Presentation) -> list[_Gen]:
    """The stage-2 generators: one per row of p.relation_rows, at the row's
    end vertex and root start, whose vector over stage-1 keys (a, (b,)) is
    the row itself."""
    gens = p.generators
    out = []
    for row in p.relation_rows:
        b0, a0 = next(iter(row))
        out.append(_Gen(gens[b0].head, gens[a0].tail, 2,
                        {(a, (b,)): c for (b, a), c in row.items()}))
    return out


def _kernel_series(p: Presentation, N: int,
                   engine: GradedEngine) -> MatrixSeries:
    """h_A(1-Ct+Dt^2)-1 through degree N: the graded dims that the kernel of
    A(x)R -> A(x)V must have. Raises unless termwise nonnegative."""
    n = len(p.vertices)
    C = generator_matrix(p)
    poly = MatrixSeries(n, [
        [[1 if i == j else 0 for j in range(n)] for i in range(n)],
        [[-C[i][j] for j in range(n)] for i in range(n)],
        relation_dim_matrix(p),
    ][:N + 1] + [[[0] * n for _ in range(n)] for _ in range(max(0, N - 2))])
    hK = sub(mul(engine.series(N), poly), identity_series(n, N))
    ok, w = is_termwise_nonnegative(hK)
    if not ok:
        raise AssertionError("negative kernel dimension at %r" % (w,))
    return hK


@dataclass(frozen=True)
class TorTable:
    n: int
    i_max: int
    d_max: int
    entries: dict  # (i, d) -> n x n matrix, absent when not computed
    partial: tuple  # (i, d) cells skipped by the column cap

    def matrix(self, i: int, d: int):
        return self.entries.get((i, d))

    def concentration_witnesses(self) -> tuple:
        """Nonzero cells off the diagonal d = i, as (i, d, row, col)."""
        out = []
        for (i, d), M in sorted(self.entries.items()):
            if d == i:
                continue
            for r in range(self.n):
                for c in range(self.n):
                    if M[r][c]:
                        out.append((i, d, r, c))
        return tuple(out)

    def concentrated(self) -> bool:
        return not self.concentration_witnesses()


def _extend_columns(engine, gens_list, d, prev):
    """Columns x . f_k at internal degree d for every generator in
    gens_list, keyed (k, x); built from the degree d-1 columns in prev.
    The trivial x is keyed by the vertex index and carries the generator's
    own vector. Keys come out in ascending (k, x) order."""
    acc = engine.field.acc
    cols = {}
    for k, g in enumerate(gens_list):
        e = d - g.degree
        if e < 0:
            continue
        if e == 0:
            cols[(k, g.vertex)] = g.vector
            continue
        for x in engine.basis_by_start(e, g.vertex):
            parent = prev[(k, x[1:] if e > 1 else g.vertex)]
            y = x[0]
            col: dict = {}
            for (m, w), c in parent.items():
                for w2, c2 in engine.left_mul_path(y, w).items():
                    acc(col, (m, w2), c * c2)
            cols[(k, x)] = col
    return cols


def _kernel_degree(engine, gens_list, d, prev, cap=None, expect=None):
    """One internal degree of the map off gens_list: its columns (see
    _extend_columns), their rank, and the kernel dims block by block.
    Returns (cols, rank, K), or three Nones when there would be more than
    cap columns; that count is read off the dims (one column per basis
    path of degree d - deg_k from each generator's vertex), so no column
    is built then. When no column is zero and no two share a minimal key
    (field.distinct_leads) the columns are independent: the rank is their
    count and K is zero, with no echelon. Otherwise they go through a
    SparseRref, and a column counts in K when it reduces to zero. With
    expect, raises unless K equals expect[d]."""
    if cap is not None:
        count = sum(sum(row[g.vertex] for row in engine.dims(d - g.degree))
                    for g in gens_list if g.degree <= d)
        if count > cap:
            return None, None, None
    cols = _extend_columns(engine, gens_list, d, prev)
    n = len(engine.pres.vertices)
    K = [[0] * n for _ in range(n)]
    rank = len(cols)
    if distinct_leads(cols.values()) is None:
        ech = SparseRref(engine.field)
        for (k, x), col in cols.items():
            if ech.add_row(col)[0] is None:
                K[engine.path_end(x)][gens_list[k].root] += 1
        rank = ech.rank
    if expect is not None and K != expect[d]:
        raise AssertionError(
            "kernel dims disagree at degree %d: ranks %r, series %r"
            % (d, K, expect[d]))
    return cols, rank, K


def _syzygy_stage(engine, gens_prev, d_min, d_max, cap, expect=None):
    """Minimal generators of the kernel of the map off gens_prev, found per
    internal degree <= d_max. Returns (new_gens, tor: d -> matrix,
    partial_from: degree where the cap stopped work, or None). With expect,
    the kernel dims are checked against expect in every degree reached."""
    n = len(engine.pres.vertices)
    root_of = [g.root for g in gens_prev]
    new_gens: list[_Gen] = []
    tor: dict[int, list[list[int]]] = {}
    prev_diff: dict = {}
    prev_old: dict = {}
    for d in range(d_min, d_max + 1):
        cols, rank, K = _kernel_degree(engine, gens_prev, d, prev_diff, cap,
                                       expect)
        prev_diff = cols
        if rank is None:
            return new_gens, tor, d
        prev_old, old_rank, _ = _kernel_degree(engine, new_gens, d, prev_old,
                                               cap)
        if old_rank is None:
            return new_gens, tor, d
        new_count = len(cols) - rank - old_rank
        if new_count < 0:
            raise AssertionError("syzygy span exceeds kernel at degree %d" % d)
        M = [[0] * n for _ in range(n)]
        if new_count:
            # the sift is the only reader of stored rows
            old_ech = SparseRref(engine.field)
            for col in prev_old.values():
                old_ech.add_row(col)
            found = 0
            for vec in kernel_vectors(cols, engine.field):
                piv, vector = old_ech.add_row(vec)
                if piv is None:
                    continue
                k0, x0 = next(iter(vector))
                g = _Gen(engine.path_end(x0), root_of[k0], d, vector)
                new_gens.append(g)
                # base column so the old span tracks this generator onward
                prev_old[(len(new_gens) - 1, g.vertex)] = g.vector
                M[g.vertex][g.root] += 1
                found += 1
            if found != new_count:
                raise AssertionError(
                    "sift found %d generators, rank count says %d at degree %d"
                    % (found, new_count, d))
        tor[d] = M
    return new_gens, tor, None


def tor_dimensions(p: Presentation, i_max: int = 3, d_max: int = 8,
                   engine: GradedEngine | None = None) -> TorTable:
    """Graded Tor dims from a minimal free resolution of the vertex ring by
    free left modules, built stage by stage.

    Stages 0-2 are the start A(x)R -> A(x)V -> A of the Koszul complex,
    which is exact at A(x)V and at A for every quadratic algebra: Tor_0 = I,
    Tor_1 = C and Tor_2 = D, each in degree i only. From stage 3 on, minimal
    kernel generators are kernel vectors of the columns (kernel_vectors),
    sifted against the span of the generators already chosen. The stage-3
    kernel is the kernel of A(x)R -> A(x)V, so its dims are checked block
    by block against h_A(1-Ct+Dt^2)-1, and a disagreement raises. Cells
    whose column count exceeds TOR_COLUMN_CAP are reported as partial,
    together with everything downstream of them; only stages 3 and up can
    be partial.
    """
    engine = engine or GradedEngine(p)
    n = len(p.vertices)
    zeros = lambda: [[0] * n for _ in range(n)]
    gens = _relation_gens(p)
    read_off = [[[int(i == j) for j in range(n)] for i in range(n)],
                generator_matrix(p), relation_dim_matrix(p)]
    entries: dict = {(i, d): read_off[i] if d == i else zeros()
                     for i in range(min(i_max, 2) + 1)
                     for d in range(d_max + 1)}
    partial: list = []
    for i in range(3, i_max + 1):
        if partial:
            partial.extend((i, d) for d in range(d_max + 1))
            continue
        if not gens:
            for d in range(d_max + 1):
                entries[(i, d)] = zeros()
            continue
        expect = _kernel_series(p, d_max, engine) if i == 3 else None
        d_min = min(g.degree for g in gens)
        gens, tor, part_from = _syzygy_stage(engine, gens, d_min, d_max,
                                             TOR_COLUMN_CAP, expect)
        for d in range(d_max + 1):
            if part_from is not None and d >= part_from:
                partial.append((i, d))
            else:
                entries[(i, d)] = tor.get(d, zeros())
    return TorTable(n, i_max, d_max, entries, tuple(partial))


@dataclass(frozen=True)
class KoszulVerdict:
    method: str  # "koszul-complex" or "syzygy"; see koszulity_verdict
    koszul: bool
    complete: bool
    koszul_up_to: tuple  # (i_max, d_max)
    series_degree: int
    witnesses: tuple
    gs: GSReport
    tor: TorTable


def koszulity_verdict(p: Presentation, N: int = 10, i_max: int = 3,
                      d_max: int = 8) -> KoszulVerdict:
    """Bounded Koszulity check: series equality with the closed form to
    degree N, plus Tor concentration on d = i for i <= i_max, d <= d_max.

    The Tor table comes from tor_dimensions. method is "koszul-complex" when
    no stage from 3 on found a generator and no cell is partial, so the
    table is the Koszul complex's; otherwise it is "syzygy". A partial cell
    (the Tor column cap) leaves the verdict incomplete. Before any degree
    is built here, closed_form_floor refuses from the closed form through
    M, the highest degree the engine reaches: max(N, d_max) when stage 3
    runs, else N.

    The route follows from p alone. Over Q with cf >= 0 through M, when
    word_prime_image gives a good reduction (no denominator divisible by
    P = WORD_PRIME and the same relation dims over both fields), the whole
    verdict runs first over GF(P), and it is returned when it is Koszul by
    the Koszul complex (method "koszul-complex"). Otherwise (not Koszul, a
    generator found from stage 3 on, partial, CANDIDATE_BOUND met mod P,
    or no good reduction) the verdict runs over Q.

    Why the answer is the same. Equal relation dims give cf_P = cf; without
    them a Koszul verdict mod P need not be the rational one (x1x0 + x3x2
    and x1x0 + (P+1)x3x2 are Koszul mod P with Tor_2 = [[1]]; over Q
    Tor_2 is [[2]] and h_2 = C^2 - D is one lower). Koszul mod P gives
    h_P = cf through N. Method "koszul-complex" mod P means no generator
    was found from stage 3 on, so when stage 3 runs its kernel, whose
    lowest nonzero degree would hold a generator, is zero through d_max;
    its dims are h_P(I - Ct + Dt^2) - I, so h_P = cf through M. From the
    floor h_Q >= cf, and from inequality (2) of hilbert_series
    h_Q <= h_P, so h_Q = cf through M. Then the rational
    GS report equals the modular one, the rational stage-3 kernel is zero
    through d_max, and nothing is found from stage 4 on; the column cap
    reads only dims, which agree. Tor_0..Tor_2 are I, C and D over both
    fields. So the rational verdict equals the modular one field by
    field, method included. Koszul alone is not enough when N < 3: a
    Tor_3 class in degree 3 is concentrated, yet there h_P > cf may hide
    a rational series that leaves cf above degree 3. An AssertionError
    mod P is never a reason to fall back: it propagates.
    """
    M = max(N, d_max) if i_max >= 3 and p.relations else N
    modular = None if closed_form_floor(p, M) is None else word_prime_image(p)
    if modular is not None:
        try:
            v = _verdict(modular, N, i_max, d_max, GradedEngine(modular))
            if v.koszul and v.method == "koszul-complex":
                return v
        except CandidateBoundError:
            pass
    return _verdict(p, N, i_max, d_max, GradedEngine(p))


def _verdict(p, N, i_max, d_max, engine) -> KoszulVerdict:
    """The verdict of koszulity_verdict from one engine over p's field."""
    gs = golod_shafarevich_check(p, N, engine)
    tor = tor_dimensions(p, i_max, d_max, engine)
    found = any(any(map(any, M)) for (i, _), M in tor.entries.items()
                if i >= 3)
    method = "syzygy" if found or tor.partial else "koszul-complex"
    witnesses: list = []
    if not gs.equality:
        witnesses.append(("series", gs.first_diff))
    witnesses.extend(("tor",) + w for w in tor.concentration_witnesses())
    complete = not tor.partial
    verdict = gs.equality and tor.concentrated() and complete
    return KoszulVerdict(method, verdict, complete, (i_max, d_max), N,
                         tuple(witnesses), gs, tor)
