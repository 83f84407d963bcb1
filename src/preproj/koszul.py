"""Koszulity evidence for quadratic presentations.

Three instruments: the quadratic lower-bound report (closed-form positivity
and the termwise inequality for the computed series), the kernel of the
degree-2-relations complex, and graded Tor tables read off a minimal free
resolution built degree by degree. Everything is exact; every cross-check
between independent computation routes is a hard assertion.

The verdict takes one of two routes. For a quadratic algebra the complex
0 -> A(x)R -> A(x)V -> A -> k is always exact at A(x)V and at A, so when the
series equals 1/(1-Ct+Dt^2) through degree d the kernel at A(x)R vanishes
through d, the complex is a linear minimal resolution there, and it forces
Tor_0 = I, Tor_1 = C, Tor_2 = D and 0 elsewhere (Priddy; Polishchuk-
Positselski, ch. 1-2). Route "koszul-complex" checks that kernel by explicit
column ranks and reads the Tor table off (C, D). Otherwise route "syzygy"
builds the minimal resolution stage by stage; only this route has a Tor
column cap.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    GradedEngine,
    Presentation,
    generator_matrix,
    relation_dim_matrix,
    relation_space_rows,
)
from .field import SparseRref
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


def _block_counts(n: int, keys, block_of) -> list[list[int]]:
    M = [[0] * n for _ in range(n)]
    for k in keys:
        i, j = block_of(k)
        M[i][j] += 1
    return M


def koszul_complex_kernel(p: Presentation, N: int,
                          engine: GradedEngine | None = None) -> MatrixSeries:
    """Graded dims of the kernel of A(x)E -> A(x)V, x(x)e -> sum c (x b)(x)a.

    Computed two ways and asserted equal: as the series h_A(1-Ct+Dt^2)-1,
    and by explicit column ranks of the map in each degree <= N. The result
    is a dimension series, so it must be termwise nonnegative; that too is a
    hard assertion.
    """
    engine = engine or GradedEngine(p)
    field = p.field
    n = len(p.vertices)
    gens = p.generators
    hA = engine.series(N)
    C = generator_matrix(p)
    D = relation_dim_matrix(p)
    poly = MatrixSeries(n, [
        [[1 if i == j else 0 for j in range(n)] for i in range(n)],
        [[-C[i][j] for j in range(n)] for i in range(n)],
        D,
    ][:N + 1] + [[[0] * n for _ in range(n)] for _ in range(max(0, N - 2))])
    hK = sub(mul(hA, poly), identity_series(n, N))

    # one degree-2 generator per relation-space row, vertex end and root
    # start, whose column over keys (a, w) is extended one degree at a time
    # by left multiplication
    rels = []
    for row in relation_space_rows(p):
        b0, a0 = next(iter(row))
        rels.append(_Gen(gens[b0].head, gens[a0].tail, 2,
                         {(a, (b,)): c for (b, a), c in row.items()}))

    def block_of_key(key):
        a, w = key
        return engine.path_end(w), gens[a].tail

    mats = []
    cols: dict = {}
    for d in range(N + 1):
        if d < 2:
            mats.append([[0] * n for _ in range(n)])
            continue
        cols = _extend_columns(engine, rels, d, cols)
        K = [[0] * n for _ in range(n)]
        ech = SparseRref(field, reduced=False)
        for (k, x), col in cols.items():
            K[engine.path_end(x)][rels[k].root] += 1
            if col:
                ech.add_row(col)
        piv = _block_counts(n, ech.rows.keys(), block_of_key)
        for i in range(n):
            for j in range(n):
                K[i][j] -= piv[i][j]
        if K != hK[d]:
            raise AssertionError(
                "kernel dims disagree at degree %d: ranks %r, series %r"
                % (d, K, hK[d]))
        mats.append(K)
    ok, w = is_termwise_nonnegative(hK)
    if not ok:
        raise AssertionError("negative kernel dimension at %r" % (w,))
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


def _tag_key(tag):
    k, x = tag
    return (k, x if isinstance(x, tuple) else ())


def _extend_columns(engine, gens_list, d, prev):
    """Columns x . f_k at internal degree d for every generator in
    gens_list, keyed (k, x); built from the degree d-1 columns in prev.
    The trivial x is keyed by the vertex index and carries the generator's
    own vector."""
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


def _syzygy_stage(engine, gens_prev, d_min, d_max, cap):
    """Minimal generators of the kernel of the map off gens_prev, found per
    internal degree <= d_max. Returns (new_gens, tor: d -> matrix,
    partial_from: degree where the cap stopped work, or None)."""
    field = engine.field
    n = len(engine.pres.vertices)
    root_of = [g.root for g in gens_prev]
    new_gens: list[_Gen] = []
    tor: dict[int, list[list[int]]] = {}
    prev_diff: dict = {}
    prev_old: dict = {}
    for d in range(d_min, d_max + 1):
        cols = _extend_columns(engine, gens_prev, d, prev_diff)
        prev_diff = cols
        oldcols = _extend_columns(engine, new_gens, d, prev_old)
        prev_old = oldcols
        if len(cols) > cap or len(oldcols) > cap:
            return new_gens, tor, d
        order = sorted(cols, key=_tag_key)
        ech = SparseRref(field, reduced=False)
        for tag in order:
            if cols[tag]:
                ech.add_row(cols[tag])
        kdim = len(cols) - ech.rank
        old_ech = SparseRref(field, reduced=False)
        for tag in sorted(oldcols, key=_tag_key):
            if oldcols[tag]:
                old_ech.add_row(oldcols[tag])
        new_count = kdim - old_ech.rank
        if new_count < 0:
            raise AssertionError("syzygy span exceeds kernel at degree %d" % d)
        M = [[0] * n for _ in range(n)]
        if new_count:
            tracked = SparseRref(field, reduced=False, track=True)
            kers = []
            for tag in order:
                piv, hist = tracked.add_row(cols[tag], tag=tag)
                if piv is None:
                    kers.append(hist)
            found = 0
            for hist in kers:
                piv, _ = old_ech.add_row(hist)
                if piv is None:
                    continue
                vector = dict(old_ech.rows[piv])
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
                   engine: GradedEngine | None = None,
                   column_cap: int = 200000) -> TorTable:
    """Graded Tor dims from a minimal free resolution of the vertex ring by
    free left modules, built stage by stage.

    Stage 0 and stage 1 are exact by construction (the augmentation's kernel
    is generated by the degree-1 generators); higher stages find minimal
    kernel generators by tracked echelon and sifting against the span of the
    generators already chosen. Cells whose column count exceeds column_cap
    are reported as partial, together with everything downstream of them.
    """
    engine = engine or GradedEngine(p)
    n = len(p.vertices)
    entries: dict = {}
    partial: list = []
    zeros = lambda: [[0] * n for _ in range(n)]
    for d in range(d_max + 1):
        M = zeros()
        if d == 0:
            for j in range(n):
                M[j][j] = 1
        entries[(0, d)] = M
    if i_max >= 1:
        for d in range(d_max + 1):
            entries[(1, d)] = generator_matrix(p) if d == 1 else zeros()
    gens = [_Gen(g.head, g.tail, 1, {(g.tail, (k,)): p.field.one})
            for k, g in enumerate(p.generators)]
    stopped = False
    for i in range(2, i_max + 1):
        if stopped or not gens:
            if stopped:
                partial.extend((i, d) for d in range(d_max + 1))
            else:
                for d in range(d_max + 1):
                    entries[(i, d)] = zeros()
            gens = []
            continue
        d_min = min(g.degree for g in gens)
        new_gens, tor, part_from = _syzygy_stage(engine, gens, d_min, d_max,
                                                 column_cap)
        for d in range(d_max + 1):
            if part_from is not None and d >= part_from:
                partial.append((i, d))
            else:
                entries[(i, d)] = tor.get(d, zeros())
        if part_from is not None:
            stopped = True
        gens = new_gens
    return TorTable(n, i_max, d_max, entries, tuple(partial))


@dataclass(frozen=True)
class KoszulVerdict:
    method: str  # route of the Tor table: "koszul-complex" or "syzygy"
    koszul: bool
    complete: bool
    koszul_up_to: tuple  # (i_max, d_max)
    series_degree: int
    witnesses: tuple
    gs: GSReport
    tor: TorTable


def _koszul_complex_tor(p: Presentation, i_max: int, d_max: int,
                       engine: GradedEngine | None = None) -> TorTable:
    """Tor table read off the Koszul complex, for a presentation whose series
    equals the closed form through degree d_max.

    Runs koszul_complex_kernel through d_max, which checks by explicit column
    ranks that the kernel of A(x)R -> A(x)V matches the series, and raises
    unless that kernel is zero in every degree. The complex is then a linear
    minimal resolution through d_max: Tor_0 = I at d = 0, Tor_1 = C at d = 1,
    Tor_2 = D at d = 2 and every other cell (i <= i_max, d <= d_max) is 0.
    """
    n = len(p.vertices)
    kernel = koszul_complex_kernel(p, d_max, engine)
    zero = [[0] * n for _ in range(n)]
    for d in range(d_max + 1):
        if kernel[d] != zero:
            raise AssertionError(
                "Koszul-complex kernel is nonzero at degree %d: %r"
                % (d, kernel[d]))
    diagonal = {0: [[int(i == j) for j in range(n)] for i in range(n)],
                1: generator_matrix(p), 2: relation_dim_matrix(p)}
    entries = {(i, d): (diagonal[i] if d == i and i in diagonal
                        else [[0] * n for _ in range(n)])
               for i in range(i_max + 1) for d in range(d_max + 1)}
    return TorTable(n, i_max, d_max, entries, ())


def koszulity_verdict(p: Presentation, N: int = 10, i_max: int = 3,
                      d_max: int = 8,
                      engine: GradedEngine | None = None) -> KoszulVerdict:
    """Bounded Koszulity check: series equality with the closed form to
    degree N, plus Tor concentration on d = i for i <= i_max, d <= d_max.

    The series is computed through top = max(N, d_max) on one engine. If it
    equals the closed form through top, the Tor table comes from
    _koszul_complex_tor (method "koszul-complex"); otherwise from
    tor_dimensions (method "syzygy"), whose column cap can leave cells
    partial and the verdict incomplete. Both routes give the same cells.
    """
    engine = engine or GradedEngine(p)
    top = max(N, d_max)
    # build through top before the report at N: degrees below top keep their
    # rewrite tables, so the report reuses every degree instead of building
    # degree N twice
    h = engine.series(top) if top > N else None
    gs = golod_shafarevich_check(p, N, engine)
    matches = gs.equality and (h is None or h == closed_form(
        generator_matrix(p), relation_dim_matrix(p), top))
    if matches:
        method = "koszul-complex"
        tor = _koszul_complex_tor(p, i_max, d_max, engine)
    else:
        method = "syzygy"
        tor = tor_dimensions(p, i_max, d_max, engine)
    witnesses: list = []
    if not gs.equality:
        witnesses.append(("series", gs.first_diff))
    witnesses.extend(("tor",) + w for w in tor.concentration_witnesses())
    complete = not tor.partial
    verdict = gs.equality and tor.concentrated() and complete
    return KoszulVerdict(method, verdict, complete, (i_max, d_max), N,
                         tuple(witnesses), gs, tor)
