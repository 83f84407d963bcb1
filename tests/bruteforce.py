"""Naive reference computations used to cross-check the fast paths.

Everything here enumerates paths explicitly and row-reduces dense matrices.
No code is shared with the incremental engine: dimensions come straight
from the definition (#paths minus the rank of the two-sided relation span
in the full path basis), and Smith chains from reference_smith, which
shares no code with field.smith_normal_form. The one exception is
tor_by_search, which runs the package's own syzygy search from stage 1 on,
so that the Koszul-complex start of tor_dimensions is checked against a
resolution that finds its stage 2 by search.
"""

from fractions import Fraction


def dense_rref(rows, p=None):
    """Nonzero rows of the reduced row echelon form, by plain Gauss-Jordan
    elimination. rows: lists over Fraction when p is None, otherwise
    integers reduced mod p."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return []
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
        piv = None
        for k in range(r, len(rows)):
            if rows[k][c]:
                piv = k
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = (Fraction(1) / rows[r][c]) if p is None else pow(rows[r][c], -1, p)
        if p is None:
            rows[r] = [x * inv for x in rows[r]]
        else:
            rows[r] = [x * inv % p for x in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c]:
                f = rows[k][c]
                if p is None:
                    rows[k] = [x - f * y for x, y in zip(rows[k], rows[r])]
                else:
                    rows[k] = [(x - f * y) % p for x, y in zip(rows[k], rows[r])]
        r += 1
        if r == len(rows):
            break
    return rows[:r]


def dense_rank(rows, p=None):
    """Rank by plain Gaussian elimination; rows as for dense_rref."""
    return len(dense_rref(rows, p))


def integer_rank(rows):
    """Rank over Q of an integer matrix (a list of equal-length int lists)
    by fraction-free Bareiss elimination: every division is exact, so no
    Fraction is made."""
    a = [list(r) for r in rows]
    rank, prev = 0, 1
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        p = a[rank]
        for i in range(rank + 1, len(a)):
            f = a[i][c]
            a[i] = [(p[c] * x - f * y) // prev for x, y in zip(a[i], p)]
        prev = p[c]
        rank += 1
    return rank


def path_blocks(gens, n, N):
    """blocks[d][(end, start)] = all composable index tuples of length d,
    leftmost factor applied last."""
    blocks = [{(v, v): [()] for v in range(n)}]
    for _ in range(N):
        prev = blocks[-1]
        cur = {}
        for (e, s), ws in prev.items():
            for k, g in enumerate(gens):
                if g.tail == e:
                    lst = cur.setdefault((g.head, s), [])
                    for w in ws:
                        lst.append((k,) + w)
        blocks.append(cur)
    return blocks


def naive_dims(pres, N):
    """Graded dimensions by definition, degree 0..N, as dense matrices."""
    gens = pres.generators
    n = len(pres.vertices)
    p = pres.field.p
    zero = pres.field.zero
    blocks = path_blocks(gens, n, N)
    out = [[[1 if i == j else 0 for j in range(n)] for i in range(n)]]
    for d in range(1, N + 1):
        M = [[0] * n for _ in range(n)]
        for (i, j), cols in blocks[d].items():
            index = {w: c for c, w in enumerate(sorted(cols))}
            rows = []
            for rel in pres.relations:
                # left factors continue from the relation's end vertex,
                # right factors feed its start vertex
                for left_len in range(d - 1):
                    for pre in blocks[left_len].get((i, rel.end), ()):
                        for suf in blocks[d - 2 - left_len].get((rel.start, j), ()):
                            row = [zero] * len(cols)
                            for c, b, a in rel.terms:
                                k = index[pre + (b, a) + suf]
                                row[k] = row[k] + c if p is None else (row[k] + c) % p
                            rows.append(row)
            M[i][j] = len(cols) - dense_rank(rows, p)
        out.append(M)
    return out


def reference_smith(m):
    """Elementary divisors d_1 | d_2 | ... of an integer ExactMatrix, by an
    independent routine: a column index beside the sparse rows, pivot row
    and column cleared entry by entry, and an explicit divisibility phase
    that adds a row holding a non-multiple of the pivot to the pivot row.

    Returns min(rows, cols) nonnegative integers, nonzero divisors first,
    each dividing the next, zeros trailing.
    """
    for v in m.entries.values():
        if not isinstance(v, int):
            raise ValueError("smith_normal_form needs integer entries, got %r" % (v,))
    rows: dict[int, dict[int, int]] = {}
    col_index: dict[int, set[int]] = {}
    for (r, c), v in m.entries.items():
        if not v:
            continue
        rows.setdefault(r, {})[c] = v
        col_index.setdefault(c, set()).add(r)

    def axpy_row(dst: int, c: int, src: int) -> None:
        drow = rows.setdefault(dst, {})
        for col, v in rows.get(src, {}).items():
            nv = drow.get(col, 0) + c * v
            if nv:
                drow[col] = nv
                col_index.setdefault(col, set()).add(dst)
            elif col in drow:
                del drow[col]
                col_index[col].discard(dst)
        if not drow:
            del rows[dst]

    active_rows = set(range(m.rows))
    active_cols = set(range(m.cols))
    divisors: list[int] = []
    total = min(m.rows, m.cols)

    while len(divisors) < total:
        # smallest |value| pivot among active entries, ties by position,
        # keeps intermediate growth down
        best = None
        for r in active_rows & rows.keys():
            for c, v in rows[r].items():
                if c not in active_cols:
                    continue
                key = (abs(v), r, c)
                if best is None or key < best[0]:
                    best = (key, r, c)
        if best is None:
            divisors.extend([0] * (total - len(divisors)))
            break
        _, pr, pc = best
        while True:
            pv = rows[pr][pc]
            # clear the pivot column by row operations; a nonzero remainder
            # becomes the new, smaller pivot
            again = False
            for r in sorted((col_index.get(pc) or set()) & active_rows):
                if r == pr:
                    continue
                v = rows.get(r, {}).get(pc, 0)
                if not v:
                    continue
                q = v // pv
                if q:
                    axpy_row(r, -q, pr)
                if rows.get(r, {}).get(pc):
                    pr = r
                    again = True
                    break
            if again:
                continue
            # clear the pivot row by column operations (columns live only in
            # the index, so do it entrywise)
            prow = rows[pr]
            moved = False
            for c in sorted(set(prow) & active_cols):
                if c == pc:
                    continue
                q, rem = divmod(prow[c], pv)
                if q:
                    for r in sorted((col_index.get(c) or set()) | {pr}):
                        if r not in active_rows and r != pr:
                            continue
                        rrow = rows.get(r)
                        if rrow is None:
                            continue
                        nv = rrow.get(c, 0) - q * rrow.get(pc, 0)
                        if nv:
                            rrow[c] = nv
                            col_index.setdefault(c, set()).add(r)
                        elif c in rrow:
                            del rrow[c]
                            col_index[c].discard(r)
                if rem:
                    pc = c
                    moved = True
                    break
            if moved:
                continue
            # pivot row and column are clean; enforce divisibility
            bad = None
            for r in active_rows & rows.keys():
                if r == pr:
                    continue
                for c, v in rows[r].items():
                    if c in active_cols and v % pv:
                        bad = r
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            axpy_row(pr, 1, bad)
        divisors.append(abs(rows[pr][pc]))
        active_rows.discard(pr)
        active_cols.discard(pc)

    nonzero = sorted(d for d in divisors if d)
    out = nonzero + [0] * (len(divisors) - len(nonzero))
    for i in range(len(nonzero) - 1):
        if nonzero[i + 1] % nonzero[i]:
            raise AssertionError("divisor chain broken: %r" % (out,))
    return out


def naive_divisors(pres, N):
    """Smith chains of the integer placement matrices by definition: for
    every degree 2..N and block, the rows are all placements
    p o rel o u written in the full path basis, and the chain is the Smith
    normal form of that matrix. Returns {(d, end, start): chain} over the
    blocks with at least one placement; pres is over Q with integer
    relation coefficients."""
    from preproj.field import ExactMatrix

    blocks = path_blocks(pres.generators, len(pres.vertices), N)
    out = {}
    for d in range(2, N + 1):
        for (i, j), cols in sorted(blocks[d].items()):
            index = {w: c for c, w in enumerate(cols)}
            entries = {}
            nrows = 0
            for rel in pres.relations:
                for left_len in range(d - 1):
                    for pre in blocks[left_len].get((i, rel.end), ()):
                        for suf in blocks[d - 2 - left_len].get(
                                (rel.start, j), ()):
                            for c, b, a in rel.terms:
                                entries[(nrows, index[pre + (b, a) + suf])] = (
                                    int(c))
                            nrows += 1
            if nrows:
                out[(d, i, j)] = tuple(reference_smith(
                    ExactMatrix(nrows, len(cols), entries)))
    return out


def mat_mul(A, B):
    n = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def path_mass(C, N=8):
    """Total number of paths of length exactly N: sum of the entries of C^N."""
    n = len(C)
    P = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(N):
        P = mat_mul(C, P)
    return sum(sum(row) for row in P)


def count_avoiding_paths(n, N):
    """Transfer-matrix count of paths in the doubled n-cycle (arrows
    a_k: k -> k+1 mod n and stars a_k*: k+1 -> k) whose written form never
    contains a_k* immediately left of a_k. Entry (i, j) of the degree-d
    coefficient counts such paths from j to i."""
    from preproj.algebra import AlgebraError
    from preproj.series import MatrixSeries

    if n < 1:
        raise AlgebraError("cycle length must be >= 1")
    # generator k < n is a_k (k -> k+1); generator n+k is a_k* (k+1 -> k)
    tail = [k % n for k in range(n)] + [(k + 1) % n for k in range(n)]
    head = [(k + 1) % n for k in range(n)] + [k % n for k in range(n)]
    gens = range(2 * n)

    def allowed(left, right):
        if tail[left] != head[right]:
            return False
        return not (left >= n and right == left - n)

    mats = [[[1 if i == j else 0 for j in range(n)] for i in range(n)]]
    # count[g][j] = paths of the current degree from j whose leftmost factor
    # is g
    count = [[1 if tail[g] == j else 0 for j in range(n)] for g in gens]
    for d in range(1, N + 1):
        if d > 1:
            count = [[sum(count[g2][j] for g2 in gens if allowed(g, g2))
                      for j in range(n)] for g in gens]
        M = [[0] * n for _ in range(n)]
        for g in gens:
            for j in range(n):
                M[head[g]][j] += count[g][j]
        mats.append(M)
    return MatrixSeries(n, mats[:N + 1])


def random_presentation(rng, field=None, max_vertices=3, max_generators=4,
                        max_relations=2, mass_cap=20000,
                        coefficients=(-2, -1, 1, 2)):
    """Seeded quadratic presentation within the sweep bounds, with term
    coefficients drawn from coefficients. Relations are block-homogeneous
    by construction; the path-mass cap keeps degree-8 computations
    desk-scale. Returns None when the draw exceeds the cap."""
    from preproj.algebra import Generator, Presentation, generator_matrix
    from preproj.field import QQ

    nv = rng.randint(1, max_vertices)
    vertices = ["v%d" % k for k in range(nv)]
    ng = rng.randint(1, max_generators)
    gens = [Generator("g%d" % k, rng.randrange(nv), rng.randrange(nv))
            for k in range(ng)]
    by_block = {}
    for b in range(ng):
        for a in range(ng):
            if gens[a].head == gens[b].tail:
                blk = (gens[b].head, gens[a].tail)
                by_block.setdefault(blk, []).append((b, a))
    rels = []
    blocks = sorted(by_block)
    for _ in range(rng.randint(0, max_relations)):
        if not blocks:
            break
        pairs = by_block[blocks[rng.randrange(len(blocks))]]
        chosen = rng.sample(pairs, rng.randint(1, min(len(pairs), 3)))
        terms = [(Fraction(rng.choice(coefficients)), b, a)
                 for b, a in chosen]
        rels.append(terms)
    pres = Presentation(vertices, gens, rels, field or QQ)
    if path_mass(generator_matrix(pres)) > mass_cap:
        return None
    return pres


def random_quiver(rng, max_vertices=3, max_arrows=3, allow_white=True):
    """Seeded small quiver with a random white subset."""
    from preproj.quiver import Arrow, Quiver

    nv = rng.randint(1, max_vertices)
    vs = ["w%d" % k for k in range(nv)]
    na = rng.randint(1, max_arrows)
    arrows = [Arrow("e%d" % k, rng.choice(vs), rng.choice(vs))
              for k in range(na)]
    white = [v for v in vs if allow_white and rng.random() < 0.35]
    return Quiver(vs, arrows, white)


def connected(C):
    """Whether the graph of a square matrix is connected: a search over
    its nonzero entries from index 0."""
    seen, stack = {0}, [0]
    while stack:
        i = stack.pop()
        for j, c in enumerate(C[i]):
            if c and j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == len(C)


def spectral_class(q):
    """(verdict, label) of the ADE trichotomy via exact spectral data of
    C = adjacency_double: Dynkin iff the top eigenvalue is < 2 (2I - C
    positive definite, checked by leading principal minors), ExtendedDynkin
    iff it is exactly 2 (singular 2I - C with a strictly positive kernel
    vector). The letter of a Dynkin label comes from det(2I - C): n + 1 for
    A_n, 4 for D_n (n >= 4), 9 - n for E_n. The letter of an extended label
    comes from the largest entry of the primitive integer kernel vector: 1
    for A~, 2 for D~, 3, 4 or 6 for E~. Subscripts come from the vertex
    count n. Connected quivers only."""
    from math import gcd, lcm

    from preproj.quiver import (DYNKIN, EXTENDED, OTHER, QuiverError,
                                adjacency_double)

    C = adjacency_double(q)
    if not connected(C):
        raise QuiverError("spectral_class needs a connected quiver")
    n = len(C)
    M = [[(2 if i == j else 0) - C[i][j] for j in range(n)] for i in range(n)]
    if all(_det([row[:k] for row in M[:k]]) > 0 for k in range(1, n + 1)):
        det = _det(M)
        if det == n + 1:
            return DYNKIN, "A_%d" % n
        if det == 4 and n >= 4:
            return DYNKIN, "D_%d" % n
        if det == 9 - n and n in (6, 7, 8):
            return DYNKIN, "E_%d" % n
        raise AssertionError("no Dynkin type has det(2I - C) = %s" % det)
    ker = _kernel_vector(M)
    if ker is None or not all(x > 0 for x in ker):
        return OTHER, None
    scale = lcm(*(x.denominator for x in ker))
    ints = [int(x * scale) for x in ker]
    top = max(ints) // gcd(*ints)
    letter = {1: "A~", 2: "D~", 3: "E~", 4: "E~", 6: "E~"}[top]
    return EXTENDED, "%s_%d" % (letter, n - 1)


def _det(rows):
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        inv = 1 / a[c][c]
        for r in range(c + 1, n):
            if a[r][c]:
                f = a[r][c] * inv
                for cc in range(c, n):
                    a[r][cc] -= f * a[c][cc]
    return det


def _kernel_vector(rows):
    """A nonzero kernel vector of a rational matrix, or None if injective:
    dense reduced row echelon form, then the first free column set to 1."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a[0]) if a else 0
    pivots = []
    for c in range(n):
        r = len(pivots)
        piv = next((k for k in range(r, len(a)) if a[k][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for k in range(len(a)):
            if k != r and a[k][c]:
                f = a[k][c]
                a[k] = [x - f * y for x, y in zip(a[k], a[r])]
        pivots.append(c)
    free = [j for j in range(n) if j not in pivots]
    if not free:
        return None
    vec = [Fraction(0)] * n
    vec[free[0]] = Fraction(1)
    for k, c in enumerate(pivots):
        vec[c] = -a[k][free[0]]
    return vec


def tor_by_search(p, i_max, d_max, engine=None, column_cap=200000):
    """Tor table of a minimal resolution seeded only at stage 1 (one
    generator per arrow): every stage from 2 on, stage 2 included, is found
    by the syzygy search. Same cells and partial rule as tor_dimensions."""
    from preproj.algebra import GradedEngine, generator_matrix
    from preproj.koszul import TorTable, _Gen, _syzygy_stage

    engine = engine or GradedEngine(p)
    n = len(p.vertices)
    zeros = lambda: [[0] * n for _ in range(n)]
    entries = {(0, d): [[int(d == 0 and i == j) for j in range(n)]
                        for i in range(n)] for d in range(d_max + 1)}
    if i_max >= 1:
        for d in range(d_max + 1):
            entries[(1, d)] = generator_matrix(p) if d == 1 else zeros()
    gens = [_Gen(g.head, g.tail, 1, {(g.tail, (k,)): p.field.one})
            for k, g in enumerate(p.generators)]
    partial = []
    for i in range(2, i_max + 1):
        if partial:
            partial.extend((i, d) for d in range(d_max + 1))
            continue
        if not gens:
            for d in range(d_max + 1):
                entries[(i, d)] = zeros()
            continue
        d_min = min(g.degree for g in gens)
        gens, tor, part_from = _syzygy_stage(engine, gens, d_min, d_max,
                                             column_cap)
        for d in range(d_max + 1):
            if part_from is not None and d >= part_from:
                partial.append((i, d))
            else:
                entries[(i, d)] = tor.get(d, zeros())
    return TorTable(n, i_max, d_max, entries, tuple(partial))
