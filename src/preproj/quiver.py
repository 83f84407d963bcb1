"""Quivers, their doubles, and the ADE trichotomy.

A quiver is a finite directed multigraph with loops and parallel arrows
allowed, a distinguished set of white vertices, and optional nonzero scalar
weights gamma on arrows of the double that touch a black vertex. Vertex
order is declaration order and fixes all matrix indexing downstream.

One search decides the trichotomy of a connected quiver: it returns an
extended Dynkin subquiver (a witness) or, when there is none, the Dynkin
label. classify reads its verdict off that result, and a witness that uses
every arrow means the quiver is extended Dynkin;
find_extended_dynkin_subquiver returns the witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class QuiverError(ValueError):
    pass


@dataclass(frozen=True)
class Arrow:
    name: str
    tail: str
    head: str


DYNKIN = "Dynkin"
EXTENDED = "ExtendedDynkin"
OTHER = "OtherNonDynkin"


@dataclass(frozen=True)
class Classification:
    connected: bool
    verdict: str | None  # None when disconnected: verdict withheld
    label: str | None


def _gamma_value(val) -> Fraction | None:
    """val as a Fraction if it is an int (not a bool), a Fraction, or text of
    the file grammar: a sign, ASCII digits, then /digits or .digits; else
    None."""
    if isinstance(val, str):
        body = val[1:] if val[:1] in ("+", "-") else val
        parts = body.split("/" if "/" in body else ".")
        if (len(parts) > 2 or not all(t.isascii() and t.isdigit() for t in parts)
                or "/" in body and not int(parts[1])):
            return None
    elif isinstance(val, bool) or not isinstance(val, (int, Fraction)):
        return None
    return Fraction(val)


class Quiver:
    def __init__(self, vertices, arrows, white=(), gamma=None):
        self.vertices = tuple(vertices)
        if not self.vertices:
            raise QuiverError("a quiver needs at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise QuiverError("duplicate vertex name")
        vset = set(self.vertices)
        self.arrows = tuple(arrows)
        seen = set()
        for a in self.arrows:
            if a.name.endswith("*"):
                raise QuiverError("arrow name %r: trailing * is reserved for the double" % a.name)
            if a.name in seen:
                raise QuiverError("duplicate arrow name %r" % a.name)
            seen.add(a.name)
            for v in (a.tail, a.head):
                if v not in vset:
                    raise QuiverError("arrow %r uses unknown vertex %r" % (a.name, v))
        self.white = frozenset(white)
        for v in self.white:
            if v not in vset:
                raise QuiverError("white vertex %r not declared" % (v,))
        self.gamma = dict(gamma) if gamma else {}
        doubled = {a.name: a for a in double(self).arrows}
        black = vset - self.white
        for key, val in self.gamma.items():
            if key not in doubled:
                raise QuiverError("gamma key %r is not an arrow of the double" % (key,))
            if doubled[key].tail not in black and doubled[key].head not in black:
                raise QuiverError("gamma on %r, which touches no black vertex" % (key,))
            q = _gamma_value(val)
            if q is None:
                raise QuiverError("gamma %r = %r is not an int, a Fraction or"
                                  " a number in the file grammar" % (key, val))
            if q == 0:
                raise QuiverError("gamma %r = 0" % (key,))
            self.gamma[key] = q

    @property
    def black(self) -> frozenset:
        return frozenset(self.vertices) - self.white

    def __repr__(self) -> str:
        return "Quiver(%d vertices, %d arrows, white=%s)" % (
            len(self.vertices), len(self.arrows), sorted(self.white))


@dataclass(frozen=True)
class DoubleQuiver:
    base: Quiver
    arrows: tuple  # originals in declaration order, then their stars


def double(q: Quiver) -> DoubleQuiver:
    """The double: every arrow a gains a reversed partner a*."""
    stars = tuple(Arrow(a.name + "*", a.head, a.tail) for a in q.arrows)
    return DoubleQuiver(q, q.arrows + stars)


def parse_quiver(text: str) -> Quiver:
    """Parse the quiver file format.

    Lines: 'vertices: v1 v2 ...', 'arrow name: tail -> head',
    'white: vi vj ...', 'gamma key = value' (value an integer, num/den or
    a decimal in ASCII digits with an optional sign, see _gamma_value; key
    an arrow name optionally with a trailing *). '#' starts a comment.
    """
    vertices: list[str] = []
    arrows: list[Arrow] = []
    white: list[str] = []
    gamma: dict[str, Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue

        def bad(msg):
            return QuiverError("line %d: %s" % (lineno, msg))

        if line.startswith("vertices:"):
            names = line[len("vertices:"):].split()
            for n in names:
                if n in vertices:
                    raise bad("duplicate vertex %r" % n)
                vertices.append(n)
        elif line.startswith("arrow "):
            rest = line[len("arrow "):]
            if ":" not in rest:
                raise bad("expected 'arrow name: tail -> head'")
            name, spec = rest.split(":", 1)
            name = name.strip()
            if "->" not in spec:
                raise bad("expected 'tail -> head'")
            tail, head = (s.strip() for s in spec.split("->", 1))
            if not name or not tail or not head or " " in tail or " " in head:
                raise bad("expected 'arrow name: tail -> head'")
            arrows.append(Arrow(name, tail, head))
        elif line.startswith("white:"):
            white.extend(line[len("white:"):].split())
        elif line.startswith("gamma "):
            rest = line[len("gamma "):]
            if "=" not in rest:
                raise bad("expected 'gamma key = value'")
            key, val = (s.strip() for s in rest.split("=", 1))
            if key in gamma:
                raise bad("duplicate gamma for %r" % key)
            value = _gamma_value(val)
            if value is None:
                raise bad("bad gamma value %r" % val)
            gamma[key] = value
        else:
            raise bad("unrecognized line %r" % line)
    try:
        return Quiver(vertices, arrows, white, gamma)
    except QuiverError as e:
        raise QuiverError(str(e)) from None


def adjacency_double(q: Quiver) -> list[list[int]]:
    """C[i][j] = number of arrows j -> i in the double. Symmetric; a loop
    contributes 2 to its diagonal entry."""
    n = len(q.vertices)
    idx = {v: i for i, v in enumerate(q.vertices)}
    C = [[0] * n for _ in range(n)]
    for a in q.arrows:
        t, h = idx[a.tail], idx[a.head]
        C[h][t] += 1
        C[t][h] += 1
    return C


def relation_count_matrix(q: Quiver) -> list[list[int]]:
    """D_J: diagonal, 1 at black vertices, 0 at white ones."""
    n = len(q.vertices)
    D = [[0] * n for _ in range(n)]
    for i, v in enumerate(q.vertices):
        if v not in q.white:
            D[i][i] = 1
    return D


def _is_connected(q: Quiver) -> bool:
    if len(q.vertices) == 1:
        return True
    adj: dict[str, set[str]] = {v: set() for v in q.vertices}
    for a in q.arrows:
        if a.tail != a.head:
            adj[a.tail].add(a.head)
            adj[a.head].add(a.tail)
    seen = {q.vertices[0]}
    stack = [q.vertices[0]]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(q.vertices)


def _search(q: Quiver) -> tuple[str, list[str] | None]:
    """The ADE search on a connected quiver: (label, arrow names) of an
    extended Dynkin subquiver, or (Dynkin label, None) when it has none.

    Cases in order: a self loop (A~_0); a parallel pair (A~_1); a cycle
    (A~_{k-1} on k vertices); a vertex of degree >= 4 and four of its edges
    (D~_4); two branch vertices, the path between them and the two other
    edges at each end (D~); then the arms of the one branch vertex, longest
    first, cut to lengths (2, 2, 2), (3, 3, 1) or (5, 2, 1) for E~_6, E~_7
    or E~_8. What no case takes is a tree with no branch vertex (A_n) or
    arms (a, 1, 1) (D_n) or (a, 2, 1) with a <= 4 (E_n), n the vertex count.
    """
    order = {v: i for i, v in enumerate(q.vertices)}
    for a in q.arrows:
        if a.tail == a.head:
            return "A~_0", [a.name]
    pairs: dict[tuple[str, str], list[str]] = {}
    for a in q.arrows:
        u, v = sorted((a.tail, a.head), key=order.get)
        pairs.setdefault((u, v), []).append(a.name)
    for key in sorted(pairs, key=lambda uv: (order[uv[0]], order[uv[1]])):
        if len(pairs[key]) >= 2:
            return "A~_1", pairs[key][:2]
    # simple graph now; one arrow per undirected edge
    adj: dict[str, list[str]] = {v: [] for v in q.vertices}
    for (u, v) in pairs:
        adj[u].append(v)
        adj[v].append(u)

    def edge(u, v):
        return pairs[tuple(sorted((u, v), key=order.get))][0]

    cycle = _find_cycle(q.vertices, adj)
    if cycle:
        return "A~_%d" % (len(cycle) - 1), [
            edge(u, v) for u, v in zip(cycle, cycle[1:] + cycle[:1])]
    for v in q.vertices:
        if len(adj[v]) >= 4:
            return "D~_4", [edge(v, w) for w in adj[v][:4]]
    branches = [v for v in q.vertices if len(adj[v]) == 3]
    if len(branches) >= 2:
        path = _tree_path(adj, branches[0], branches[1])
        names = [edge(u, v) for u, v in zip(path, path[1:])]
        for b in branches[:2]:
            names.extend(edge(b, w) for w in adj[b] if w not in path)
        return "D~_%d" % (len(path) + 3), names
    n = len(q.vertices)
    if not branches:
        return "A_%d" % n, None
    b = branches[0]
    arms = []
    for first in adj[b]:
        arm, prev, cur = [edge(b, first)], b, first
        while len(adj[cur]) == 2:
            prev, cur = cur, next(w for w in adj[cur] if w != prev)
            arm.append(edge(prev, cur))
        arms.append(arm)
    arms.sort(key=len, reverse=True)
    for label, cut in (("E~_6", (2, 2, 2)), ("E~_7", (3, 3, 1)),
                       ("E~_8", (5, 2, 1))):
        if all(len(arm) >= k for arm, k in zip(arms, cut)):
            return label, [x for arm, k in zip(arms, cut) for x in arm[:k]]
    return ("D_%d" if len(arms[1]) == 1 else "E_%d") % n, None


def classify(q: Quiver) -> Classification:
    """Dynkin / ExtendedDynkin / OtherNonDynkin for the underlying graph.

    Loops and multi-edges are non-Dynkin by convention: one vertex with one
    loop is the extended type A~_0, a double edge is A~_1.

    The verdict is read off _search: no witness means Dynkin, a witness
    that uses every arrow means extended Dynkin, any other means other.
    Write the graph's form as B(x, x) with B = (2I - C)/2, C the
    adjacency_double. A Dynkin graph has B positive definite; an extended
    Dynkin graph W has B_W positive semidefinite with its radical spanned by
    a vector delta > 0 on every vertex. If W is a subgraph of G then for
    x = delta on W's vertices and 0 elsewhere B_G(x, x) <= B_W(delta, delta)
    = 0, since G's extra edges only subtract; so a graph with a witness is
    not Dynkin, and a graph with none is one of the Dynkin trees _search
    names. Every proper subgraph H of W is Dynkin: for x != 0 on H,
    B_H(x, x) >= B_H(|x|, |x|) >= B_W(|x|, |x|) >= 0, and equality
    throughout puts |x| in the radical, so |x| is a multiple of delta and
    H, missing a vertex or an edge of W, would have B_H(|x|, |x|) > 0.
    Hence the extended Dynkin graphs are exactly the minimal connected
    non-Dynkin graphs, and a witness inside G is all of G exactly when G
    is extended Dynkin. A witness covers every arrow exactly when it is
    all of G, since G is connected.
    """
    if not _is_connected(q):
        return Classification(False, None, None)
    label, names = _search(q)
    if names is None:
        return Classification(True, DYNKIN, label)
    if len(names) == len(q.arrows):
        return Classification(True, EXTENDED, label)
    return Classification(True, OTHER, None)


def _tree_path(adj: dict[str, list[str]], src: str, dst: str) -> list[str]:
    """Unique path between two vertices of a tree, inclusive."""
    parent = {src: None}
    stack = [src]
    while stack:
        v = stack.pop()
        if v == dst:
            break
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                stack.append(w)
    path = [dst]
    while path[-1] != src:
        path.append(parent[path[-1]])
    return path[::-1]


def _sub(q: Quiver, names: list[str]) -> Quiver:
    arrows = [a for a in q.arrows if a.name in set(names)]
    verts = []
    for a in arrows:
        for v in (a.tail, a.head):
            if v not in verts:
                verts.append(v)
    verts.sort(key=q.vertices.index)
    return Quiver(verts, arrows)


def find_extended_dynkin_subquiver(q: Quiver) -> Quiver:
    """A subquiver (vertex and arrow subset) of extended Dynkin type: the
    witness of _search, which classify reads its verdict from.

    Defined for connected non-Dynkin quivers; raises QuiverError otherwise.
    """
    if not _is_connected(q):
        raise QuiverError("quiver is disconnected")
    names = _search(q)[1]
    if names is None:
        raise QuiverError("quiver is Dynkin: no extended Dynkin subquiver")
    return _sub(q, names)


def _find_cycle(vertices, adj) -> list[str] | None:
    """Some simple cycle (length >= 3) of a simple graph, as a vertex list.

    Peel leaves until only the 2-core remains, then walk it without
    backtracking until a vertex repeats."""
    deg = {v: len(adj[v]) for v in vertices}
    alive = {v for v in vertices if deg[v] > 0}
    stack = [v for v in alive if deg[v] == 1]
    while stack:
        v = stack.pop()
        if v not in alive:
            continue
        alive.discard(v)
        for w in adj[v]:
            if w in alive:
                deg[w] -= 1
                if deg[w] == 1:
                    stack.append(w)
    if not alive:
        return None
    order = {v: i for i, v in enumerate(vertices)}
    cur = min(alive, key=order.get)
    prev = None
    walk = [cur]
    pos = {cur: 0}
    while True:
        nxt = next(w for w in adj[cur] if w in alive and w != prev)
        if nxt in pos:
            return walk[pos[nxt]:]
        pos[nxt] = len(walk)
        walk.append(nxt)
        prev, cur = cur, nxt
