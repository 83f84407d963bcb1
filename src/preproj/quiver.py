"""Quivers, their doubles, and the ADE trichotomy.

A quiver is a finite directed multigraph with loops and parallel arrows
allowed, a distinguished set of white vertices, and optional nonzero scalar
weights gamma on arrows of the double that touch a black vertex. Vertex
order is declaration order and fixes all matrix indexing downstream.
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
        doubled = self._double_names()
        black = vset - self.white
        for key, val in self.gamma.items():
            if key not in doubled:
                raise QuiverError("gamma key %r is not an arrow of the double" % (key,))
            t, h = doubled[key]
            if t not in black and h not in black:
                raise QuiverError("gamma on %r, which touches no black vertex" % (key,))
            q = _gamma_value(val)
            if q is None:
                raise QuiverError("gamma %r = %r is not an int, a Fraction or"
                                  " a number in the file grammar" % (key, val))
            if q == 0:
                raise QuiverError("gamma %r = 0" % (key,))
            self.gamma[key] = q

    def _double_names(self) -> dict[str, tuple[str, str]]:
        out = {}
        for a in self.arrows:
            out[a.name] = (a.tail, a.head)
            out[a.name + "*"] = (a.head, a.tail)
        return out

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


def _undirected(q: Quiver):
    """loops[v] = loop count; mult[(u,v)] (u < v by index) = edge count."""
    loops: dict[str, int] = {v: 0 for v in q.vertices}
    mult: dict[tuple[str, str], int] = {}
    order = {v: i for i, v in enumerate(q.vertices)}
    for a in q.arrows:
        if a.tail == a.head:
            loops[a.tail] += 1
        else:
            u, v = sorted((a.tail, a.head), key=order.get)
            mult[(u, v)] = mult.get((u, v), 0) + 1
    return loops, mult


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


def _arm_lengths(adj: dict[str, list[str]], branch: str) -> list[tuple[int, str]]:
    """For a tree: length of each arm hanging off branch, with the first
    neighbor on that arm. Arms are returned in neighbor declaration order."""
    arms = []
    for first in adj[branch]:
        length = 1
        prev, cur = branch, first
        while True:
            nxt = [w for w in adj[cur] if w != prev]
            if len(nxt) != 1:
                break
            prev, cur = cur, nxt[0]
            length += 1
        arms.append((length, first))
    return arms


def classify(q: Quiver) -> Classification:
    """Dynkin / ExtendedDynkin / OtherNonDynkin for the underlying graph.

    Loops and multi-edges are non-Dynkin by convention: one vertex with one
    loop is the extended type A~_0, a double edge is A~_1.
    """
    if not _is_connected(q):
        return Classification(False, None, None)
    n = len(q.vertices)
    loops, mult = _undirected(q)
    nloops = sum(loops.values())
    nedges = sum(mult.values())
    if nloops:
        if n == 1 and nloops == 1:
            return Classification(True, EXTENDED, "A~_0")
        return Classification(True, OTHER, None)
    if any(c >= 2 for c in mult.values()):
        if n == 2 and nedges == 2:
            return Classification(True, EXTENDED, "A~_1")
        return Classification(True, OTHER, None)
    # simple graph from here on
    adj: dict[str, list[str]] = {v: [] for v in q.vertices}
    for (u, v) in mult:
        adj[u].append(v)
        adj[v].append(u)
    deg = {v: len(adj[v]) for v in q.vertices}
    if nedges == n:
        if all(d == 2 for d in deg.values()):
            return Classification(True, EXTENDED, "A~_%d" % (n - 1))
        return Classification(True, OTHER, None)
    if nedges != n - 1:
        return Classification(True, OTHER, None)
    # tree
    branches = [v for v in q.vertices if deg[v] >= 3]
    if not branches:
        return Classification(True, DYNKIN, "A_%d" % n)
    if len(branches) == 1:
        b = branches[0]
        if deg[b] >= 5:
            return Classification(True, OTHER, None)
        arms = sorted((l for l, _ in _arm_lengths(adj, b)), reverse=True)
        if deg[b] == 4:
            if arms == [1, 1, 1, 1]:
                return Classification(True, EXTENDED, "D~_4")
            return Classification(True, OTHER, None)
        a1, a2, a3 = arms
        if a2 == 1:
            return Classification(True, DYNKIN, "D_%d" % n)
        if a3 == 1 and a2 == 2:
            if a1 in (2, 3, 4):
                return Classification(True, DYNKIN, "E_%d" % n)
            if a1 == 5:
                return Classification(True, EXTENDED, "E~_8")
            return Classification(True, OTHER, None)
        if a3 == 1:
            if (a1, a2) == (3, 3):
                return Classification(True, EXTENDED, "E~_7")
            return Classification(True, OTHER, None)
        if arms == [2, 2, 2]:
            return Classification(True, EXTENDED, "E~_6")
        return Classification(True, OTHER, None)
    if len(branches) == 2 and all(deg[b] == 3 for b in branches):
        b1, b2 = branches
        path = set(_tree_path(adj, b1, b2))
        ok = True
        for b in (b1, b2):
            # exactly two off-path arms, both single edges
            legs = sorted(l for l, first in _arm_lengths(adj, b) if first not in path)
            if legs != [1, 1]:
                ok = False
        if ok:
            return Classification(True, EXTENDED, "D~_%d" % (n - 1))
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
    """A subquiver (vertex and arrow subset) of extended Dynkin type.

    Defined for connected non-Dynkin quivers; raises QuiverError otherwise.
    Deterministic search: self loop, parallel pair, cycle, degree >= 4
    vertex, two branch vertices, then arm truncation on a single branch.
    """
    cls = classify(q)
    if not cls.connected:
        raise QuiverError("quiver is disconnected")
    if cls.verdict == DYNKIN:
        raise QuiverError("quiver is Dynkin: no extended Dynkin subquiver")
    for a in q.arrows:
        if a.tail == a.head:
            return _sub(q, [a.name])
    pairs: dict[tuple[str, str], list[str]] = {}
    order = {v: i for i, v in enumerate(q.vertices)}
    for a in q.arrows:
        u, v = sorted((a.tail, a.head), key=order.get)
        pairs.setdefault((u, v), []).append(a.name)
    for key in sorted(pairs, key=lambda uv: (order[uv[0]], order[uv[1]])):
        if len(pairs[key]) >= 2:
            return _sub(q, pairs[key][:2])
    # simple graph now; one representative arrow per undirected edge
    edge_arrow = {uv: names[0] for uv, names in pairs.items()}
    adj: dict[str, list[str]] = {v: [] for v in q.vertices}
    for (u, v) in edge_arrow:
        adj[u].append(v)
        adj[v].append(u)
    cycle = _find_cycle(q.vertices, adj)
    if cycle:
        names = []
        for i in range(len(cycle)):
            u, v = cycle[i], cycle[(i + 1) % len(cycle)]
            u, v = sorted((u, v), key=order.get)
            names.append(edge_arrow[(u, v)])
        return _sub(q, names)

    def edge(u, v):
        a, b = sorted((u, v), key=order.get)
        return edge_arrow[(a, b)]

    deg = {v: len(adj[v]) for v in q.vertices}
    for v in q.vertices:
        if deg[v] >= 4:
            return _sub(q, [edge(v, w) for w in adj[v][:4]])
    branches = [v for v in q.vertices if deg[v] == 3]
    if len(branches) >= 2:
        b1, b2 = branches[0], branches[1]
        path = _tree_path(adj, b1, b2)
        names = [edge(path[i], path[i + 1]) for i in range(len(path) - 1)]
        on_path = set(path)
        for b in (b1, b2):
            extra = [w for w in adj[b] if w not in on_path][:2]
            names.extend(edge(b, w) for w in extra)
        return _sub(q, names)
    if len(branches) == 1:
        b = branches[0]
        arms = _arm_lengths(adj, b)
        arms_sorted = sorted(arms, key=lambda t: (-t[0], order[t[1]]))

        def walk(first, length):
            out, prev, cur = [edge(b, first)], b, first
            while len(out) < length:
                nxt = [w for w in adj[cur] if w != prev][0]
                out.append(edge(cur, nxt))
                prev, cur = cur, nxt
            return out

        (l1, f1), (l2, f2), (l3, f3) = arms_sorted
        if l3 >= 2:
            take = (2, 2, 2)  # E~_6
        elif l2 >= 3:
            take = (3, 3, 1)  # E~_7
        elif l1 >= 5 and l2 == 2:
            take = (5, 2, 1)  # E~_8
        else:
            raise QuiverError("no extended Dynkin subquiver found")
        names = walk(f1, take[0]) + walk(f2, take[1]) + walk(f3, take[2])
        return _sub(q, names)
    raise QuiverError("no extended Dynkin subquiver found")


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
