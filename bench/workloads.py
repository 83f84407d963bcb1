"""Seeded job lists for the three benchmark workloads.

A quiver is a plain dict built here, independently of the package:
vertices, arrows (name, tail, head), white vertices and gamma weights. The
benchmark writes it in the package's text format, and computes from the
same dict the matrices its checks need: C, the adjacency matrix of the
double, and D, the diagonal matrix with 1 at each black vertex.
"""

import itertools
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("series-deep", "koszul-battery", "torsion-lattice")


def quiver(name, vertices, arrows, white=()):
    return {"name": name, "vertices": list(vertices),
            "arrows": [tuple(a) for a in arrows], "white": sorted(white),
            "gamma": {}}


def loop():
    return quiver("A~0", ["1"], [("l", "1", "1")])


def double_edge():
    return quiver("A~1", ["1", "2"], [("a", "1", "2"), ("b", "1", "2")])


def cycle(n, name, white=()):
    vs = [str(k + 1) for k in range(n)]
    return quiver(name, vs, [("a%d" % k, vs[k], vs[(k + 1) % n])
                             for k in range(n)], white)


def d4_tilde():
    return quiver("D~4", ["0", "1", "2", "3", "4"],
                  [("a%d" % k, str(k), "0") for k in range(1, 5)])


def star(arms, white_leaves=()):
    """Centre c (always white) and leaf v_i joined to it by arms[i]
    parallel arrows v_i -> c."""
    vs = ["c"] + ["v%d" % (i + 1) for i in range(len(arms))]
    arrows = [("a%d_%d" % (i + 1, k + 1), vs[i + 1], "c")
              for i, r in enumerate(arms) for k in range(r)]
    white = ["c"] + ["v%d" % (i + 1) for i in white_leaves]
    name = "star%s-w%s" % ("".join(map(str, arms)),
                           "".join(str(i + 1) for i in white_leaves) or "0")
    return quiver(name, vs, arrows, white)


def two_loop():
    return quiver("two-loop", ["1"], [("x", "1", "1"), ("y", "1", "1")])


def triple_arrow():
    return quiver("triple-arrow", ["1", "2"],
                  [("a", "1", "2"), ("b", "1", "2"), ("c", "1", "2")])


def battery():
    """The 92 quivers of the acceptance battery: five extended Dynkin
    quivers, 84 stars with every white set of leaves, the 4-cycle with one
    white vertex and the two smallest wild quivers."""
    out = [loop(), double_edge(), cycle(3, "A~2"), cycle(4, "A~3"),
           d4_tilde()]
    for n in (1, 2, 3):
        for arms in itertools.product((1, 2), repeat=n):
            for k in range(n + 1):
                for wl in itertools.combinations(range(n), k):
                    out.append(star(arms, wl))
    out.append(cycle(4, "4-cycle-w1", white=["1"]))
    out += [two_loop(), triple_arrow()]
    return out


def doubled_arrows_at_black(q):
    """Names of the doubled arrows that touch a black vertex, sorted."""
    black = set(q["vertices"]) - set(q["white"])
    names = []
    for name, t, h in q["arrows"]:
        if t in black or h in black:
            names += [name, name + "*"]
    return sorted(names)


def set_gammas(q, rng, kind):
    """Seeded gammas for every doubled arrow at a black vertex. kind 'q':
    nonzero rationals; 'odd': ratios of odd integers, units in GF(2)."""
    for key in doubled_arrows_at_black(q):
        sign = rng.choice((-1, 1))
        if kind == "odd":
            q["gamma"][key] = Fraction(sign * rng.randrange(1, 10, 2),
                                       rng.randrange(1, 10, 2))
        else:
            q["gamma"][key] = Fraction(sign * rng.randint(1, 9),
                                       rng.randint(1, 9))
    return q


def sign_gammas(q, sign):
    """+-1 gammas: every gamma of the relation at vertex v is sign[v], so a
    sign flips a whole relation. gamma_a weights a a* in the relation at
    h(a), gamma_a* weights a* a in the relation at t(a)."""
    black = set(q["vertices"]) - set(q["white"])
    for name, t, h in q["arrows"]:
        q["gamma"][name] = Fraction(sign[h if h in black else t])
        q["gamma"][name + "*"] = Fraction(sign[t if t in black else h])
    return q


def quiver_text(q):
    lines = ["# %s" % q["name"], "vertices: " + " ".join(q["vertices"])]
    lines += ["arrow %s: %s -> %s" % a for a in q["arrows"]]
    if q["white"]:
        lines.append("white: " + " ".join(q["white"]))
    lines += ["gamma %s = %s" % (k, v) for k, v in sorted(q["gamma"].items())]
    return "\n".join(lines) + "\n"


def matrix_c(q):
    """Adjacency matrix of the double: C[i][j] counts arrows j -> i."""
    idx = {v: i for i, v in enumerate(q["vertices"])}
    n = len(idx)
    C = [[0] * n for _ in range(n)]
    for _, t, h in q["arrows"]:
        C[idx[h]][idx[t]] += 1
        C[idx[t]][idx[h]] += 1
    return C


def matrix_d(q):
    n = len(q["vertices"])
    return [[int(i == j and q["vertices"][i] not in q["white"])
             for j in range(n)] for i in range(n)]


def jobs(workload, seed):
    """[(quiver, cli arguments after the file name)] for one workload.
    The gammas come from the seed, except for the two-loop torsion job;
    everything else is fixed."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "series-deep":
        deg = ["--degree", "10", "--format", "json"]
        return [
            (set_gammas(star((2, 2, 2), (2,)), rng, "q"), deg),
            (set_gammas(two_loop(), rng, "odd"), deg + ["--field", "f2"]),
            (set_gammas(triple_arrow(), rng, "q"), deg),
        ]
    if workload == "koszul-battery":
        args = ["--degree", "8", "--imax", "3", "--dmax", "7",
                "--format", "json"]
        return [(set_gammas(q, rng, "q"), args) for q in battery()]
    if workload == "torsion-lattice":
        # Whole-relation signs leave the Smith-path jobs' time unchanged,
        # so the seed draws them. The two-loop job's rank fallback over Q
        # keeps integer rows only where a pivot is +1, so its time depends
        # on the sign; it is fixed at -1, the slower case (see README).
        out = []
        for q, deg in ((double_edge(), 8), (cycle(3, "A~2"), 8),
                       (cycle(4, "A~3"), 8), (d4_tilde(), 8),
                       (triple_arrow(), 7)):
            sign = {v: rng.choice((-1, 1)) for v in q["vertices"]}
            out.append((sign_gammas(q, sign), deg))
        out.append((sign_gammas(two_loop(), {"1": -1}), 8))
        return [(q, ["--degree", str(d), "--format", "json"]) for q, d in out]
    raise ValueError("unknown workload %r" % (workload,))


COMMAND = {"series-deep": "hilbert", "koszul-battery": "koszul",
           "torsion-lattice": "torsion"}


def write_jobs(workload, seed, directory):
    """Write the workload's quiver files into directory. Returns the job
    specs a worker runs: argv for preproj.cli.main plus what the checks
    need."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    specs = []
    for k, (q, args) in enumerate(jobs(workload, seed)):
        stem = "%02d-%s" % (k, q["name"].replace("~", "t"))
        path = directory / (stem + ".quiver")
        path.write_text(quiver_text(q), encoding="utf-8")
        specs.append({"name": q["name"], "kind": COMMAND[workload],
                      "argv": [COMMAND[workload], str(path)] + args,
                      "vertices": q["vertices"],
                      "C": matrix_c(q), "D": matrix_d(q)})
    return specs
