"""Checks of CLI outputs against values the benchmark computes itself.

Nothing here imports the package. C and D come from the benchmark's own
quiver dicts (see workloads.py); the expected series is the recurrence
s_0 = I, s_1 = C, s_d = C s_{d-1} - D s_{d-2}. Every check raises
CheckError explicitly, so running under ``python -O`` cannot strip it.
"""

import json


class CheckError(Exception):
    pass


def _fail(job, msg):
    raise CheckError("%s: %s" % (job["name"], msg))


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def zeros(n):
    return [[0] * n for _ in range(n)]


def expected_series(C, D, N):
    n = len(C)
    s = [identity(n), [list(r) for r in C]]
    for d in range(2, N + 1):
        cs, ds = mat_mul(C, s[d - 1]), mat_mul(D, s[d - 2])
        s.append([[cs[i][j] - ds[i][j] for j in range(n)] for i in range(n)])
    return s[:N + 1]


def path_counts(C, N):
    """(C^d)[i][j] = number of paths j -> i of length d in the double."""
    out = [identity(len(C))]
    for _ in range(N):
        out.append(mat_mul(C, out[-1]))
    return out


def _flag(job, flag):
    argv = job["argv"]
    return int(argv[argv.index(flag) + 1])


def _load(job, code, out, command):
    if code != 0:
        _fail(job, "exit code %r, expected 0" % (code,))
    lines = out.strip().splitlines()
    if len(lines) != 1:
        _fail(job, "expected one JSON line, got %d lines" % len(lines))
    obj = json.loads(lines[0])
    if obj.get("command") != command:
        _fail(job, "command %r, expected %r" % (obj.get("command"), command))
    return obj


def check_hilbert(job, code, out):
    obj = _load(job, code, out, "hilbert")
    N = _flag(job, "--degree")
    if obj["truncation"] != N or obj["vertices"] != job["vertices"]:
        _fail(job, "truncation or vertex order differs")
    want = expected_series(job["C"], job["D"], N)
    got = obj["series"]
    if [item["degree"] for item in got] != list(range(N + 1)):
        _fail(job, "degrees %r" % [item["degree"] for item in got])
    for item in got:
        d = item["degree"]
        if item["matrix"] != want[d]:
            _fail(job, "degree %d is %r, recurrence gives %r"
                  % (d, item["matrix"], want[d]))


def expected_tor(C, D, i_max, d_max):
    """The Tor table a Koszul algebra with series 1/(1 - Ct + Dt^2) has:
    I at (0, 0), C at (1, 1), D at (2, 2), zero everywhere else."""
    n = len(C)
    diag = {0: identity(n), 1: C, 2: D}
    return {(i, d): (diag[i] if i == d and i in diag else zeros(n))
            for i in range(i_max + 1) for d in range(d_max + 1)}


def check_koszul(job, code, out):
    obj = _load(job, code, out, "koszul")
    i_max, d_max = _flag(job, "--imax"), _flag(job, "--dmax")
    degree = _flag(job, "--degree")
    if obj["koszul"] is not True or obj["complete"] is not True:
        _fail(job, "koszul=%r complete=%r" % (obj["koszul"], obj["complete"]))
    if obj["witnesses"] or obj["koszul_up_to"] != [i_max, d_max] \
            or obj["series_degree"] != degree:
        _fail(job, "witnesses or bounds differ: %r %r %r" % (
            obj["witnesses"], obj["koszul_up_to"], obj["series_degree"]))
    want = expected_tor(job["C"], job["D"], i_max, d_max)
    got = {(t["i"], t["degree"]): t["matrix"] for t in obj["tor"]}
    if len(got) != len(obj["tor"]) or set(got) != set(want):
        _fail(job, "Tor cells %r" % sorted(got))
    for cell in sorted(want):
        if got[cell] != want[cell]:
            _fail(job, "Tor_%d in degree %d is %r, expected %r"
                  % (cell + (got[cell], want[cell])))


def check_torsion(job, code, out):
    obj = _load(job, code, out, "torsion")
    N = _flag(job, "--degree")
    if obj["truncation"] != N or obj["torsion_found"] is not False \
            or obj["witnesses"]:
        _fail(job, "truncation %r, torsion_found %r, witnesses %r" % (
            obj["truncation"], obj["torsion_found"], obj["witnesses"]))
    idx = {v: i for i, v in enumerate(job["vertices"])}
    series = expected_series(job["C"], job["D"], N)
    paths = path_counts(job["C"], N)
    ranks = {}
    for e in obj["entries"]:
        key = (e["degree"], idx[e["row"]], idx[e["col"]])
        if key in ranks or not 2 <= key[0] <= N:
            _fail(job, "block %r repeated or out of range" % (key,))
        if e["partial"]:
            if e["divisors"] is not None:
                _fail(job, "partial block %r has divisors" % (key,))
            for p, r in e["ranks_p"]:
                if r != e["rank_q"]:
                    _fail(job, "block %r: rank %d over GF(%d), %d over Q"
                          % (key, r, p, e["rank_q"]))
            ranks[key] = e["rank_q"]
        else:
            bad = [dv for dv in e["divisors"] if dv not in (0, 1)]
            if bad:
                _fail(job, "block %r has divisors %r" % (key, bad))
            ranks[key] = sum(1 for dv in e["divisors"] if dv)
    n = len(job["vertices"])
    for d in range(2, N + 1):
        for i in range(n):
            for j in range(n):
                rank = ranks.get((d, i, j), 0)
                if paths[d][i][j] - rank != series[d][i][j]:
                    _fail(job, "degree %d block (%d, %d): %d paths - rank %d"
                          " != closed form %d" % (d, i, j, paths[d][i][j],
                                                  rank, series[d][i][j]))


def check(job, code, out):
    """Check one job's exit code and stdout; raises CheckError."""
    try:
        if job["kind"] == "hilbert":
            check_hilbert(job, code, out)
        elif job["kind"] == "koszul":
            check_koszul(job, code, out)
        elif job["kind"] == "torsion":
            check_torsion(job, code, out)
        else:
            _fail(job, "unknown job kind %r" % (job["kind"],))
    except (KeyError, TypeError, ValueError, IndexError) as e:
        raise CheckError("%s: malformed output (%s: %s)"
                         % (job["name"], type(e).__name__, e)) from None
