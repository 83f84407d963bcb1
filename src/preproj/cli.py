"""Command-line front end.

Subcommands: classify a quiver, print the Hilbert series of its doubled
presentation or the matrix closed form 1/(1 - Ct + D_J t^2), verify the two
agree, and run the Koszulity and integer-torsion reports.

main(argv) returns the exit code and may be called repeatedly in one
process: 0 success or claim verified, 1 claim fails or is undetermined
(a witness or the blocking cap is printed, or a degree's candidate count
exceeds the engine's bound), 2 malformed input.
"""

import argparse
import functools
import json
import sys
from pathlib import Path

from .algebra import (
    AlgebraError,
    CandidateBoundError,
    hilbert_series,
    preprojective_presentation,
)
from .field import FieldError, FieldSpec
from . import koszul
from .quiver import (
    DYNKIN,
    EXTENDED,
    QuiverError,
    adjacency_double,
    classify,
    find_extended_dynkin_subquiver,
    parse_quiver,
    relation_count_matrix,
)
from .series import EQUAL, closed_form, termwise_compare, to_json_obj, to_tsv
from .torsion import TorsionError, torsion_check

__all__ = ["main"]


def _field_token(field: FieldSpec) -> str:
    """The --field notation, so reports can be fed back into flags."""
    return "q" if field.p is None else "f%d" % field.p


def _load(args: argparse.Namespace):
    text = Path(args.file).read_text(encoding="utf-8")
    return parse_quiver(text)


def _emit(args: argparse.Namespace, obj: dict, tsv_lines: list) -> None:
    if args.format == "json":
        if args.seed is not None:
            obj["seed"] = args.seed
        print(json.dumps(obj, sort_keys=True))
    else:
        if args.seed is not None:
            tsv_lines = ["seed\t%d" % args.seed] + tsv_lines
        sys.stdout.write("\n".join(tsv_lines) + "\n")


def cmd_classify(args: argparse.Namespace) -> int:
    q = _load(args)
    cls = classify(q)
    obj = {"command": "classify", "connected": cls.connected,
           "verdict": cls.verdict, "label": cls.label}
    if not cls.connected:
        _emit(args, obj, ["disconnected"])
        return 0
    if cls.verdict == DYNKIN:
        line = "connected, Dynkin (%s)" % cls.label
    elif cls.verdict == EXTENDED:
        line = "connected, extended Dynkin (%s)" % cls.label
    else:
        sub = find_extended_dynkin_subquiver(q)
        obj["contains"] = classify(sub).label
        line = "connected, other (contains %s)" % obj["contains"]
    _emit(args, obj, [line])
    return 0


def _series_report(args: argparse.Namespace, q, command: str, series) -> None:
    obj = {"command": command, "field": _field_token(args.field),
           "truncation": series.truncation,
           "vertices": list(q.vertices), "series": to_json_obj(series)}
    _emit(args, obj, [to_tsv(series).rstrip("\n")])


def cmd_hilbert(args: argparse.Namespace) -> int:
    q = _load(args)
    pres = preprojective_presentation(q, args.field)
    h = hilbert_series(pres, args.degree)
    _series_report(args, q, "hilbert", h)
    return 0


def cmd_closed_form(args: argparse.Namespace) -> int:
    q = _load(args)
    s = closed_form(adjacency_double(q), relation_count_matrix(q), args.degree)
    _series_report(args, q, "closed-form", s)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    q = _load(args)
    pres = preprojective_presentation(q, args.field)
    h = hilbert_series(pres, args.degree)
    s = closed_form(adjacency_double(q), relation_count_matrix(q), args.degree)
    cmp = termwise_compare(h, s)
    obj = {"command": "verify", "field": _field_token(args.field),
           "truncation": args.degree, "equal": cmp.relation == EQUAL,
           "witness": None}
    if cmp.relation == EQUAL:
        _emit(args, obj, [
            "verified: series equals the closed form through degree %d"
            % args.degree])
        return 0
    d, i, j = cmp.witness
    obj["witness"] = {"degree": d, "row": q.vertices[i], "col": q.vertices[j],
                      "computed": h[d][i][j], "closed_form": s[d][i][j]}
    _emit(args, obj, [
        "mismatch at degree %d entry (%s, %s): computed %d, closed form %d"
        % (d, q.vertices[i], q.vertices[j], h[d][i][j], s[d][i][j])])
    return 1


def cmd_koszul(args: argparse.Namespace) -> int:
    q = _load(args)
    pres = preprojective_presentation(q, args.field)
    v = koszul.koszulity_verdict(pres, N=args.degree, i_max=args.imax,
                                 d_max=args.dmax)
    names = q.vertices
    wit_objs = []
    lines = []
    for w in v.witnesses:
        if w[0] == "series":
            d, r, c = w[1]
            wit_objs.append({"kind": "series", "degree": d,
                             "row": names[r], "col": names[c]})
            lines.append(
                "series differs from the closed form at degree %d entry"
                " (%s, %s)" % (d, names[r], names[c]))
        else:
            _, i, d, r, c = w
            wit_objs.append({"kind": "tor", "i": i, "degree": d,
                             "row": names[r], "col": names[c]})
            lines.append(
                "Tor_%d has a class in degree %d, block (%s, %s)"
                % (i, d, names[r], names[c]))
    obj = {"command": "koszul", "field": _field_token(args.field),
           "koszul": v.koszul, "complete": v.complete,
           "koszul_up_to": list(v.koszul_up_to),
           "series_degree": v.series_degree, "witnesses": wit_objs,
           "tor": [{"i": i, "degree": d, "matrix": [list(r) for r in M]}
                   for (i, d), M in sorted(v.tor.entries.items())]}
    if v.tor.partial:
        obj["partial"] = [list(c) for c in v.tor.partial]
        obj["column_cap"] = koszul.TOR_COLUMN_CAP
    if v.koszul:
        _emit(args, obj, ["Koszul up to (%d, %d)" % v.koszul_up_to,
                          "series equals the closed form through degree %d"
                          % v.series_degree])
        return 0
    if not lines:
        lines.append("undetermined: Tor cells skipped by the column cap of"
                     " %d columns: %s" % (koszul.TOR_COLUMN_CAP, ", ".join(
                         "(%d, %d)" % c for c in v.tor.partial)))
    _emit(args, obj, ["not Koszul up to (%d, %d)" % v.koszul_up_to] + lines)
    return 1


def cmd_torsion(args: argparse.Namespace) -> int:
    q = _load(args)
    rep = torsion_check(q, args.degree)
    names = q.vertices
    entries = []
    lines = ["degree\trow\tcol\tdivisors"]
    for e in rep.entries:
        entries.append({"degree": e.degree, "row": names[e.row],
                        "col": names[e.col], "partial": False,
                        "divisors": list(e.divisors)})
        lines.append("%d\t%s\t%s\t%s" % (e.degree, names[e.row], names[e.col],
                                        " ".join(map(str, e.divisors))))
    obj = {"command": "torsion", "truncation": rep.truncation,
           "torsion_found": rep.torsion_found,
           "witnesses": [[d, names[i], names[j], dv]
                         for d, i, j, dv in rep.witnesses],
           "primes": list(rep.primes), "entries": entries}
    if rep.torsion_found:
        for d, i, j, dv in rep.witnesses:
            lines.append("divisor %d at degree %d block (%s, %s)"
                         % (dv, d, names[i], names[j]))
        lines.append("torsion found")
    else:
        lines.append("no torsion")
    _emit(args, obj, lines)
    return 0 if not rep.torsion_found else 1


_COMMANDS = {  # name -> (command, help text), in --help order
    "classify": (cmd_classify,
                 "connectivity and Dynkin / extended Dynkin / other"),
    "hilbert": (cmd_hilbert,
                "Hilbert series of the doubled presentation to degree N"),
    "closed-form": (cmd_closed_form,
                    "the series 1/(1 - Ct + D_J t^2) to degree N"),
    "verify": (cmd_verify, "compare the computed series with the closed form"),
    "koszul": (cmd_koszul, "series equality plus Tor concentration"),
    "torsion": (cmd_torsion,
                "Smith normal forms of the integer relation matrices"),
}


def _ascii_int(text: str) -> int:
    """int() on ASCII text only: int() also reads other Unicode digits."""
    if text.isascii():
        try:
            return int(text)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError("invalid int value: %r" % text)


def _nonneg(text: str) -> int:
    v = _ascii_int(text)
    if v < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return v


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as one 'error: ...' line on stderr
    and exit 2; subparsers inherit the class."""

    def error(self, message):
        self.exit(2, "error: %s\n" % message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built on the first call, not at import, and shared by later calls."""
    common = _Parser(add_help=False)
    common.add_argument("file", help="quiver description file")
    common.add_argument("--field", default="q", metavar="q|f<p>",
                        help="coefficient field (default q)")
    common.add_argument("--degree", type=_nonneg, default=10, metavar="N",
                        help="series truncation degree (default 10)")
    common.add_argument("--imax", type=_nonneg, default=3, metavar="I",
                        help="largest homological degree (default 3)")
    common.add_argument("--dmax", type=_nonneg, default=8, metavar="D",
                        help="largest internal degree for Tor (default 8)")
    common.add_argument("--format", choices=("tsv", "json"), default="tsv",
                        help="output format (default tsv)")
    common.add_argument("--seed", type=_ascii_int, default=None, metavar="S",
                        help="seed echoed into the report for reproducibility")
    p = _Parser(
        prog="preproj",
        description="Preprojective algebras of quivers: Hilbert series, "
                    "closed forms, Koszulity, and integer torsion.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=help_text)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.field = FieldSpec.parse(args.field)
        return _COMMANDS[args.command][0](args)
    except (QuiverError, AlgebraError, FieldError, TorsionError, OSError,
            UnicodeDecodeError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except CandidateBoundError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
