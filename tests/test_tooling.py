"""Checks on the package source itself."""

import ast
import importlib
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import preproj
from preproj.algebra import GradedEngine, preprojective_presentation
from preproj.cli import build_parser
from preproj.field import QQ, FieldSpec, SparseRref
from preproj.quiver import Arrow, Quiver

SRC = Path(preproj.__file__).resolve().parent
SPANS_FILE = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
WORKLOADS_FILE = SPANS_FILE.with_name("workloads.py")
A2_TILDE_FILE = Path(__file__).resolve().parent / "golden" / "a2_tilde.quiver"


def test_package_has_no_assert_statements():
    # python -O strips assert statements, and a cross-check must not be
    # switchable: the package raises AssertionError explicitly instead
    found = []
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, "bare assert in the package: %s" % ", ".join(found)


def test_package_imports_only_the_standard_library():
    # the runtime is stdlib-only: every import is relative or names a
    # standard-library module
    found = []
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += ["%s:%d %s" % (path.name, node.lineno, name)
                      for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names]
    assert not found, "non-stdlib import in the package: %s" % ", ".join(found)


def _package_homes(predicate) -> set:
    """(file name, dotted name of the enclosing class and function) for
    every syntax node of the package that predicate accepts."""
    found = set()

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if predicate(child):
                found.add((path.name, ".".join(scope)))
            visit(child, path, scope + (child.name,) if isinstance(
                child, (ast.FunctionDef, ast.ClassDef)) else scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, ())
    return found


def _builds_word_prime_field(node) -> bool:
    return (isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            == "FieldSpec"
            and any(getattr(a, "id", getattr(a, "attr", None)) == "WORD_PRIME"
                    for a in node.args))


def _assigns_relation_rows(node) -> bool:
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return False
    return any(isinstance(t, ast.Attribute) and t.attr == "relation_rows"
               for t in targets)


def test_good_reduction_and_relation_rows_each_have_one_home():
    # the modular routes share one good-reduction rule only while
    # word_prime_image is the one place that reduces mod WORD_PRIME, and
    # the relation span is echeloned once only while Presentation.__init__
    # is the one place that sets relation_rows
    assert _package_homes(_builds_word_prime_field) == {
        ("algebra.py", "word_prime_image")}
    assert _package_homes(_assigns_relation_rows) == {
        ("algebra.py", "Presentation.__init__")}


def test_bench_span_targets_resolve():
    # the bench's --trace run wraps these by name from outside the package;
    # SPANS is read from the file's syntax tree, so nothing under bench/ is
    # imported or written, and a rename in the package fails here
    tree = ast.parse(SPANS_FILE.read_text(encoding="utf-8"))
    spans = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "SPANS"
                         for t in node.targets))
    assert spans
    missing = []
    # install() also replaces SparseRref.add_row
    for modname, attr, _ in spans + [("preproj.field", "SparseRref.add_row",
                                      "")]:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append("%s.%s" % (modname, attr))
    assert not missing, "bench span targets gone: %s" % ", ".join(missing)


def test_bench_command_lines_parse():
    # every job's argv must parse, so no job passes a flag its command does
    # not take; workloads.py is exec'd from its source, so nothing under
    # bench/ is imported as a module or written
    ns = {"__name__": "workloads"}
    exec(compile(WORKLOADS_FILE.read_text(encoding="utf-8"),
                 str(WORKLOADS_FILE), "exec"), ns)
    for workload in ns["WORKLOADS"]:
        command = ns["COMMAND"][workload]
        for seed in (0, 1, 11):
            for _, args in ns["jobs"](workload, seed):
                argv = [command, "q.quiver"] + args
                try:
                    parsed = build_parser().parse_args(argv)
                except SystemExit:
                    pytest.fail("bench argv does not parse: %s" % argv)
                taken = {a[2:] for a in args if a.startswith("--")}
                assert taken <= set(vars(parsed)), argv


def test_add_row_returns_what_the_bench_reads():
    # the bench's add_row wrapper counts a dependent row by out[0] is None
    # and splits time by rref.field, so both stay part of the contract
    ech = SparseRref(QQ)
    assert ech.field is QQ
    out = ech.add_row({(0, 2): Fraction(3), (1, 0): Fraction(1)})
    assert isinstance(out, tuple) and len(out) == 2 and out[0] == (0, 2)
    out = ech.add_row({(0, 2): Fraction(6), (1, 0): Fraction(2)})
    assert isinstance(out, tuple) and len(out) == 2 and out[0] is None


STAR_222 = Quiver(["c", "v1", "v2", "v3"],
                  [Arrow("a%d_%d" % (i, k), "v%d" % i, "c")
                   for i in (1, 2, 3) for k in (1, 2)],
                  white=["c", "v3"])
TWO_LOOP = Quiver(["1"], [Arrow("x", "1", "1"), Arrow("y", "1", "1")])


@pytest.mark.parametrize("q,field", [(STAR_222, QQ), (TWO_LOOP, FieldSpec(2))],
                         ids=["star222-w3", "two-loop-f2"])
def test_series_memory_stays_bounded(q, field):
    # series(8) counts degree 8 from the degree-7 rewrite table alone,
    # with no placement row and no degree-6 basis tuple: 0.8 and 0.7 MB
    # traced. Making its placement rows one at a time and grouping the
    # degree-6 basis took 1.6 MB on the star, keeping the rows in an
    # echelon 2.8 MB on both, and listing the candidates and basis again
    # 9-13 MB; each fails the bound on the star
    pres = preprojective_presentation(q, field)
    tracemalloc.start()
    try:
        GradedEngine(pres).series(8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, "traced peak %.1f MB" % (peak / 2 ** 20)


@pytest.mark.parametrize("command", ["hilbert", "verify", "koszul",
                                     "torsion"])
def test_hilbert_route_output_survives_python_O(command):
    # hilbert and verify on A~2 take the closed-form route, koszul decides
    # its verdict mod WORD_PRIME, and torsion reads its rational dims from
    # hilbert_series; all refuse from the closed form first and count their
    # top degrees by distinct leads. python -O must strip nothing that
    # decides them
    outs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "preproj.cli", command,
             str(A2_TILDE_FILE), "--degree", "8"],
            capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": str(SRC.parent)})
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1] and outs[0]


# koszul on A~2 with the modular stage-3 expected kernel series raised by
# one at degree 3 entry (0, 1): the kernel check mod WORD_PRIME must raise
# under python -O too, and the verdict must not fall back to Q
MODULAR_KERNEL_FAULT = """
import runpy
import sys
import preproj.koszul
from preproj.algebra import WORD_PRIME

kernel_series = preproj.koszul._kernel_series

def faulty(p, N, engine):
    hK = kernel_series(p, N, engine)
    if engine.field.p == WORD_PRIME:
        hK.coeffs[3][0][1] += 1
    return hK

preproj.koszul._kernel_series = faulty
print(sys.flags.optimize)
sys.argv = ["preproj.cli"] + sys.argv[1:]
runpy.run_module("preproj.cli", run_name="__main__")
"""


def test_modular_koszul_check_survives_python_O():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", MODULAR_KERNEL_FAULT, "koszul",
         str(A2_TILDE_FILE), "--degree", "8"],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(SRC.parent)})
    assert proc.returncode == 1
    assert proc.stdout == "1\n"
    assert proc.stderr.splitlines()[-1] == (
        "AssertionError: kernel dims disagree at degree 3: ranks "
        "[[0, 0, 0], [0, 0, 0], [0, 0, 0]], series "
        "[[0, 1, 0], [0, 0, 0], [0, 0, 0]]")
