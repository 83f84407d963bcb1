"""Byte-for-byte CLI output on fixed quivers.

Each case runs ``cli.main`` on a quiver file in tests/golden and compares
its stdout with the stored ``.out`` file and its exit code with the one
stored here. The fixtures were captured from the CLI before the integer
torsion moved onto the quotient basis, and the ``classify`` ones before
the ADE rule moved into one search, so they pin TSV and JSON bytes across
internal rewrites.
"""

from pathlib import Path

import pytest

from preproj.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

A2T = ["a2_tilde.quiver", "--degree", "6"]
JSON = ["--format", "json"]

# (fixture name, argv with the quiver file relative to tests/golden, exit)
CASES = [
    ("hilbert_a2_tilde_tsv", ["hilbert"] + A2T, 0),
    ("hilbert_a2_tilde_json", ["hilbert"] + A2T + JSON, 0),
    ("torsion_a2_tilde_tsv", ["torsion"] + A2T, 0),
    ("torsion_a2_tilde_json", ["torsion"] + A2T + JSON, 0),
    ("koszul_d4_tilde_json", ["koszul", "d4_tilde.quiver"] + JSON, 0),
    ("verify_a2_tsv", ["verify", "a2.quiver", "--degree", "8"], 1),
    ("classify_a2_tsv", ["classify", "a2.quiver"], 0),
    ("classify_a2_json", ["classify", "a2.quiver"] + JSON, 0),
    ("classify_d4_tilde_tsv", ["classify", "d4_tilde.quiver"], 0),
    ("classify_d4_tilde_json", ["classify", "d4_tilde.quiver"] + JSON, 0),
    ("classify_wild_tree_tsv", ["classify", "wild_tree.quiver"], 0),
    ("classify_wild_tree_json", ["classify", "wild_tree.quiver"] + JSON, 0),
]


@pytest.mark.parametrize("name, argv, code", CASES, ids=[c[0] for c in CASES])
def test_cli_output_is_byte_identical(name, argv, code, capsys):
    argv = [argv[0], str(GOLDEN / argv[1])] + argv[2:]
    assert main(argv) == code
    out, _ = capsys.readouterr()
    assert out.encode("utf-8") == (GOLDEN / (name + ".out")).read_bytes()
