"""The benchmark's checks accept real CLI output and reject corrupted output.

Run from the repository root:  python3 bench/test_checks.py
"""

import io
import json
import random
import sys
import tempfile
import unittest
from contextlib import redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from checks import CheckError, check  # noqa: E402
from preproj.cli import main  # noqa: E402
from workloads import (  # noqa: E402
    cycle,
    double_edge,
    matrix_c,
    matrix_d,
    quiver_text,
    set_gammas,
    sign_gammas,
)


class ChecksBite(unittest.TestCase):
    def run_cli(self, q, kind, args):
        """(job, exit code, stdout) of one real CLI run on quiver q."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "q.quiver"
            path.write_text(quiver_text(q), encoding="utf-8")
            job = {"name": q["name"], "kind": kind,
                   "argv": [kind, str(path)] + args + ["--format", "json"],
                   "vertices": q["vertices"], "C": matrix_c(q),
                   "D": matrix_d(q)}
            out = io.StringIO()
            with redirect_stdout(out):
                code = main(job["argv"])
        return job, code, out.getvalue()

    def assert_rejects(self, job, code, obj):
        with self.assertRaises(CheckError):
            check(job, code, json.dumps(obj))

    def test_series_entry_off_by_one(self):
        q = set_gammas(cycle(3, "A~2"), random.Random(1), "q")
        job, code, out = self.run_cli(q, "hilbert", ["--degree", "6"])
        check(job, code, out)
        bad = json.loads(out)
        bad["series"][4]["matrix"][1][2] += 1
        self.assert_rejects(job, code, bad)
        self.assert_rejects(job, 1, json.loads(out))

    def test_off_diagonal_tor_entry(self):
        q = set_gammas(double_edge(), random.Random(2), "q")
        job, code, out = self.run_cli(
            q, "koszul", ["--degree", "5", "--imax", "3", "--dmax", "4"])
        check(job, code, out)
        bad = json.loads(out)
        cell = next(t for t in bad["tor"] if t["i"] == 2 and t["degree"] == 3)
        cell["matrix"][0][1] = 1
        self.assert_rejects(job, code, bad)

    def test_divisor_two(self):
        q = sign_gammas(double_edge(), {"1": -1, "2": 1})
        job, code, out = self.run_cli(q, "torsion", ["--degree", "4"])
        check(job, code, out)
        bad = json.loads(out)
        entry = next(e for e in bad["entries"] if 1 in e["divisors"])
        entry["divisors"][entry["divisors"].index(1)] = 2
        self.assert_rejects(job, code, bad)


if __name__ == "__main__":
    unittest.main()
