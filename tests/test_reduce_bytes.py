"""Byte gate for `reduce`: the exit status, stdout and stderr of about a
hundred seeded problems, compared by sha256 with
tests/golden/reduce_hashes.json.

    PYTHONPATH=src python tests/test_reduce_bytes.py   # rewrite the file

Rewrite the golden file only when a change of the reports is meant, and
say which reports changed and why.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

from problem_factory import random_problem, zero_linear_problem
from swcohom.cli import main

GOLDEN = Path(__file__).parent / "golden" / "reduce_hashes.json"


def problems():
    # factory problems in dimensions 1 to 3, then z^m - 1 and
    # (z^m - 1, +-x3) with zero linear part
    for dim, count in ((1, 30), (2, 30), (3, 16)):
        rng = random.Random(f"reduce-bytes:{dim}")
        for i in range(count):
            yield f"factory{dim}:{i}", random_problem(rng, dim)[0]
    rng = random.Random("reduce-bytes:zero-linear")
    for dim, ms in ((2, range(2, 9)), (3, range(2, 6))):
        for m in ms:
            for k in range(2):
                yield f"zero_linear{dim}:m{m}:{k}", zero_linear_problem(rng, dim, m)


def digests(directory):
    out = {}
    path = Path(directory) / "problem.json"
    for name, problem in problems():
        path.write_text(json.dumps(problem.to_json()))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            status = main(["reduce", "--problem", str(path)])
        blob = json.dumps([status, stdout.getvalue(), stderr.getvalue()])
        out[name] = hashlib.sha256(blob.encode()).hexdigest()
    return out


def test_reduce_bytes_match_golden_hashes(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    got = digests(tmp_path)
    assert sorted(got) == sorted(expected)
    changed = [name for name in expected if got[name] != expected[name]]
    assert not changed, f"reduce output changed for: {', '.join(changed)}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        hashes = digests(directory)
    GOLDEN.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(hashes)} hashes to {GOLDEN}", file=sys.stderr)
