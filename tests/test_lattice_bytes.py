"""Byte gate for `lattice`: the exit status, stdout and stderr of about a
hundred forms, each in `--format json` and `--format table`, compared by
sha256 with tests/golden/lattice_hashes.json.

    PYTHONPATH=src python tests/test_lattice_bytes.py   # rewrite the file

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

from swcohom.cli import main
from swcohom.lattices import e8_gram, minus_identity
from test_lattices import conjugate, direct_sum, minus_d12_plus, random_unimodular

GOLDEN = Path(__file__).parent / "golden" / "lattice_hashes.json"


def forms():
    # -I_n, -E8 + -I_k, -D12+ and four forms of rank 16 to 24, two seeded
    # conjugates of each, then one form for each way validate() refuses
    bases = [(f"minus_identity{n}", minus_identity(n)) for n in range(1, 13)]
    bases += [(f"e8_plus_identity{k}",
               direct_sum(e8_gram(), minus_identity(k)) if k else e8_gram())
              for k in range(5)]
    bases.append(("minus_d12_plus", minus_d12_plus()))
    # rank 16 to 24, where the verdict is a first-hit search
    e8 = e8_gram()
    bases += [("e8_plus_e8", direct_sum(e8, e8)),
              ("e8_plus_identity16", direct_sum(e8, minus_identity(16))),
              ("e8_plus_e8_plus_e8", direct_sum(e8, e8, e8)),
              ("d12_plus_plus_d12_plus",
               direct_sum(minus_d12_plus(), minus_d12_plus()))]
    for name, g in bases:
        yield name, g.to_json()
        rng = random.Random(f"lattice-bytes:{name}")
        for i in range(2):
            yield f"{name}:conjugate{i}", conjugate(
                g, random_unimodular(rng, g.n, steps=4)).to_json()
    yield "not_symmetric", [[-1, 1], [0, -1]]
    yield "not_definite", [[1, 0], [0, 1]]
    yield "not_unimodular", [[-1, 0], [0, -2]]


def digests(directory):
    out = {}
    path = Path(directory) / "gram.json"
    for name, entries in forms():
        path.write_text(json.dumps(entries))
        for fmt in ("json", "table"):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                status = main(["--format", fmt, "lattice", "--gram", str(path)])
            blob = json.dumps([status, stdout.getvalue(), stderr.getvalue()])
            out[f"{name}:{fmt}"] = hashlib.sha256(blob.encode()).hexdigest()
    return out


def test_lattice_bytes_match_golden_hashes(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    got = digests(tmp_path)
    assert sorted(got) == sorted(expected)
    changed = [name for name in expected if got[name] != expected[name]]
    assert not changed, f"lattice output changed for: {', '.join(changed)}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        hashes = digests(directory)
    GOLDEN.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(hashes)} hashes to {GOLDEN}", file=sys.stderr)
