"""Fuzzing of the command line.

Whatever the arguments and the input files, `main` returns 0, 1 or 2.
On 0 standard output holds one report with a schema and standard error
is empty; otherwise standard output is empty and standard error holds
exactly one swcohom/error/1 line.  No exception leaves `main`.

Inputs stay small (d <= 60, rank <= 4, degree <= 3), so the default
profile adds a few seconds; HYPOTHESIS_PROFILE=ci draws more examples
(see conftest.py).
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from swcohom.cli import main

# well-formed rationals and strings the "num/den" grammar refuses
ODD_RATIONALS = ["1/4", "1/8", "1/3", "3/2", "0", "-1/4", "1", "2", "1/0",
                 "1_0/40", "١/٢", "１/４", "+1/4", " 1/4 ",
                 "1/-4", "1.5", "1e-1", "", "x", "1/2/3", "--1", "4/1"]

values = st.one_of(st.integers(-5, 60).map(str), st.sampled_from(ODD_RATIONALS),
                   st.text(alphabet="0123456789-/+ ._e,", max_size=6))


def rarely(strategy, other):
    # strategy nine times in ten, other the tenth
    return st.integers(0, 9).flatmap(lambda i: other if i == 0 else strategy)


def options(required, optional=None):
    # now and then a required option is left out
    def flatten(chosen):
        return [token for flag, value in chosen.items()
                for token in (flag, value)]
    return rarely(st.fixed_dictionaries(required, optional=optional or {}),
                  st.fixed_dictionaries({}, optional={**required,
                                                      **(optional or {})})
                  ).map(flatten)


def _integer(lo, hi):
    return rarely(st.integers(lo, hi).map(str), values)


ARGV = {
    "index": options({"--c2": _integer(-60, 60), "--sigma": _integer(-60, 60)}),
    "dim": options({"--bplus": _integer(-2, 9)},
                   {"--d": _integer(-2, 60), "--c2": _integer(-60, 60),
                    "--sigma": _integer(-60, 60)}),
    "bound": options({"--d": _integer(0, 60), "--k": _integer(-2, 60)}),
    "hurewicz": options({"--d": _integer(0, 60)}, {"--k": _integer(-1, 6)}),
    "sharpscan": options({"--dmin": _integer(0, 60), "--dmax": _integer(0, 60)},
                         {"--k": _integer(0, 5)}),
    "chamber": options({
        "--n": _integer(-2, 20),
        "--angles": st.lists(rarely(st.sampled_from(["1/2", "3/2", "1/3", "2"]),
                                    st.sampled_from(ODD_RATIONALS)),
                             min_size=1, max_size=3).map(",".join)}),
}

# -- input files ---------------------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3)
    | st.sampled_from([10 ** 9, 2 ** 64, 1.5, -0.0])
    | st.sampled_from(ODD_RATIONALS),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["gram", "builtin", "vector", "pieces",
                                       "components", "if_norm2_le", "x"]),
                      inner, max_size=2),
    max_leaves=8)


@st.composite
def gram_documents(draw):
    n = draw(st.integers(1, 4))
    entries = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        # symmetric, often negative definite
        entries = [[entries[min(i, j)][max(i, j)] - 3 * (i == j)
                    for j in range(n)] for i in range(n)]
    doc = draw(rarely(st.sampled_from(["rows", "wrapped"]),
                      st.sampled_from(["extra", "mutated", "any"])))
    if doc == "wrapped":
        return {"gram": entries}
    if doc == "extra":
        return {"gram": entries, draw(st.sampled_from(["x", "rank"])): 1}
    if doc == "mutated":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        entries[i][j] = draw(json_values)
    if doc == "any":
        return draw(json_values)
    return entries


small_rationals = st.sampled_from(["0", "1", "-1", "2", "1/2", "-3/2", "1/3"])


@st.composite
def polynomials(draw, dim, target):
    def term():
        powers = draw(st.lists(st.integers(0, 3), min_size=dim, max_size=dim)
                      .filter(lambda p: sum(p) <= 3))
        return [draw(small_rationals), powers]
    return [[term() for _ in range(draw(st.integers(0, 2)))]
            for _ in range(target)]


@st.composite
def reduce_documents(draw):
    dim = draw(st.integers(1, 3))
    target = dim if draw(st.integers(0, 4)) else draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["zero", "constant", "square", "components",
                                 "pieces"]))
    if kind == "zero":
        compact = {"builtin": "zero"}
    elif kind == "constant":
        compact = {"builtin": "constant",
                   "vector": [draw(small_rationals) for _ in range(target)]}
    elif kind == "square":
        compact = {"builtin": "complex_square_minus_one"}
    elif kind == "components":
        compact = {"components": draw(polynomials(dim, target))}
    else:
        compact = {"pieces": [
            {"if_norm2_le": draw(st.sampled_from(["1", "4", "1/2"])),
             "components": draw(polynomials(dim, target))},
            {"if_norm2_le": None, "components": [[] for _ in range(target)]}]}
    doc = {
        "domain_dim": dim,
        "target_dim": target,
        "linear_part": [[draw(small_rationals) for _ in range(dim)]
                        for _ in range(target)],
        "compact_part": compact,
        "bound_radius": draw(rarely(st.sampled_from(["1", "2", "3/2"]),
                                    st.sampled_from(["0", "-1", "1/0"]))),
    }
    mutation = draw(rarely(st.just("none"), st.sampled_from(
        ["drop", "replace", "extra", "rational", "any"])))
    key = draw(st.sampled_from(sorted(doc)))
    if mutation == "drop":
        del doc[key]
    elif mutation == "replace":
        doc[key] = draw(json_values)
    elif mutation == "extra":
        doc[draw(st.sampled_from(["x", "epsilon"]))] = draw(json_values)
    elif mutation == "rational":
        doc["linear_part"][0][0] = draw(st.sampled_from(ODD_RATIONALS))
    elif mutation == "any":
        return draw(json_values)
    return doc


@st.composite
def command_lines(draw):
    """(argv, files): argv with "{name}" where a file's path goes."""
    head = draw(rarely(st.sampled_from([[], ["--format", "table"]]),
                       st.sampled_from([["--format", "json"], ["--format", "xml"],
                                        ["--frobnicate"]])))
    sub = draw(rarely(st.sampled_from(sorted(ARGV) + ["lattice", "reduce"]),
                      st.just("nope")))
    files = {}
    if sub == "lattice":
        files["gram"] = draw(gram_documents())
        tail = ["--gram", "{gram}"]
    elif sub == "reduce":
        files["problem"] = draw(reduce_documents())
        tail = ["--problem", "{problem}"] + draw(options({}, {
            "--epsilon": rarely(st.sampled_from(["1/4", "1/8", "1/5"]),
                                st.sampled_from(ODD_RATIONALS)),
            "--samples": _integer(1, 64)}))
    elif sub == "nope":
        tail = []
    else:
        tail = draw(ARGV[sub])
    return head + [sub] + tail, files


@settings(deadline=None)
@given(command_lines())
def test_main_answers_every_command_line_with_one_document(case):
    argv, files = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        paths = {}
        for name, doc in files.items():
            paths[name] = os.path.join(directory, f"{name}.json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        with redirect_stdout(out), redirect_stderr(err):
            status = main([a.format(**paths) for a in argv])
    out, err = out.getvalue(), err.getvalue()
    assert status in (0, 1, 2)
    assert "Traceback" not in out + err
    if status == 0:
        assert err == ""
        if "table" in argv:
            assert out.startswith("schema swcohom/")
        else:
            assert json.loads(out)["schema"].startswith("swcohom/")
    else:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc["schema"] == "swcohom/error/1"
        assert set(doc["error"]) == {"code", "message"}
        assert doc["error"]["code"] in ("domain", "io", "parse")
        assert (status == 1) == (doc["error"]["code"] == "domain")
