"""Run one swcohom CLI job with span-recording wrappers installed.

    python -X importtime perfbench/traceboot.py OUT JOB_ID ARGV...

After ``import swcohom``, every attribute of every swcohom namespace
that is a public function (one named in its defining module's
``__all__``) is replaced by a wrapper that records a span.  Modules
import each other's names, so every namespace is scanned.
``TruncatedSeries.__mul__``, ``ReductionProblem.f`` and the map handed
to ``brouwer_degree`` are wrapped too.

A span's self time is its duration minus the time covered by the spans
it opened.  Spans are folded into per-name totals (calls, total and
self nanoseconds) as they close, so memory does not grow with the call
count; the totals and counters are written to OUT as JSON when the job
ends.  The process then exits as ``python -m swcohom.cli ARGV`` would.
This file imports only what that command imports before the CLI runs.
"""

import sys
import time

import swcohom
import swcohom.cli
from swcohom.reduction import ReductionProblem
from swcohom.series import TruncatedSeries

_clock = time.perf_counter_ns
_FUNCTION = type(lambda: None)

# time covered by child spans under each open span; the first is the root
_covered = [0]
totals = {}      # span name -> [calls, total_ns, self_ns]
counters = {}


def _count(key, amount=1):
    counters[key] = counters.get(key, 0) + amount


def _name(fn) -> str:
    return f"{fn.__module__.removeprefix('swcohom.')}.{fn.__qualname__}"


def _span(name, fn, after=None):
    def wrapper(*args, **kwargs):
        _covered.append(0)
        start = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = _clock() - start
            own = duration - _covered.pop()
            _covered[-1] += duration
            entry = totals.setdefault(name, [0, 0, 0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += own
        if after is not None:
            after(args, result, duration)
        return result
    return wrapper


def _after_enumerate(args, vectors, duration):
    _count("lattices.enumerate_coset_by_norm.hits", bool(vectors))
    _count("lattices.enumerate_coset_by_norm.vectors", len(vectors))


def _after_brouwer(args, degree, duration):
    _count(f"degree.brouwer_degree.dim{args[1]}.total_ns", duration)


def _wrap_brouwer(fn):
    spanned = _span(_name(fn), fn, _after_brouwer)

    def brouwer_degree(g, dim, radius):
        def evaluate(args, image, duration):
            _count(f"degree.boundary_evals.dim{dim}")
        return spanned(_span(_name(g), g, evaluate), dim, radius)
    return brouwer_degree


_SPECIAL = {
    "swcohom.lattices.enumerate_coset_by_norm":
        lambda fn: _span(_name(fn), fn, _after_enumerate),
    "swcohom.degree.brouwer_degree": _wrap_brouwer,
}


def install():
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and name.split(".")[0] == "swcohom"]
    wrappers = {}
    for module in modules:
        for attr in getattr(module, "__all__", ()):
            fn = getattr(module, attr)
            if type(fn) is _FUNCTION and fn.__module__ == module.__name__:
                wrap = _SPECIAL.get(f"{fn.__module__}.{fn.__name__}")
                wrappers[id(fn)] = (fn, wrap(fn) if wrap else _span(_name(fn), fn))
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers and wrappers[id(value)][0] is value:
                setattr(module, attr, wrappers[id(value)][1])
    mul = _span("series.TruncatedSeries.__mul__", TruncatedSeries.__mul__)
    TruncatedSeries.__mul__ = TruncatedSeries.__rmul__ = mul
    ReductionProblem.f = _span("reduction.ReductionProblem.f", ReductionProblem.f)


def main():
    out, job_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    install()
    try:
        status = swcohom.cli.main(argv)
    finally:
        import json
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"job": job_id, "spans": totals, "counters": counters}, fh)
    sys.exit(status)


if __name__ == "__main__":
    main()
