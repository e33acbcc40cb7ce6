"""Command-line front end.

One executable, eight subcommands, JSON reports on standard output.
Every report carries a versioned "schema" field; rationals travel as
"num/den" strings; nothing is ever parsed as a float.  Errors go to
standard error as structured JSON with a machine-readable code, and the
exit status distinguishes domain errors (1) from I/O and parse errors
(2); a report that cannot be written is an I/O error.  Output is
deterministic: identical inputs give identical bytes.
"""

import atexit
import os
import sys
from types import SimpleNamespace

__all__ = ["main"]


class CLIError(Exception):
    """Carries the exit status and a machine-readable error code."""

    def __init__(self, status, code, message):
        super().__init__(message)
        self.status = status
        self.code = code


def _domain(message):
    return CLIError(1, "domain", message)


# an input file holds at most this many characters; it bounds the work of
# the reader, and -I_64, the largest form lattices.MAX_RANK admits, takes
# about 12.5 thousand
MAX_INPUT_CHARS = 1 << 20


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read(MAX_INPUT_CHARS + 1)
        if len(text) > MAX_INPUT_CHARS:
            raise _domain(f"input budget exceeded: {path} is longer than "
                          f"{MAX_INPUT_CHARS} characters")
        return _loads(text)
    except OSError as exc:
        raise CLIError(2, "io", f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # a file that is not UTF-8, a text off the JSON grammar, an integer
        # longer than Python converts from a string, or nesting deeper than
        # the reader recurses
        raise CLIError(2, "parse", f"malformed JSON in {path}: {exc}") from exc


def _decode(path, from_json, what):
    doc = _load_json(path)
    # from_json checks every rule of the format; a refusal is a parse
    # error, and so is a document nested so deep, just under what the
    # reader takes, that the repr in a refusal's message runs out of stack
    try:
        return from_json(doc)
    except (TypeError, ValueError, RecursionError) as exc:
        raise CLIError(2, "parse", f"bad {what}: {exc}") from exc


def _rational_option(name, flag, text):
    # a rational option reaches its handler as a string and is parsed
    # there into a (numerator, denominator) pair, so that no subcommand
    # imports fractions to read one; the error names the subcommand, as
    # an integer option's does, and keeps the reason parse_rational gives
    from .rational import _parse_pair
    try:
        return _parse_pair(text)
    except ValueError as exc:
        raise CLIError(2, "parse", f"{name}: bad {flag}: {exc}") from exc


# -- subcommand handlers ----------------------------------------------------
#
# Each handler takes the parsed arguments and imports the layer it runs,
# so that a process loads only what its subcommand needs.


def _run_index(args):
    from .fourmanifold import dirac_index_d
    d = dirac_index_d(args.c2, args.sigma)
    return {
        "schema": "swcohom/index/1",
        "c_squared": args.c2,
        "signature": args.sigma,
        "d": d,
    }


def _run_dim(args):
    from .fourmanifold import dirac_index_d, expected_moduli_dimension
    if args.d is not None and (args.c2, args.sigma) != (None, None):
        # --c2 and --sigma determine d as well, and may contradict --d
        raise CLIError(2, "parse",
                       "give either --d or --c2 and --sigma, not both")
    if args.d is not None:
        d = args.d
    elif args.c2 is not None and args.sigma is not None:
        d = dirac_index_d(args.c2, args.sigma)
    else:
        raise _domain("need either --d or both --c2 and --sigma")
    k = expected_moduli_dimension(d, args.bplus)
    return {
        "schema": "swcohom/dim/1",
        "d": d,
        "b_plus": args.bplus,
        "k": k,
    }


def _bound_row(r):
    from .rational import _format_pair
    return {
        "d": r.d,
        "k": r.k,
        "p": r.p,
        "kappa": r.kappa,
        "a_coeffs": [_format_pair(num, den) for num, den in r.a_coeffs],
        "denominators": list(r.denominators),
        "lower_bound": r.lower_bound,
        "lemma_cokernel_order": r.lemma_cokernel_order,
        "sharp": r.sharp,
    }


def _run_bound(args):
    from .divisibility import sw_divisibility_lower_bound
    r = sw_divisibility_lower_bound(args.d, args.k)
    out = {"schema": "swcohom/bound/1"}
    out.update(_bound_row(r))
    return out


def _run_hurewicz(args):
    from .divisibility import hurewicz_cokernel_order, hurewicz_kernel_order
    d = args.d
    ks = [args.k] if args.k is not None else [0, 1, 2, 3, 4]
    orders = []
    for k in ks:
        kernel = hurewicz_kernel_order(d, k)
        cokernel = None
        if k % 2 == 0 and not (k == 4 and d <= 2):
            cokernel = hurewicz_cokernel_order(d, k)
        orders.append({"k": k, "kernel": kernel, "cokernel": cokernel})
    return {"schema": "swcohom/hurewicz/1", "d": d, "orders": orders}


def _run_sharpscan(args):
    from .divisibility import sharpness_scan
    rows = sharpness_scan(args.dmin, args.dmax)
    if args.k is not None:
        rows = [r for r in rows if r.k == args.k]
    return {
        "schema": "swcohom/sharpscan/1",
        "d_min": args.dmin,
        "d_max": args.dmax,
        "rows": [_bound_row(r) for r in rows],
    }


def _run_lattice(args):
    from .fourmanifold import donaldson_k
    from .lattices import GramMatrix, _decide
    g = _decode(args.gram, GramMatrix.from_json, "Gram matrix")
    # one elimination gives both the failure and the verdict
    failure, verdict = _decide(g)
    out = {
        "schema": "swcohom/lattice/1",
        "rank": g.n,
        "valid": failure is None,
        "failure": failure,
        "min_characteristic_norm": None,
        "admissible": None,
        "witness": None,
        "k": None,
        "diagonal_witness": None,
    }
    if verdict is None:
        return out
    out["min_characteristic_norm"] = verdict.min_norm
    out["admissible"] = verdict.admissible
    if verdict.witness is not None:
        out["witness"] = verdict.witness.to_json()
    out["k"] = donaldson_k(-verdict.min_norm, g.n).k
    # a form is admissible exactly when it is diagonal (Elkies), and its
    # verdict carries the norm -1 shell that shows it
    if verdict.admissible and g.n <= 8:
        out["diagonal_witness"] = [b.to_json() for b in verdict.basis]
    return out


def _run_reduce(args):
    from .rational import _format_pair
    from .reduction import (
        ReductionProblem,
        choose_reduction_subspace,
        reduce_and_degree,
    )
    epsilon = _rational_option("reduce", "--epsilon", args.epsilon)
    if args.samples < 1:
        raise CLIError(2, "parse",
                       f"bad --samples: need at least 1, got {args.samples}")
    p = _decode(args.problem, ReductionProblem.from_json, "reduction problem")
    v_basis = choose_reduction_subspace(p, epsilon, args.samples)
    report = reduce_and_degree(p, v_basis)
    miss = report.miss
    return {
        "schema": "swcohom/reduce/1",
        "domain_dim": p.domain_dim,
        "target_dim": p.target_dim,
        "index": p.index(),
        "epsilon": _format_pair(*epsilon),
        "reduced_dim": report.reduced_dim,
        "subspace_V": [
            [_format_pair(*x) for x in v] for v in report.subspace_V
        ],
        "miss": {
            "ok": miss.ok,
            "worst_distance_squared": _format_pair(
                *miss.worst_distance_squared),
            "samples_checked": miss.samples_checked,
        },
        "degree": report.degree,
    }


def _run_chamber(args):
    from .chamber import _signed_count, make_path, wall_crossing_jump
    from .rational import _format_pair
    angles = [_rational_option("chamber", "--angles", part)
              for part in args.angles.split(",")]
    path = make_path(args.n)
    counts = []
    for alpha in angles:
        chamber, count = _signed_count(path, alpha)
        counts.append({
            "point_angle": _format_pair(*alpha),
            "chamber": chamber,
            "signed_count": count,
        })
    return {
        "schema": "swcohom/chamber/1",
        "n": args.n,
        "counts": counts,
        "jump": wall_crossing_jump(path),
    }


# -- reading ----------------------------------------------------------------
#
# lattice and reduce read one JSON document each.  The reader takes the
# texts json.loads takes and gives equal values, NaN, the infinities and
# the digit limit of integer text included, with json's error messages,
# so that no job imports json.  It reads character by character: json's
# C scanner raises its errors through json.decoder (SystemError while that
# is not loaded), and compiling one regular expression costs about as
# much as importing json.  A nested array or object is one level of
# Python recursion, so nesting past the recursion limit raises
# RecursionError.

_WHITESPACE = " \t\n\r"
# the word a value starting with the key is read as, or, for "-", a number
_WORDS = {"n": ("null", None), "t": ("true", True), "f": ("false", False),
          "N": ("NaN", float("nan")), "I": ("Infinity", float("inf")),
          "-": ("-Infinity", float("-inf"))}
_UNESCAPE = {'"': '"', "\\": "\\", "/": "/", "b": "\b", "f": "\f",
             "n": "\n", "r": "\r", "t": "\t"}
_HEX = frozenset("0123456789abcdefABCDEF")


def _malformed(message, text, pos):
    # json.JSONDecodeError's text, as a ValueError
    line = text.count("\n", 0, pos) + 1
    column = pos - text.rfind("\n", 0, pos)
    return ValueError(f"{message}: line {line} column {column} (char {pos})")


def _skip(text, i):
    # the first index at or after i that is not JSON whitespace
    n = len(text)
    while i < n and text[i] in _WHITESPACE:
        i += 1
    return i


def _hex4(text, i, at):
    # the four hex digits at text[i:i + 4]; json reports a bad one at ``at``
    digits = text[i:i + 4]
    if not _HEX.issuperset(digits):
        raise _malformed("Invalid \\uXXXX escape", text, at)
    return int(digits, 16)


def _read_string(text, i):
    """(string, end) for the string whose opening quote is text[i - 1]."""
    begin, n = i - 1, len(text)
    chunks = []
    # the next quote and backslash at or after i, n for none; each is
    # looked for again only once i has passed it
    quote = backslash = begin
    while True:
        if quote < i:
            quote = text.find('"', i)
            quote = n if quote < 0 else quote
        if backslash < i:
            backslash = text.find("\\", i)
            backslash = n if backslash < 0 else backslash
        stop = min(quote, backslash)
        chunk = text[i:stop]
        if not chunk.isprintable() and min(chunk) < " ":
            for j, c in enumerate(chunk, i):
                if c < " ":
                    raise _malformed("Invalid control character at", text, j)
        chunks.append(chunk)
        if quote < backslash:
            return "".join(chunks), quote + 1
        if stop + 1 >= n:
            raise _malformed("Unterminated string starting at", text, begin)
        c = text[stop + 1]
        if c != "u":
            if c not in _UNESCAPE:
                raise _malformed("Invalid \\escape", text, stop)
            chunks.append(_UNESCAPE[c])
            i = stop + 2
            continue
        # \uXXXX, and a high surrogate joins a low one escaped right after
        i = stop + 6
        if i >= n:
            raise _malformed("Invalid \\uXXXX escape", text, stop + 1)
        code = _hex4(text, stop + 2, stop + 1)
        if 0xD800 <= code <= 0xDBFF and i + 6 < n and text[i:i + 2] == "\\u":
            low = _hex4(text, i + 2, i + 1)
            if 0xDC00 <= low <= 0xDFFF:
                code = 0x10000 + ((code - 0xD800) << 10 | low - 0xDC00)
                i += 6
        chunks.append(chr(code))


def _read_value(text, i):
    """(value, end) for the value that starts at text[i]."""
    c = text[i:i + 1]
    if c == '"':
        return _read_string(text, i + 1)
    if c == "[" or c == "{":
        close = "]" if c == "[" else "}"
        items = [] if c == "[" else {}
        i = _skip(text, i + 1)
        if text[i:i + 1] == close:
            return items, i + 1
        while True:
            if c == "[":
                value, i = _read_value(text, i)
                items.append(value)
            else:
                if text[i:i + 1] != '"':
                    raise _malformed("Expecting property name enclosed in "
                                     "double quotes", text, i)
                key, i = _read_string(text, i + 1)
                i = _skip(text, i)
                if text[i:i + 1] != ":":
                    raise _malformed("Expecting ':' delimiter", text, i)
                # a repeated key keeps its first place and its last value
                items[key], i = _read_value(text, _skip(text, i + 1))
            i = _skip(text, i)
            if text[i:i + 1] == close:
                return items, i + 1
            if text[i:i + 1] != ",":
                raise _malformed("Expecting ',' delimiter", text, i)
            i = _skip(text, i + 1)
    if c in _WORDS:
        word, value = _WORDS[c]
        if text.startswith(word, i):
            return value, i + len(word)
    # a number: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][-+]?[0-9]+)?
    n = len(text)
    j = i + (c == "-")
    if j < n and "1" <= text[j] <= "9":
        j += 1
        while j < n and "0" <= text[j] <= "9":
            j += 1
    elif text[j:j + 1] == "0":
        j += 1
    else:
        raise _malformed("Expecting value", text, i)
    is_float = False
    if text[j:j + 1] == "." and "0" <= text[j + 1:j + 2] <= "9":
        is_float = True
        j += 2
        while j < n and "0" <= text[j] <= "9":
            j += 1
    if text[j:j + 1] in ("e", "E"):
        k = j + 1
        if text[k:k + 1] in ("-", "+"):
            k += 1
        digits = k
        while k < n and "0" <= text[k] <= "9":
            k += 1
        if k > digits:
            is_float = True
            j = k
    # int() refuses more digits than Python converts, as json does
    return (float if is_float else int)(text[i:j]), j


def _loads(text):
    """The value of json.loads(text), for a str ``text``; a malformed text
    raises ValueError with json's message."""
    if text.startswith("\ufeff"):
        raise _malformed("Unexpected UTF-8 BOM (decode using utf-8-sig)",
                         text, 0)
    value, i = _read_value(text, _skip(text, 0))
    i = _skip(text, i)
    if i != len(text):
        raise _malformed("Extra data", text, i)
    return value


# -- rendering --------------------------------------------------------------
#
# Reports and error documents hold dict, list, str, int, bool and None,
# and the writer takes exactly these: it gives the text of
# json.dumps(value, indent=2) or json.dumps(value), so that a job that
# reads no JSON never imports json.

# the escapes of json's ensure_ascii; every other character outside
# " ".."~" becomes \uXXXX, and one outside the BMP a surrogate pair
_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t",
            "\b": "\\b", "\f": "\\f"}


def _escape(c):
    if c in _ESCAPES:
        return _ESCAPES[c]
    if " " <= c <= "~":
        return c
    n = ord(c)
    if n > 0xFFFF:
        n -= 0x10000
        return f"\\u{0xD800 | n >> 10:04x}\\u{0xDC00 | n & 0x3FF:04x}"
    return f"\\u{n:04x}"


def _string(s):
    # on an ASCII string isprintable() holds for " ".."~" only
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return f'"{s}"'
    return '"' + "".join(map(_escape, s)) + '"'


def _encode(value, nl):
    # nl is None on one line, else a newline and the indent of the line
    # that value starts on
    kind = type(value)
    if kind is str:
        return _string(value)
    if kind is int:
        # past 4300 digits str() raises ValueError, a domain error
        return str(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if kind is list:
        if not value:
            return "[]"
        inner = None if nl is None else nl + "  "
        items = [_encode(v, inner) for v in value]
        brackets = "[]"
    elif kind is dict:
        if not value:
            return "{}"
        inner = None if nl is None else nl + "  "
        items = []
        for key, v in value.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(f"{_string(key)}: {_encode(v, inner)}")
        brackets = "{}"
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if nl is None:
        return brackets[0] + ", ".join(items) + brackets[1]
    return brackets[0] + inner + ("," + inner).join(items) + nl + brackets[1]


def _dumps(value, indent=False):
    """The text of json.dumps(value, indent=2) when ``indent``, else of
    json.dumps(value).  Anything but the six kinds above raises
    TypeError, floats, tuples and non-str keys included, which json.dumps
    would write."""
    return _encode(value, "\n" if indent else None)


def _render_table(report):
    """Flat keys as `key value` lines; list-of-dict fields as aligned rows."""
    lines = []
    tables = []
    for key, value in report.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            tables.append((key, value))
        elif isinstance(value, dict):
            for k2, v2 in value.items():
                lines.append(f"{key}.{k2} {_cell(v2)}")
        else:
            lines.append(f"{key} {_cell(value)}")
    for key, rows in tables:
        lines.append(f"[{key}]")
        cols = list(rows[0].keys())
        grid = [cols] + [[_cell(r[c]) for c in cols] for r in rows]
        widths = [max(len(row[i]) for row in grid) for i in range(len(cols))]
        for row in grid:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def _cell(value):
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        sep = "; " if any(isinstance(v, list) for v in value) else ","
        return sep.join(_cell(v) for v in value)
    return str(value)


# -- command line -----------------------------------------------------------
#
# One table gives both the parser and the usage text.  A subcommand maps
# to (handler, help line, options), and an option to (kind, required,
# default).  The kind is int, a tuple of the integers allowed, or, for an
# option kept as a string, the word the usage shows for its value.

_COMMANDS = {
    "index": (_run_index, "Dirac index d = (c^2 - sigma)/8", {
        "--c2": (int, True, None),
        "--sigma": (int, True, None),
    }),
    "dim": (_run_dim, "expected moduli dimension 2d - b+ - 1", {
        "--d": (int, False, None),
        "--c2": (int, False, None),
        "--sigma": (int, False, None),
        "--bplus": (int, True, None),
    }),
    "bound": (_run_bound, "divisibility lower bound for m(d, k)", {
        "--d": (int, True, None),
        "--k": (int, True, None),
    }),
    "hurewicz": (_run_hurewicz, "kernel/cokernel orders near the bottom cell", {
        "--d": (int, True, None),
        "--k": (int, False, None),
    }),
    "sharpscan": (_run_sharpscan, "bound vs cokernel order over a d range", {
        "--dmin": (int, True, None),
        "--dmax": (int, True, None),
        "--k": ((2, 4), False, None),
    }),
    "lattice": (_run_lattice, "validate a Gram matrix and test admissibility", {
        "--gram": ("FILE", True, None),
    }),
    "reduce": (_run_reduce, "finite-dimensional reduction and degree", {
        "--problem": ("FILE", True, None),
        "--epsilon": ("RATIONAL", False, "1/4"),
        "--samples": (int, False, 128),
    }),
    "chamber": (_run_chamber, "signed counts and the wall-crossing jump", {
        "--n": (int, True, None),
        # comma-separated rationals, in units of pi
        "--angles": ("RATIONAL,...", True, None),
    }),
}
_FORMATS = ("json", "table")
_HELP = ("-h", "--help")


def _synopsis(options):
    words = []
    for flag, (kind, required, _) in options.items():
        if kind is int:
            kind = "INT"
        elif isinstance(kind, tuple):
            kind = "|".join(map(str, kind))
        words.append(f"{flag} {kind}" if required else f"[{flag} {kind}]")
    return " ".join(words)


def _usage(name=None):
    """Usage of one subcommand, or of all of them when ``name`` is None."""
    head = f"usage: swcohom [--format {'|'.join(_FORMATS)}]"
    if name is not None:
        _, line, options = _COMMANDS[name]
        return f"{head} {name} {_synopsis(options)}\n\n{line}"
    lines = [f"{head} SUBCOMMAND [--option VALUE]...", "",
             "exact divisibility bounds, definite lattices, "
             "finite-dimensional degree reductions", "", "subcommands:"]
    for sub, (_, line, options) in _COMMANDS.items():
        lines += [f"  {sub:<10} {line}", f"  {'':<10} {_synopsis(options)}"]
    lines += ["", "Options take their full names, each at most once, as "
              "--option VALUE pairs;", "-h or --help after a subcommand "
              "shows its usage."]
    return "\n".join(lines)


def _option_value(name, flag, kind, text):
    if isinstance(kind, str):
        return text
    from .rational import _integer
    try:
        value = _integer(text)
    except ValueError as exc:
        raise CLIError(2, "parse", f"{name}: bad {flag}: {exc}") from exc
    if value is None:
        raise CLIError(2, "parse",
                       f"{name}: bad {flag}: not an integer: {text!r}")
    if isinstance(kind, tuple) and value not in kind:
        raise CLIError(2, "parse", f"{name}: bad {flag}: {value} is not one "
                       f"of {', '.join(map(str, kind))}")
    return value


def _parse(argv):
    """(subcommand, format, args) from
    ``[--format json|table] SUBCOMMAND (--option value)...``.

    The token after a flag is its value, whatever it looks like, so
    ``--d -3`` reads -3.  args is None when the line asks for help; the
    subcommand is then None for the usage of all of them.
    """
    tokens = iter(argv)
    fmt = None
    for token in tokens:
        if token in _HELP:
            return None, fmt, None
        if token != "--format":
            name = token
            break
        if fmt is not None:
            raise CLIError(2, "parse", "--format given twice")
        fmt = next(tokens, None)
        if fmt is None:
            raise CLIError(2, "parse", "--format needs a value")
        if fmt not in _FORMATS:
            raise CLIError(2, "parse", f"bad --format: {fmt!r} is not one of "
                           f"{', '.join(_FORMATS)}")
    else:
        raise CLIError(2, "parse", "missing subcommand, one of "
                       f"{', '.join(_COMMANDS)}")
    if name not in _COMMANDS:
        raise CLIError(2, "parse", f"unknown subcommand {name!r}, not one of "
                       f"{', '.join(_COMMANDS)}")
    options = _COMMANDS[name][2]
    values = {}
    for flag in tokens:
        if flag in _HELP:
            return name, fmt, None
        if flag not in options:
            raise CLIError(2, "parse", f"{name}: unknown option {flag!r}, not "
                           f"one of {', '.join(options)}")
        if flag in values:
            raise CLIError(2, "parse", f"{name}: {flag} given twice")
        text = next(tokens, None)
        if text is None:
            raise CLIError(2, "parse", f"{name}: {flag} needs a value")
        values[flag] = _option_value(name, flag, options[flag][0], text)
    missing = [flag for flag, (_, required, _) in options.items()
               if required and flag not in values]
    if missing:
        raise CLIError(2, "parse", f"{name}: missing {', '.join(missing)}")
    args = SimpleNamespace(**{flag[2:]: values.get(flag, default)
                              for flag, (_, _, default) in options.items()})
    return name, fmt or "json", args


def _write(text):
    """Print ``text`` on standard output and flush it; a write that fails
    there, to a full device or a closed pipe, is an io error."""
    try:
        print(text)
        sys.stdout.flush()
    except OSError as exc:
        raise CLIError(2, "io",
                       f"cannot write to standard output: {exc}") from exc


def main(argv=None) -> int:
    try:
        name, fmt, args = _parse(sys.argv[1:] if argv is None else argv)
        if args is None:
            _write(_usage(name))
            return 0
        try:
            report = _COMMANDS[name][0](args)
        except (ArithmeticError, ValueError) as exc:
            raise _domain(str(exc)) from exc
        try:
            text = (_render_table(report) if fmt == "table"
                    else _dumps(report, indent=True))
        except ValueError as exc:
            # only str() of an int past the interpreter's limit raises here;
            # a lattice whose diagonal witness has such a coordinate does
            raise _domain(f"{name}: a report integer is longer than the "
                          f"{sys.get_int_max_str_digits()}-digit limit of "
                          "integer text") from exc
        _write(text)
    except CLIError as exc:
        doc = {
            "schema": "swcohom/error/1",
            "error": {"code": exc.code, "message": str(exc)},
        }
        print(_dumps(doc), file=sys.stderr)
        return exc.status
    return 0


def _process_main():
    """Run main() as the whole of a process, the console script or
    ``python -m swcohom.cli``, and end it without returning: the atexit
    handlers run, both streams are flushed, and ``os._exit`` passes main's
    status, skipping finalization (module teardown, deallocation and the
    collections at shutdown)."""
    status = main()
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
    except OSError:
        # main has already reported a report it could not write as an io
        # error, and what the buffer still holds meets the same fault
        pass
    sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    _process_main()
