"""Batch command-line front end.

Every pipeline is a subcommand consuming JSON (and emitting JSON, or CSV for
matrices and report sequences).  Outputs are static reports embedding the
fully resolved configuration and the library version, so identical config
plus seed yields byte-identical files.

Exit codes: 0 success, 2 usage error, 3 input-data error, 4 numerical error.
A machine-readable error object is printed on stderr on failure.
"""

from __future__ import annotations

import argparse
import ast
import functools
import itertools
import json
import math
import operator
import os
import sys
from json.encoder import c_make_encoder, encode_basestring_ascii

import numpy as np

from . import __version__
from .core import (
    CalculusError,
    CoefficientExpansion,
    InputDataError,
    NumericalError,
    UsageError,
    expansion_inner,
    gauss_hermite,
    json_int,
)
from .hermite import hermite_coefficients, synthesize
from .bargmann import (
    _kernel_rules,
    bargmann_coeff,
    bargmann_integral,
    evaluate_fock,
    fock_inner_quadrature,
)
from .symbols import (
    OperatorMatrix,
    RealSymbol,
    ShubinWeight,
    WickSymbol,
    antiwick_matrix,
    kn_matrix,
    pair_grid,
    real_to_wick_symbol,
    shubin_estimate_check,
    symbol_bound_check,
    weyl_matrix,
    wick_apply_quadrature,
    wick_matrix,
)
from .expansion import decompose, verify_decomposition
from .analysis import classify_decay, garding_check

OUTPUT_DIR_ENV = "WICKOPS_OUTPUT_DIR"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_NUMERICAL = 4


def _load_json(path) -> dict:
    """The JSON object in an input file; every subcommand reads one."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputDataError(f"cannot read input file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputDataError(f"input file {path} is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputDataError(f"invalid JSON in {path}: {exc}") from exc
    except RecursionError as exc:
        raise InputDataError(f"JSON in {path} is nested too deeply to read") from exc
    if not isinstance(data, dict):
        raise InputDataError(f"input in {path} must be a JSON object, got {type(data).__name__}")
    return data


def _resolve_output(path):
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit(payload, args, csv_lines=None):
    """Write the report; payload always carries the resolved config + version.

    JSON reports are the bytes of json.dump(payload, fh, indent=2,
    sort_keys=True) plus a newline, arrays taken as lists (_write_json);
    CSV reports are a version comment and then csv_lines, one per line.
    """
    payload = dict(payload)
    # the output path is where the report goes, not part of what it computes,
    # so it is left out to keep identical configs byte-identical
    payload["config"] = {k: v for k, v in sorted(vars(args).items())
                         if k != "output" and v is not None}
    payload["version"] = __version__
    path = _resolve_output(args.output)
    try:
        with open(path, "w") as fh:
            if args.format == "csv":
                fh.write("# wickops " + __version__ + "\n")
                fh.writelines(line + "\n" for line in csv_lines)
            else:
                _write_json(fh, payload)
    except OSError as exc:
        raise UsageError(f"cannot write output file {path}: {exc}") from exc
    return path


# The stdlib's C encoder runs only without indent.  So _write_json fills each
# piece of up to _PIECE list items into one indented template, with texts the
# C encoder spells in one call: the piece's scalars, split on ", " (a piece
# qualifies only if it holds no string), or a float array's unspelled values.
# Other pieces go item by item; each value is one write, with the `head` text
# before it.  The encoder is built once, as json.JSONEncoder() would build it
# on every call, minus the circular-reference markers: no state is kept.
_c_encoder = c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii,
                            None, ": ", ", ", False, False, True)


def _compact(obj) -> str:
    """json.JSONEncoder().encode(obj), through the one C encoder."""
    return "".join(_c_encoder(obj, 0))


_PIECE = 1024
_SCALARS = (int, float, type(None))
_SPELLINGS = _PIECE  # most texts a float array's memo keeps, so that it streams


def _write_json(fh, obj):
    """Write obj to fh as json.dump(obj, fh, indent=2, sort_keys=True) does,
    then a newline, without holding the whole text.  Dict keys must be str;
    a numpy array is written as its .tolist() would be."""
    _write_value(fh.write, obj, 0)
    fh.write("\n")


def _write_value(write, obj, level, head=""):
    if isinstance(obj, dict):
        _write_dict(write, obj, level, head)
    elif isinstance(obj, (list, tuple)):
        _write_list(write, obj, level, head)
    elif not isinstance(obj, np.ndarray):
        write(head + _compact(obj))
    elif obj.dtype == np.float64 and obj.ndim in (1, 2) and obj.size:
        _write_list(write, obj, level, head)
    else:
        _write_value(write, obj.tolist(), level, head)


def _write_dict(write, obj, level, head):
    if not obj:
        write(head + "{}")
        return
    indent = "\n" + "  " * (level + 1)
    sep = head + "{" + indent
    for key, value in sorted(obj.items()):
        key_head = sep + encode_basestring_ascii(key) + ": "
        if isinstance(value, (str, int, float)):
            write(key_head + _compact(value))
        else:
            _write_value(write, value, level + 1, key_head)
        sep = "," + indent
    write("\n" + "  " * level + "}")


def _write_list(write, items, level, head):
    if len(items) == 0:
        write(head + "[]")
        return
    indent = "\n" + "  " * (level + 1)
    sep = head + "[" + indent
    if isinstance(items, np.ndarray):
        template = _template(items.shape[1] if items.ndim == 2 else None, indent)
        for text in map(("," + indent).join, _float_pieces(items, template)):
            write(sep + text)
            sep = "," + indent
    else:
        for start in range(0, len(items), _PIECE):
            piece = items[start:start + _PIECE]
            text = _filled_piece(piece, indent)
            if text is not None:
                write(sep + text)
                sep = "," + indent
                continue
            for item in piece:
                _write_value(write, item, level + 1, sep)
                sep = "," + indent
    write("\n" + "  " * level + "]")


def _filled_piece(items, indent):
    """The piece as one template filled with its scalars' texts, if its items
    are all scalars, all rows of n scalars or all flat records (same keys,
    each a scalar or a scalar list of fixed length)."""
    first = items[0]
    if type(first) is list and first:
        # one row needs no check beyond the first item's
        if len(items) > 1 and (set(map(type, items)) != {list}
                               or set(map(len, items)) != {len(first)}):
            return None
        layout, scalars = len(first), list(itertools.chain.from_iterable(items))
    elif type(first) is dict and first:
        layout = tuple((key, len(value) if type(value) is list and value else None)
                       for key, value in sorted(first.items()))
        scalars = []
        for item in items:
            if type(item) is not dict or item.keys() != first.keys():
                return None
            for key, n in layout:
                value = item[key]
                if n is None and isinstance(value, _SCALARS):
                    scalars.append(value)
                elif type(value) is list and len(value) == n:
                    scalars += value
                else:
                    return None
    else:
        layout, scalars = None, items
    try:
        text = _compact(scalars)[1:-1]
    except TypeError:  # an array, or a value JSON cannot spell
        return None
    # a string, a list or a non-empty dict among the scalars shows as " or [
    if '"' in text or "[" in text:
        return None
    if layout is None:
        return ("," + indent).join(text.split(", "))
    return ("," + indent).join([_template(layout, indent)] * len(items)) % tuple(text.split(", "))


@functools.lru_cache(maxsize=64)
def _template(layout, indent):
    """A list item's text at `indent`, %s for each scalar and other % doubled;
    the layout is None, n for a row of n, or a record's (key, layout) pairs."""
    if layout is None:
        return "%s"
    inner = indent + "  "
    if isinstance(layout, int):
        return "[" + inner + ("," + inner).join(["%s"] * layout) + indent + "]"
    fields = (encode_basestring_ascii(key).replace("%", "%%") + ": " + _template(n, inner)
              for key, n in layout)
    return "{" + inner + ("," + inner).join(fields) + indent + "}"


def _float_pieces(values, template):
    """The rows' texts (_piece_texts) of each piece of up to _PIECE rows of a
    float64 array, or of its values if 1-d; the pieces share one memo, and a
    piece's other temporaries go when _piece_texts returns."""
    rows = np.ascontiguousarray(values).view(np.uint64).reshape(len(values), -1)
    zero, memo = template % (("0.0",) * rows.shape[1]), {}
    return (_piece_texts(rows[start:start + _PIECE], template, zero, memo)
            for start in range(0, len(rows), _PIECE))


def _piece_texts(piece, template, zero, memo):
    """Texts of rows of float64 bit patterns: zero for a row of zero bits only
    (+0.0; -0.0 has its sign bit set), else template filled with the C
    encoder's texts, spelled in one call for the patterns not in memo.  A
    memo over _SPELLINGS texts is emptied first."""
    live = functools.reduce(np.bitwise_or, piece.T) != 0
    bits = piece[live].ravel().tolist()
    if len(memo) > _SPELLINGS:
        memo.clear()
    missing = list(set(bits).difference(memo))
    memo.update(zip(missing, _compact(
        np.array(missing, dtype=np.uint64).view(np.float64).tolist())[1:-1].split(", ")))
    # the live rows in one fill, joined by ";", which no template or text holds
    filled = ";".join([template] * (len(bits) // piece.shape[1])) % tuple(map(memo.get, bits))
    texts = [zero] * len(piece)
    for i, text in zip(np.flatnonzero(live).tolist(), filled.split(";")):
        texts[i] = text
    return texts


def _matrix_csv(M: OperatorMatrix):
    """CSV lines of a matrix, made a piece at a time: a header, then
    row,col,re,im per entry in C order, up to _PIECE entries' lines to an item."""
    rows, cols = ([f"{i}," for i in range(n)] for n in M.entries.shape)
    heads = itertools.starmap(operator.add, itertools.product(rows, cols))
    yield "row,col,re,im"
    for texts in _float_pieces(M.to_json_dict()["entries"], "%s,%s"):
        yield "\n".join(map(operator.add, itertools.islice(heads, len(texts)), texts))


# The expression grammar: float64 numbers, x0 .. x{d-1}, pi and e, the binary
# operators + - * / **, unary + and -, and one-argument calls of these functions.
_FUNCTIONS = {"exp": np.exp, "sin": np.sin, "cos": np.cos, "sqrt": np.sqrt,
              "abs": np.abs, "cosh": np.cosh, "sinh": np.sinh, "tanh": np.tanh}
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}
_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}


def _evaluate(node, names):
    """Value of a parsed expression; a node outside the grammar raises
    ValueError.  Numbers are float64, so that 9**9**9 overflows to inf
    instead of running as an integer power."""
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return _BINARY[type(node.op)](_evaluate(node.left, names), _evaluate(node.right, names))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        return _UNARY[type(node.op)](_evaluate(node.operand, names))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _FUNCTIONS and len(node.args) == 1 and not node.keywords):
        return _FUNCTIONS[node.func.id](_evaluate(node.args[0], names))
    if isinstance(node, ast.Name) and node.id in names:
        return names[node.id]
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return np.float64(node.value)
    raise ValueError(f"{type(node).__name__} {ast.unparse(node)!r} is outside the "
                     f"expression grammar")


def _expression_callback(expr: str):
    """Turn an expression in x0..x{d-1} into a vectorized callback on (n, d)
    points.

    The text is parsed, never run: _evaluate walks the syntax tree and allows
    only the grammar above.  Anything else, such as an attribute, a
    subscript or another name, is an input-data error.  The names x0.. are
    made from the points, so that none exists before the rule is built.
    """
    def f(points):
        names = {"pi": np.float64(np.pi), "e": np.float64(np.e)}
        names.update((f"x{j}", points[:, j]) for j in range(points.shape[1]))
        try:
            # a value that overflows, divides by zero or is not a number
            # fails here, where the message can name the expression
            with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
                vals = _evaluate(ast.parse(expr, mode="eval").body, names)
        except (SyntaxError, TypeError, ValueError, ArithmeticError, RecursionError) as exc:
            raise InputDataError(f"cannot evaluate expression {expr!r}: {exc}") from exc
        return np.broadcast_to(np.asarray(vals, dtype=complex), (points.shape[0],))

    return f


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_hermite_coeffs(args):
    data = _load_json(args.input)
    try:
        d = json_int(data.get("dimension", 1))
        degree = args.degree if args.degree is not None else json_int(data.get("degree", 8))
    except (TypeError, ValueError) as exc:
        raise InputDataError(f"bad dimension or degree in input JSON: {exc}") from exc
    if d < 1:
        raise InputDataError(f"dimension must be >= 1, got {d}")
    if "expression" in data:
        f = _expression_callback(data["expression"])
    elif "coeffs" in data:
        f = CoefficientExpansion.from_json_dict(data)
    else:
        raise InputDataError("input must contain 'expression' or an expansion with 'coeffs'")
    exp = hermite_coefficients(f, d, degree, args.quad_order)
    return _emit({"result": exp.to_json_dict()}, args)


def cmd_bargmann(args):
    if args.cross_check < 0:
        raise UsageError(f"--cross-check must be >= 0, got {args.cross_check}")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    exp = CoefficientExpansion.from_json_dict(_load_json(args.input))
    if args.cross_check and exp.dimension != 1:
        raise UsageError(f"--cross-check samples the d = 1 kernel integral; the expansion has "
                         f"dimension {exp.dimension}")
    F = bargmann_coeff(exp)
    payload = {"result": F.to_json_dict()}
    if args.cross_check:
        quad_order = args.quad_order if args.quad_order is not None else 60
        _kernel_rules(args.cross_check, 1, quad_order)
        rng = np.random.default_rng(args.seed)
        # (k, 1) points z, drawn as k successive (re, im) pairs
        zs = rng.uniform(-2, 2, size=(args.cross_check, 2)).view(complex)
        # both routes and their agreement test run on the expansion scaled by
        # 2^-e, its largest part then below 1, and the results are scaled back
        # by 2^e: exact, unless a result is past float64's range (refused)
        parts = np.array(list(exp.coeffs.values()), dtype=complex).view(float)
        e = int(np.frexp(np.max(np.abs(parts), initial=0.0))[1])
        unit = CoefficientExpansion(1, exp.side, zip(exp.coeffs, np.ldexp(parts, -e).view(complex)))
        # first, so that its table budget refuses a high degree before evaluate_fock's tables
        via_integral = bargmann_integral(lambda pts: synthesize(unit, pts), zs, quad_order)
        via_coeff = evaluate_fock(bargmann_coeff(unit), zs)
        try:
            payload["cross_check"] = [
                {"z": [z.real, z.imag],
                 "coefficient_route": [math.ldexp(c.real, e), math.ldexp(c.imag, e)],
                 "integral_route": [math.ldexp(i.real, e), math.ldexp(i.imag, e)],
                 "abs_diff": math.ldexp(abs(c - i), e)}
                for z, c, i in zip(zs[:, 0].tolist(), via_coeff.tolist(), via_integral.tolist())]
        except OverflowError as exc:
            raise NumericalError("the cross-check values are past float64's range; scale the "
                                 "expansion down") from exc
    return _emit(payload, args)


def _matrix_command(args, builder, loader):
    M = builder(loader(_load_json(args.input)), args.degree)
    if args.format == "csv":
        return _emit({}, args, csv_lines=_matrix_csv(M))
    return _emit({"result": M.to_json_dict()}, args)


def cmd_wick_matrix(args):
    return _matrix_command(args, wick_matrix, WickSymbol.from_json_dict)


def cmd_antiwick_matrix(args):
    return _matrix_command(args, antiwick_matrix, WickSymbol.from_json_dict)


def cmd_kn_matrix(args):
    return _matrix_command(args, kn_matrix, RealSymbol.from_json_dict)


def cmd_weyl_matrix(args):
    return _matrix_command(args, weyl_matrix, RealSymbol.from_json_dict)


def cmd_to_wick(args):
    b = RealSymbol.from_json_dict(_load_json(args.input))
    a = real_to_wick_symbol(b, args.degree)
    return _emit({"result": a.to_json_dict()}, args)


def cmd_expand_antiwick(args):
    a = WickSymbol.from_json_dict(_load_json(args.input))
    decomp = decompose(a, args.order)
    trunc = args.trunc_degree if args.trunc_degree is not None else max(8, a.total_degree + 2)
    deviation = verify_decomposition(a, decomp, trunc)
    return _emit({"result": decomp.to_json_dict(),
                  "verification": {"trunc_degree": trunc, "max_deviation": deviation}},
                 args)


def cmd_garding(args):
    a = WickSymbol.from_json_dict(_load_json(args.input))
    try:
        truncations = [int(t) for t in args.truncations.split(",")]
    except ValueError as exc:
        raise UsageError(
            f"--truncations must be comma-separated integers, got {args.truncations!r}") from exc
    report = garding_check(a, truncations)
    rows = zip(report.truncation_degrees, report.min_real_eigenvalues, report.max_imag_norms)
    # rendered only if the report is CSV
    lines = itertools.chain(["truncation,min_real_eigenvalue,max_imag_norm"],
                            (",".join(map(str, row)) for row in rows))
    return _emit({"result": report.to_json_dict()}, args, csv_lines=lines)


def cmd_classify(args):
    exp = CoefficientExpansion.from_json_dict(_load_json(args.input))
    fit = classify_decay(exp, args.family)
    return _emit({"result": fit.to_json_dict()}, args)


def cmd_bound_check(args):
    a = WickSymbol.from_json_dict(_load_json(args.input))
    grid = pair_grid(a.dimension, radius=args.grid_radius,
                     points_per_axis=args.grid_points)
    if args.mode == "gs":
        report = symbol_bound_check(a, args.s, args.r, args.direction, grid)
    else:
        weight = ShubinWeight(t=args.weight_t, rho=args.rho)
        report = shubin_estimate_check(a, weight, args.max_order, args.n_decay, grid)
    return _emit({"result": report.to_json_dict()}, args)


# ---------------------------------------------------------------------------
# selftest: the quadrature-vs-closed-form oracle suite
# ---------------------------------------------------------------------------

def _selftest_cases():
    checks = []

    def check(name, dev, tol):
        checks.append((name, float(dev), tol, dev <= tol))

    # Gauss-Hermite moments against the analytic double-factorial formula
    rule = gauss_hermite(12)
    for k in range(0, 23, 2):
        exact = math.sqrt(math.pi) * math.prod(range(1, k, 2)) / 2 ** (k // 2)
        approx = float(np.sum(rule.weights * rule.nodes**k))
        check(f"gauss-hermite moment x^{k}", abs(approx - exact) / max(1.0, exact), 1e-12)

    # Bargmann basis map via the kernel integral
    from .hermite import hermite_function
    for n in range(5):
        z = 0.7 + 0.4j
        got = bargmann_integral(lambda pts, n=n: hermite_function((n,), pts), [z], 60)
        want = z**n / math.sqrt(math.factorial(n))
        check(f"bargmann integral h_{n} -> e_{n}", abs(got - want), 1e-8)

    # Wick and anti-Wick matrices against quadrature of the defining integral
    zs = [0.5 + 0.3j, -0.8 + 0.1j, 0.2 - 0.6j]
    for name, builder, point_symbol, degrees in [("wick matrix z", wick_matrix, False, 4),
                                                 ("anti-wick matrix w", antiwick_matrix, True, 3)]:
        for p, q in itertools.product(range(degrees), repeat=2):
            a = WickSymbol(1, {((p,), (q,)): 1.0}, point_symbol=point_symbol)
            M = builder(a, 6)
            worst = 0.0
            for g in range(0, 7, 3):
                F = CoefficientExpansion(1, "fock", {(g,): 1.0})
                for z in zs:
                    direct = wick_apply_quadrature(a, F, z)
                    closed = evaluate_fock(M.apply(F), z)
                    worst = max(worst, abs(direct - closed))
            check(f"{name}^{p} wbar^{q} vs integral", worst, 1e-8)

    # Fock inner product: coefficient route vs polar quadrature
    rng = np.random.default_rng(7)
    for trial in range(3):
        coeffs = {(k,): complex(*rng.standard_normal(2)) for k in range(6)}
        F = CoefficientExpansion(1, "fock", coeffs)
        coeff_route = expansion_inner(F, F)
        quad_route = fock_inner_quadrature(F, F)
        check(f"fock inner product trial {trial}", abs(coeff_route - quad_route), 1e-8)

    return checks


def cmd_selftest(args):
    checks = _selftest_cases()
    width = max(len(name) for name, *_ in checks)
    for name, dev, tol, ok in checks:
        print(f"{name:<{width}}  {dev:12.3e}  (tol {tol:g})  {'PASS' if ok else 'FAIL'}")
    failed = [c for c in checks if not c[3]]
    print(f"{len(checks) - len(failed)}/{len(checks)} oracle checks passed")
    if args.output:
        _emit({"result": [{"name": n, "deviation": d, "tolerance": t, "passed": ok}
                          for n, d, t, ok in checks]}, args)
    if failed:
        raise NumericalError(f"{len(failed)} selftest oracle checks failed")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _finite_float(text) -> float:
    """argparse type of the float options: a finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"invalid finite float value: {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise UsageError, so that main reports
    them as a JSON error object with exit code 2, like every usage error;
    --help and --version still print and exit."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


@functools.cache
def build_parser():
    """The wickops argument parser, built once per process.  It holds no
    subcommand functions: main dispatches on the command name at call time."""
    parser = _Parser(
        prog="wickops",
        description="Hermite/Bargmann calculus: quantization matrices, the "
                    "Wick-to-anti-Wick expansion, decay classification and "
                    "spectral lower-bound probes.")
    parser.add_argument("--version", action="version", version=__version__)
    parser.set_defaults(format="json")  # every report is JSON unless --format csv is given
    sub = parser.add_subparsers(dest="command", required=True)

    # an option is declared only where it is read, so argparse refuses it elsewhere
    def add(name, help_, csv=False):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--input", required=True, help="input JSON file")
        p.add_argument("--output", required=True, help="output report file")
        if csv:
            p.add_argument("--format", choices=("json", "csv"), default="json")
        return p

    p = add("hermite-coeffs", "expand a sampled function in Hermite functions")
    p.add_argument("--degree", type=int, help="expansion degree bound")
    p.add_argument("--quad-order", type=int)

    p = add("bargmann", "transform a hermite expansion to the Fock side")
    p.add_argument("--cross-check", type=int, default=0,
                   help="compare against the kernel integral at this many random points "
                        "(d = 1 only)")
    p.add_argument("--quad-order", type=int)
    p.add_argument("--seed", type=int, default=0, help="seed of the cross-check points")

    for name, help_ in [
        ("wick-matrix", "matrix of a Wick operator"),
        ("antiwick-matrix", "matrix of an anti-Wick operator"),
        ("kn-matrix", "matrix of a Kohn-Nirenberg quantization"),
        ("weyl-matrix", "matrix of a Weyl quantization"),
    ]:
        p = add(name, help_, csv=True)
        p.add_argument("--degree", type=int, default=8, help="domain degree bound")

    p = add("to-wick", "Wick symbol of a real quantization")
    p.add_argument("--degree", type=int, help="probe degree (default: symbol degree)")

    p = add("expand-antiwick", "Wick-to-anti-Wick decomposition with matrix verification")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--trunc-degree", type=int)

    p = add("garding", "spectral lower-bound probe across truncations", csv=True)
    p.add_argument("--truncations", required=True, help="comma-separated degrees, e.g. 8,16,32")

    p = add("classify", "decay classification of an expansion")
    p.add_argument("--family", choices=("roumieu_s", "flat_sigma"), default="roumieu_s")

    p = add("bound-check", "grid check of symbol-class bounds")
    p.add_argument("--mode", choices=("gs", "shubin"), default="gs")
    p.add_argument("--s", type=_finite_float, default=0.5)
    p.add_argument("--r", type=_finite_float, default=1.0)
    p.add_argument("--direction", choices=("gain", "loss"), default="loss")
    p.add_argument("--weight-t", type=_finite_float, default=2.0)
    p.add_argument("--rho", type=_finite_float, default=1.0)
    p.add_argument("--max-order", type=int, default=1)
    p.add_argument("--n-decay", type=int, default=0)
    p.add_argument("--grid-radius", type=_finite_float, default=4.0)
    p.add_argument("--grid-points", type=int, default=5)

    p = sub.add_parser("selftest", help="run the quadrature-vs-closed-form oracle suite")
    p.add_argument("--output", help="optional JSON report path")

    return parser


# the JSON error kind and exit code of each error class; an error of no other
# kind is reported under its base class
_ERRORS = {UsageError: ("usage", EXIT_USAGE), InputDataError: ("input-data", EXIT_INPUT),
           NumericalError: ("numerical", EXIT_NUMERICAL), CalculusError: ("error", EXIT_NUMERICAL)}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # looked up by name on each call, so a rebinding of cmd_* takes effect
        globals()["cmd_" + args.command.replace("-", "_")](args)
    except CalculusError as exc:
        kind, code = next(_ERRORS[cls] for cls in type(exc).__mro__ if cls in _ERRORS)
        print(json.dumps({"error": {"kind": kind, "message": str(exc)}}), file=sys.stderr)
        return code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
