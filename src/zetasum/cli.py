"""Command-line front end.

Subcommands
    eval            evaluate zeta(s) with a certified tail bound
    identity-check  residual of the product-equals-one-plus-sum identity
    converge        one row per truncation step, for convergence curves
    exclusion       singular lattice on the imaginary axis, optionally side
                    by side with the odd-multiple fixture grid
    oracle-compare  brute-force cross-checks of products, sums, partitions

Reports are CSV (default), JSON, or an aligned human table, written to
stdout or --output.  Identical invocations produce byte-identical reports;
eval's elapsed_ns column stays 0 unless its --timing is given.  A --config
file stands for flags of its command, parsed before the explicit ones.
Exit codes: 0 success, 1 computational rejection (singular point,
non-convergent request, overflow, or a tolerance the certificate refuses as
unreachable), 2 usage error (including a tolerance that is not finite and
> 0, and a --i or --N past the sieve limits).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

from . import kernel, methods, oracle, primes
from .kernel import DEFAULT_SINGULAR_TOL, PowerOverflowError, SingularPointError
from .methods import METHODS, METHOD_REFORMULATED, NonConvergentError, TruncationSpec

FORMATS = ("csv", "json", "human")

_NEAR_BOUNDARY = 1.01


# ----------------------------------------------------------------------
# value parsing

def parse_complex_literal(text: str) -> complex:
    """Single-token complex literal: 2, -1.5, 3i, or a+bi / a-bi (no spaces)."""
    token = text.strip()
    try:
        if not token.endswith("i"):
            return complex(float(token), 0.0)
        body = token[:-1]
        for idx in range(len(body) - 1, 0, -1):
            if body[idx] in "+-" and body[idx - 1] not in "eE":
                return complex(float(body[:idx]), float(body[idx:]))
        return complex(0.0, float(body))
    except ValueError:
        raise ValueError(
            f"invalid complex literal {text!r} (expected forms: 2, -1.5, 3i, a+bi)"
        ) from None


def parse_k_range(text: str) -> range:
    """Inclusive integer interval written a..b, e.g. -2..2."""
    try:
        a_str, b_str = text.split("..", 1)
        a, b = int(a_str), int(b_str)
    except ValueError:
        raise ValueError(f"invalid k-range {text!r} (expected a..b)") from None
    if a > b:
        raise ValueError(f"invalid k-range {text!r}: start exceeds end")
    return range(a, b + 1)


def _validate_tolerance(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"invalid tolerance {text!r}") from None


def _validate_positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"invalid integer {text!r}") from None
    if value < 1:
        raise ValueError(f"expected a positive integer, got {text}")
    return value


def _validate_method(text: str) -> str:
    if text not in METHODS:
        raise ValueError(f"unknown method {text!r}; choose from {', '.join(METHODS)}")
    return text


def _validate_method_list(text: str) -> list[str]:
    names = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not names:
        raise ValueError("empty method list")
    return [_validate_method(name) for name in names]


def _validate_format(text: str) -> str:
    if text not in FORMATS:
        raise ValueError(f"unknown format {text!r}; choose from {', '.join(FORMATS)}")
    return text


def _argtype(converter):
    def wrapped(text):
        try:
            return converter(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return wrapped


# ----------------------------------------------------------------------
# parsing

_SWITCH_VALUES = {"1": True, "true": True, "yes": True, "on": True,
                  "0": False, "false": False, "no": False, "off": False}


def _file_flags(path: str, args: argparse.Namespace) -> list[str]:
    """The flags of `args.command` that a config file stands for.

    Each `key=value` line gives `--key=value`, and a key must be one of the
    command's own flags other than --config.  `s=` may list points separated
    by commas and is dropped when --s is given; a switch takes a boolean, and
    a true one gives the bare switch.
    """
    # Every flag of the command sets its dest in the parsed namespace, and a
    # switch's dest holds a bool.
    keys = {dest.replace("_", "-"): dest for dest in vars(args) if dest not in ("command", "config")}
    flags = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = (part.strip() for part in line.partition("="))
            where = f"{path}:{lineno}"
            if not eq:
                raise ValueError(f"{where}: expected key=value, got {line!r}")
            if key not in keys:
                raise ValueError(f"{where}: unknown key {key!r}; "
                                 f"{args.command} takes {', '.join(keys)}")
            if isinstance(getattr(args, keys[key]), bool):
                if value.lower() not in _SWITCH_VALUES:
                    raise ValueError(f"{where}: invalid boolean {value!r} for {key}")
                if _SWITCH_VALUES[value.lower()]:
                    flags.append(f"--{key}")
            elif key != "s":
                flags.append(f"--{key}={value}")
            elif args.s is None:
                flags += [f"--s={piece.strip()}" for piece in value.split(",") if piece.strip()]
    return flags


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetasum",
        description="Evaluate and cross-check zeta(s) for Re(s) > 1 via primes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None, metavar="PATH",
                       help="flat key=value file mirroring the flags; explicit flags win")
        p.add_argument("--format", type=_argtype(_validate_format), default="csv",
                       help="report format: csv (default), json, or human")
        p.add_argument("--output", "-o", default=None, metavar="PATH",
                       help="write the report here instead of stdout")

    def add_s(p: argparse.ArgumentParser, help_text: str) -> None:
        p.add_argument("--s", action="append", type=_argtype(parse_complex_literal),
                       default=None, metavar="A+Bi", help=help_text)

    p_eval = sub.add_parser("eval", help="evaluate zeta(s) with a certified tail bound")
    add_s(p_eval, "evaluation point with Re(s) > 1 (repeatable)")
    p_eval.add_argument("--method", type=_argtype(_validate_method), default=METHOD_REFORMULATED,
                        help="dirichlet, euler_product, or reformulated (default)")
    p_eval.add_argument("--tol", type=_argtype(_validate_tolerance),
                        default=TruncationSpec.tolerance,
                        help="certified tail tolerance (default 1e-6)")
    add_common(p_eval)
    p_eval.add_argument("--timing", action="store_true",
                        help="fill elapsed_ns with real timings (breaks byte-identical output)")

    p_ident = sub.add_parser("identity-check",
                             help="residual of the product-equals-one-plus-sum identity")
    add_s(p_ident, "test point anywhere off the singular lattice (repeatable)")
    p_ident.add_argument("--i", type=_argtype(_validate_positive_int),
                         default=TruncationSpec.prime_index_i,
                         help="number of leading primes in the identity (default 20)")
    add_common(p_ident)

    p_conv = sub.add_parser("converge", help="record every truncation step per method")
    add_s(p_conv, "evaluation point with Re(s) > 1 (repeatable)")
    p_conv.add_argument("--methods", type=_argtype(_validate_method_list), default=list(METHODS),
                        metavar="M1,M2,...",
                        help="comma-separated methods (default all three)")
    p_conv.add_argument("--tol", type=_argtype(_validate_tolerance),
                        default=TruncationSpec.tolerance,
                        help="stop once the certified bound is below this (default 1e-6)")
    add_common(p_conv)

    p_excl = sub.add_parser("exclusion", help="inspect the singular lattice")
    p_excl.add_argument("--i", type=_argtype(_validate_positive_int), default=3,
                        help="use the first i primes (default 3)")
    p_excl.add_argument("--k-range", dest="k_range", type=_argtype(parse_k_range),
                        default=range(-2, 3), metavar="A..B",
                        help="inclusive lattice indices (default -2..2)")
    p_excl.add_argument("--compare", action="store_true",
                        help="also list the odd-multiple fixture points next to each row")
    add_common(p_excl)

    p_oracle = sub.add_parser("oracle-compare", help="run the brute-force cross-checks")
    add_s(p_oracle, "point with Re(s) > 1 (repeatable)")
    p_oracle.add_argument("--i", type=_argtype(_validate_positive_int), default=3,
                          help="prime index for the smooth-number check (default 3)")
    p_oracle.add_argument("--N", type=_argtype(_validate_positive_int),
                          default=TruncationSpec.dirichlet_cutoff_N,
                          help="Dirichlet cutoff for oracles (default 10000)")
    p_oracle.add_argument("--tol", type=_argtype(_validate_tolerance),
                          default=TruncationSpec.tolerance,
                          help="certified tolerance for the tail products (default 1e-6)")
    add_common(p_oracle)

    return parser


# ----------------------------------------------------------------------
# command bodies

def _warn_near_boundary(s_values: list[complex]) -> None:
    for s in s_values:
        if 1.0 < s.real <= _NEAR_BOUNDARY:
            print(
                f"warning: Re(s) = {s.real:g} is barely above 1; certified term "
                "counts explode this close to the boundary",
                file=sys.stderr,
            )


def _run_eval(args: argparse.Namespace, spec: TruncationSpec):
    header = ["s_re", "s_im", "method", "value_re", "value_im",
              "terms_used", "tail_error_bound", "elapsed_ns"]
    _warn_near_boundary(args.s)
    rows = []
    for s in args.s:
        start = time.perf_counter_ns() if args.timing else 0
        result = methods.zeta_eval(s, args.method, spec.tolerance)
        elapsed = time.perf_counter_ns() - start if args.timing else 0
        rows.append([s.real, s.imag, result.method, result.value.real, result.value.imag,
                     result.terms_used, result.tail_error_bound, elapsed])
    return header, rows


def _run_identity_check(args: argparse.Namespace, spec: TruncationSpec):
    header = ["s_re", "s_im", "i", "residual", "product_abs", "relative_residual"]
    rows = []
    i = spec.prime_index_i
    for s in args.s:
        product, total = methods._identity(i, s)
        residual = abs(product - 1.0 - total)
        scale = max(1.0, abs(product))
        rows.append([s.real, s.imag, i, residual, abs(product), residual / scale])
    return header, rows


def _run_converge(args: argparse.Namespace, spec: TruncationSpec):
    header = ["s_re", "s_im", "method", "step", "terms_used",
              "value_re", "value_im", "tail_error_bound"]
    _warn_near_boundary(args.s)
    rows = []
    for s in args.s:
        for method in args.methods:
            trace = methods.convergence_trace(s, method, spec.tolerance)
            for step, result in enumerate(trace):
                rows.append([s.real, s.imag, method, step, result.terms_used,
                             result.value.real, result.value.imag, result.tail_error_bound])
    return header, rows


def _factor_gap(p: int, s: complex) -> float:
    """|1 - p^{-s}|, computed as `methods._blocks` scans it for singular points."""
    return float(abs(1.0 - methods._power_terms([p], s))[0])


def _run_exclusion(args: argparse.Namespace, spec: TruncationSpec):
    header = ["source", "prime", "k", "s_re", "s_im", "factor_gap", "singular"]
    rows = []
    for p in primes.first_primes(spec.prime_index_i).tolist():
        for k in args.k_range:
            point = kernel.singular_point(p, k)
            gap = _factor_gap(p, point)
            rows.append(["definitional", p, k, point.real, point.imag, gap,
                         gap < DEFAULT_SINGULAR_TOL])
            if args.compare:
                fixture = kernel.explicit_exclusion_point(p, k)
                fixture_gap = _factor_gap(p, fixture)
                rows.append(["explicit", p, k, fixture.real, fixture.imag, fixture_gap,
                             fixture_gap < DEFAULT_SINGULAR_TOL])
    return header, rows


def _run_oracle_compare(args: argparse.Namespace, spec: TruncationSpec):
    header = ["s_re", "s_im", "check", "k", "terms", "abs_error", "allowed_error", "status"]
    rows = []
    for s in args.s:
        for check, k, err, allowed in oracle.compare(s, spec):
            rows.append([s.real, s.imag, check, k, spec.dirichlet_cutoff_N, err, allowed,
                         "pass" if err <= allowed else "fail"])
    return header, rows


_EXECUTORS = {
    "eval": _run_eval,
    "identity-check": _run_identity_check,
    "converge": _run_converge,
    "exclusion": _run_exclusion,
    "oracle-compare": _run_oracle_compare,
}


# ----------------------------------------------------------------------
# rendering

def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def render_report(header: list[str], rows: list[list], fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])
        return buf.getvalue()
    if fmt == "json":
        payload = [dict(zip(header, row)) for row in rows]
        return json.dumps(payload, indent=2) + "\n"
    cells = [list(header)] + [[_format_cell(v) for v in row] for row in rows]
    widths = [max(len(line[col]) for line in cells) for col in range(len(header))]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip()
        for line in cells
    ]
    return "\n".join(lines) + "\n"


_LEADING_MINUS_FLAGS = ("--s", "--k-range")


def _merge_negative_values(argv: list[str]) -> list[str]:
    # argparse mistakes values like -2..2 or -1.5-2i for option strings;
    # fold them into --flag=value form before parsing.
    merged = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token in _LEADING_MINUS_FLAGS and i + 1 < len(argv):
            value = argv[i + 1]
            if len(value) > 1 and value[0] == "-" and (value[1].isdigit() or value[1] == "."):
                merged.append(f"{token}={value}")
                i += 2
                continue
        merged.append(token)
        i += 1
    return merged


# Flags that set a TruncationSpec field; a command without one keeps its default.
_SPEC_FLAGS = (("i", "prime_index_i"), ("N", "dirichlet_cutoff_N"), ("tol", "tolerance"))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = _merge_negative_values(list(argv if argv is not None else sys.argv[1:]))
    args = parser.parse_args(argv)
    try:
        if args.config:
            # The file's flags go right after the command, so explicit flags win.
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _file_flags(args.config, args) + argv[at:])
        if args.command != "exclusion" and not args.s:
            raise ValueError("--s is required (repeat the flag for a grid of points)")
        spec = TruncationSpec(**{field: getattr(args, flag)
                                 for flag, field in _SPEC_FLAGS if hasattr(args, flag)})
    except (OSError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        header, rows = _EXECUTORS[args.command](args, spec)
    except (SingularPointError, NonConvergentError, PowerOverflowError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    report = render_report(header, rows, args.format)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8", newline="") as fh:
                fh.write(report)
        except OSError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(report)
    return 0
