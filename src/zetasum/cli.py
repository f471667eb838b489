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
the elapsed_ns column stays 0 unless --timing is given.  Exit codes:
0 success, 1 computational rejection (singular point, non-convergent
request, overflow), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field

from . import kernel, methods, oracle, primes
from .kernel import DEFAULT_SINGULAR_TOL, PowerOverflowError, SingularPointError
from .methods import METHODS, METHOD_REFORMULATED, NonConvergentError, TruncationSpec

FORMATS = ("csv", "json", "human")

_NEAR_BOUNDARY = 1.01


# ----------------------------------------------------------------------
# value parsing (shared by flags and config files)

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
        value = float(text)
    except ValueError:
        raise ValueError(f"invalid tolerance {text!r}") from None
    if not (math.isfinite(value) and value >= methods.MIN_SPEC_TOLERANCE):
        raise ValueError(
            f"tolerance {text} is below the supported minimum {methods.MIN_SPEC_TOLERANCE}"
        )
    return value


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


def _validate_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"invalid boolean {text!r}")


def _argtype(converter):
    def wrapped(text):
        try:
            return converter(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return wrapped


# ----------------------------------------------------------------------
# configuration

@dataclass
class RunConfig:
    command: str
    s_values: list[complex] = field(default_factory=list)
    spec: TruncationSpec = field(default_factory=TruncationSpec)
    output_format: str = "csv"
    output_path: str | None = None
    method: str = METHOD_REFORMULATED
    method_list: list[str] = field(default_factory=lambda: list(METHODS))
    k_range: range = range(-2, 3)
    compare: bool = False
    timing: bool = False


# Commands whose prime index defaults below TruncationSpec's.
_PRIME_INDEX_DEFAULTS = {"exclusion": 3, "oracle-compare": 3}


def _load_config_file(path: str) -> dict[str, list[str]]:
    entries: dict[str, list[str]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            entries.setdefault(key.strip(), []).append(value.strip())
    return entries


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    command = args.command
    file_entries = _load_config_file(args.config) if args.config else {}
    defaults = TruncationSpec()

    def pick(key: str, cli_value, convert, fallback):
        if cli_value is not None:
            return cli_value
        if key in file_entries:
            return convert(file_entries[key][-1])
        return fallback

    s_values = getattr(args, "s", None)
    if s_values is None and "s" in file_entries:
        s_values = []
        for raw in file_entries["s"]:
            for piece in raw.split(","):
                piece = piece.strip()
                if piece:
                    s_values.append(parse_complex_literal(piece))
    s_values = s_values or []
    if command != "exclusion" and not s_values:
        raise ValueError("--s is required (repeat the flag for a grid of points)")

    spec = TruncationSpec(
        prime_index_i=pick("i", getattr(args, "i", None), _validate_positive_int,
                           _PRIME_INDEX_DEFAULTS.get(command, defaults.prime_index_i)),
        dirichlet_cutoff_N=pick("N", getattr(args, "N", None), _validate_positive_int,
                                defaults.dirichlet_cutoff_N),
        tolerance=pick("tol", getattr(args, "tol", None), _validate_tolerance,
                       defaults.tolerance),
    )
    return RunConfig(
        command=command,
        s_values=s_values,
        spec=spec,
        output_format=pick("format", args.format, _validate_format, "csv"),
        output_path=pick("output", args.output, str, None),
        method=pick("method", getattr(args, "method", None), _validate_method, METHOD_REFORMULATED),
        method_list=pick(
            "methods", getattr(args, "methods", None), _validate_method_list, list(METHODS)
        ),
        k_range=pick("k-range", getattr(args, "k_range", None), parse_k_range, range(-2, 3)),
        compare=pick("compare", getattr(args, "compare", None), _validate_bool, False),
        timing=pick("timing", args.timing, _validate_bool, False),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetasum",
        description="Evaluate and cross-check zeta(s) for Re(s) > 1 via primes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None, metavar="PATH",
                       help="flat key=value file mirroring the flags; explicit flags win")
        p.add_argument("--format", type=_argtype(_validate_format), default=None,
                       help="report format: csv (default), json, or human")
        p.add_argument("--output", "-o", default=None, metavar="PATH",
                       help="write the report here instead of stdout")
        p.add_argument("--timing", action="store_const", const=True, default=None,
                       help="fill elapsed_ns with real timings (breaks byte-identical output)")

    def add_s(p: argparse.ArgumentParser, help_text: str) -> None:
        p.add_argument("--s", action="append", type=_argtype(parse_complex_literal),
                       default=None, metavar="A+Bi", help=help_text)

    p_eval = sub.add_parser("eval", help="evaluate zeta(s) with a certified tail bound")
    add_s(p_eval, "evaluation point with Re(s) > 1 (repeatable)")
    p_eval.add_argument("--method", type=_argtype(_validate_method), default=None,
                        help="dirichlet, euler_product, or reformulated (default)")
    p_eval.add_argument("--tol", type=_argtype(_validate_tolerance), default=None,
                        help="certified tail tolerance (default 1e-6)")
    add_common(p_eval)

    p_ident = sub.add_parser("identity-check",
                             help="residual of the product-equals-one-plus-sum identity")
    add_s(p_ident, "test point anywhere off the singular lattice (repeatable)")
    p_ident.add_argument("--i", type=_argtype(_validate_positive_int), default=None,
                         help="number of leading primes in the identity (default 20)")
    add_common(p_ident)

    p_conv = sub.add_parser("converge", help="record every truncation step per method")
    add_s(p_conv, "evaluation point with Re(s) > 1 (repeatable)")
    p_conv.add_argument("--methods", type=_argtype(_validate_method_list), default=None,
                        metavar="M1,M2,...",
                        help="comma-separated methods (default all three)")
    p_conv.add_argument("--tol", type=_argtype(_validate_tolerance), default=None,
                        help="stop once the certified bound is below this (default 1e-6)")
    add_common(p_conv)

    p_excl = sub.add_parser("exclusion", help="inspect the singular lattice")
    p_excl.add_argument("--i", type=_argtype(_validate_positive_int), default=None,
                        help="use the first i primes (default 3)")
    p_excl.add_argument("--k-range", dest="k_range", type=_argtype(parse_k_range),
                        default=None, metavar="A..B",
                        help="inclusive lattice indices (default -2..2)")
    p_excl.add_argument("--compare", action="store_const", const=True, default=None,
                        help="also list the odd-multiple fixture points next to each row")
    add_common(p_excl)

    p_oracle = sub.add_parser("oracle-compare", help="run the brute-force cross-checks")
    add_s(p_oracle, "point with Re(s) > 1 (repeatable)")
    p_oracle.add_argument("--i", type=_argtype(_validate_positive_int), default=None,
                          help="prime index for the smooth-number check (default 3)")
    p_oracle.add_argument("--N", type=_argtype(_validate_positive_int), default=None,
                          help="Dirichlet cutoff for oracles (default 10000)")
    p_oracle.add_argument("--tol", type=_argtype(_validate_tolerance), default=None,
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


def _run_eval(config: RunConfig):
    header = ["s_re", "s_im", "method", "value_re", "value_im",
              "terms_used", "tail_error_bound", "elapsed_ns"]
    _warn_near_boundary(config.s_values)
    rows = []
    for s in config.s_values:
        start = time.perf_counter_ns() if config.timing else 0
        result = methods.zeta_eval(s, config.method, config.spec.tolerance)
        elapsed = time.perf_counter_ns() - start if config.timing else 0
        rows.append([s.real, s.imag, result.method, result.value.real, result.value.imag,
                     result.terms_used, result.tail_error_bound, elapsed])
    return header, rows


def _run_identity_check(config: RunConfig):
    header = ["s_re", "s_im", "i", "residual", "product_abs", "relative_residual"]
    rows = []
    i = config.spec.prime_index_i
    for s in config.s_values:
        product, total = methods._identity(i, s)
        residual = abs(product - 1.0 - total)
        scale = max(1.0, abs(product))
        rows.append([s.real, s.imag, i, residual, abs(product), residual / scale])
    return header, rows


def _run_converge(config: RunConfig):
    header = ["s_re", "s_im", "method", "step", "terms_used",
              "value_re", "value_im", "tail_error_bound"]
    _warn_near_boundary(config.s_values)
    rows = []
    for s in config.s_values:
        for method in config.method_list:
            trace = methods.convergence_trace(s, method, config.spec.tolerance)
            for step, result in enumerate(trace):
                rows.append([s.real, s.imag, method, step, result.terms_used,
                             result.value.real, result.value.imag, result.tail_error_bound])
    return header, rows


def _run_exclusion(config: RunConfig):
    header = ["source", "prime", "k", "s_re", "s_im", "factor_gap", "singular"]
    rows = []
    for p in primes.first_primes(config.spec.prime_index_i).tolist():
        for k in config.k_range:
            point = kernel.singular_point(p, k)
            gap = abs(1.0 - kernel.prime_power_term(p, point))
            rows.append(["definitional", p, k, point.real, point.imag, gap,
                         gap < DEFAULT_SINGULAR_TOL])
            if config.compare:
                fixture = kernel.explicit_exclusion_point(p, k)
                fixture_gap = abs(1.0 - kernel.prime_power_term(p, fixture))
                rows.append(["explicit", p, k, fixture.real, fixture.imag, fixture_gap,
                             fixture_gap < DEFAULT_SINGULAR_TOL])
    return header, rows


def _run_oracle_compare(config: RunConfig):
    header = ["s_re", "s_im", "check", "k", "terms", "abs_error", "allowed_error", "status"]
    rows = []
    spec = config.spec
    i, cutoff = spec.prime_index_i, spec.dirichlet_cutoff_N
    for s in config.s_values:
        # Each allowance is truncation plus rounding, from tail_error_bound's model.
        z = complex(s)
        smooth = oracle.smooth_sum_oracle(i, z, cutoff)
        product = methods.euler_partial(i, z)
        zeta = methods._zeta_bounds(z.real)
        dirichlet_tail = cutoff ** (1.0 - z.real) / (z.real - 1.0)
        err = abs(smooth - product)
        allowed = (dirichlet_tail
                   + methods._power_sum_rounding(z, methods._pairwise_depth(cutoff), zeta)
                   + methods._rounding(z, methods.METHOD_EULER_PRODUCT, i, abs(product), zeta))
        rows.append([z.real, z.imag, "smooth_vs_product", i, cutoff, err, allowed,
                     "pass" if err <= allowed else "fail"])

        table = oracle.spf_partition_sum(z, cutoff)
        reference = methods.dirichlet_partial(cutoff, z)
        err = abs(1.0 + table.total() - reference)
        table_rounding = methods._power_sum_rounding(z, table.addition_depth(), zeta)
        allowed = methods._rounding(z, methods.METHOD_DIRICHLET, cutoff, 0.0, zeta) + table_rounding
        rows.append([z.real, z.imag, "partition_identity", 0, cutoff, err, allowed,
                     "pass" if err <= allowed else "fail"])

        for k in range(1, min(5, i) + 1):
            err = oracle.coefficient_crosscheck(k, z, cutoff, spec)
            allowed = spec.tolerance + dirichlet_tail + table_rounding
            rows.append([z.real, z.imag, "coefficient_crosscheck", k, cutoff, err, allowed,
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_merge_negative_values(list(argv if argv is not None else sys.argv[1:])))
    try:
        config = _resolve_config(args)
    except (OSError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        header, rows = _EXECUTORS[config.command](config)
    except (SingularPointError, NonConvergentError, PowerOverflowError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    report = render_report(header, rows, config.output_format)
    if config.output_path:
        with open(config.output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(report)
    else:
        sys.stdout.write(report)
    return 0
