"""zetasum benchmark: time to a certified answer, and whether it holds.

    python3 bench/run.py --workload warm_eval --seed 1 --seconds 30 --trace 0

Workloads (README.md says why each exists):

    warm_eval   one long-lived process calls zeta_eval for all three methods
    cold_cli    fresh `python -m zetasum` children, started one at a time
    crosscheck  identity residuals and brute-force oracles, in process

Load is a closed loop with a single caller.  Passes over the workload's
fixed request list repeat until --seconds is spent (at least two), and
each request's latency is its fastest over those passes; in-process
workloads' times are scaled to a reference host's pace (see end_to_end).
Every output is checked against a reference.  The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics; --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer ones from a traced run.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

from inputs import (  # noqa: E402
    COEFF_K,
    COLD_HEAVY,
    LIGHT_REPEATS,
    COEFF_N,
    COEFF_TOL,
    IDENTITY_I,
    METHODS,
    SMOOTH_BOUND,
    SMOOTH_I,
    SPF_N,
    cold_commands,
    crosscheck_inputs,
    warm_points,
)
from references import references_for  # noqa: E402
from spans import Tracer, self_time_by_name, write_spans  # noqa: E402
import warmup  # noqa: E402

EPS = 2.0 ** -52
SETUP_REPEATS = 9
CALIB_S = complex(-2.5, 37.0)  # the exponent of calibrate()'s powers
CALIB_REF_S = 0.050  # calibrate() at its fastest on the reference host
CALIB_REPEATS = 3
REF_CHILD = [sys.executable, "-c", "import numpy"]
REF_CHILD_S = 0.100  # REF_CHILD's 10th-percentile run on the reference host
CLI_PROBES = 3
MIN_PASSES = 2
TAIL_BEYOND = 10
# What the library raises when it rejects a request; anything else is a
# malformed outcome, not a counted failure.
LIBRARY_ERRORS = (RuntimeError, ValueError, OverflowError)

# The metrics this benchmark reports, with their units, as BENCHMARK.json
# declares them; --trace 0 reports the end_to_end list, --trace 1 per_layer.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


# ----------------------------------------------------------------------
# outcomes and the rules that judge them

@dataclass
class Op:
    """One operation's outcome.

    `failure` says why it counts as failed: it raised, the CLI exited
    non-zero, an oracle row fell outside its allowed error, or
    |value - reference| exceeded the reported bound.  `malformed` marks
    output the benchmark could not judge at all, which makes the run
    incorrect.
    """

    latency_s: float
    request: int = 0  # which entry of the workload's request list
    signature: object = None
    failure: str | None = None
    malformed: str | None = None
    certified: list = field(default_factory=list)  # (true error, reported bound)
    residuals: list = field(default_factory=list)  # relative identity residuals
    exit_code: int = 0
    rss_mb: float = 0.0

    def check_certificate(self, value: complex, bound: float, reference: complex) -> None:
        if not (math.isfinite(abs(value)) and math.isfinite(bound)):
            self.malformed = f"non-finite value {value} or bound {bound}"
            return
        error = abs(value - reference)
        self.certified.append((error, bound))
        if error > bound:
            self.failure = f"true error {error:.3g} above reported bound {bound:.3g}"

    def check_allowed(self, error: float, allowed: float, what: str) -> None:
        if not math.isfinite(error):
            self.malformed = f"non-finite {what} {error}"
        elif error > allowed:
            self.failure = f"{what} {error:.3g} above allowed {allowed:.3g}"

    def check_residual(self, residual: float, scale: float, i: int) -> None:
        # Rounding in a fold over i factors grows at most linearly in i.
        relative = residual / max(1.0, scale)
        self.residuals.append(relative)
        self.check_allowed(relative, i * EPS, "relative identity residual")


def timed_call(fn, *args) -> tuple[Op, object]:
    """Run one library call.  A rejection raised by the library is a failure;
    any other exception is a defect, which also makes the run incorrect."""
    start = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:
        op = Op(time.perf_counter() - start, signature=f"{type(exc).__name__}: {exc}")
        op.failure = f"raised {type(exc).__name__}"
        if not isinstance(exc, LIBRARY_ERRORS):
            op.malformed = traceback.format_exc(limit=-3)
        return op, None
    return Op(time.perf_counter() - start), result


def tail(samples) -> tuple[float, float]:
    """The sample at the highest percentile that still has TAIL_BEYOND
    samples above it, and that percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples for a tail, got {n}")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


# ----------------------------------------------------------------------
# environment

def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "ZETA_PRIME_CACHE"}
    env["PYTHONPATH"] = str(SRC)
    return env


def check_zetasum_path(path: str) -> str:
    resolved = Path(path).resolve()
    if SRC.resolve() not in resolved.parents:
        raise SystemExit(f"error: zetasum resolved to {resolved}, not under {SRC}")
    return str(resolved)


def import_zetasum() -> str:
    sys.path.insert(0, str(SRC))
    import zetasum

    return check_zetasum_path(zetasum.__file__)


def run_child(argv: list[str]) -> tuple[int, str, str, float, float]:
    """Run one child to completion: exit code, stdout, stderr, seconds, and
    its own peak RSS in MB from wait4 (RUSAGE_CHILDREN would be the running
    maximum over every child so far)."""
    with open(OUT / "child.stderr", "w+b") as err_file:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err_file)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err_file.seek(0)
        err = err_file.read()
    return proc.returncode, out.decode(), err.decode(), seconds, usage.ru_maxrss / 1024.0


def time_to_ready(name: str, seed: int) -> tuple[float, str]:
    """Seconds from spawning the set-up probe (warmup.py) until it is ready,
    less the time it spent making the seeded inputs, and the zetasum path
    it imported, which must lie in this tree's src/."""
    argv = [sys.executable, str(BENCH / "warmup.py"), name, str(seed)]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0 or len(line.split()) != 2:
        raise SystemExit(f"error: set-up probe {argv[1:]} failed")
    harness_s, path = line.decode().split()
    return ready - float(harness_s), check_zetasum_path(path)


def calibrate() -> float:
    """Seconds for a fixed piece of work that calls nothing in zetasum, of
    the two kinds the workloads do: scalar Python (complex powers and
    trial-division remainders) and numpy n^-s sweeps over cache-sized
    arrays."""
    start = time.perf_counter()
    acc = 0j
    for n in range(1, 60_000):
        acc += n ** CALIB_S
    for d in range(3, 240_000, 2):
        acc += 1_000_003 % d
    n = numpy.arange(1.0, 4097.0)
    for _ in range(300):
        acc += numpy.exp(CALIB_S * numpy.log(n)).sum()
    return time.perf_counter() - start


@dataclass
class Pace:
    """How fast the shared host runs during this run, sampled throughout it.

    The host drifts by up to a third over minutes, and every pass of a
    slow run is slow, so no fastest-of filter removes that drift.  Two
    gauges track it, each doing work that calls nothing in zetasum:
    calibrate() in this process, for in-process times, and a fresh
    REF_CHILD process, for child-process times.  Neither tracked the
    other's kind of time.
    """

    calib: list[float] = field(default_factory=list)  # calibrate() seconds
    child: list[float] = field(default_factory=list)  # REF_CHILD seconds

    def sample_in_process(self, times: int = 1) -> None:
        self.calib += [calibrate() for _ in range(times)]

    def sample_child(self) -> None:
        self.child.append(run_child(REF_CHILD)[3])

    def in_process_scale(self) -> float:
        """Factor that takes an in-process time to the reference host's pace."""
        return CALIB_REF_S / min(self.calib)

    def child_scale(self) -> float:
        """Factor that takes a child process's time to the reference host's pace."""
        return REF_CHILD_S / statistics.quantiles(self.child, n=10)[0]


# ----------------------------------------------------------------------
# workloads

class InProcess:
    """Workload served by this process; set-up is import plus warm-up."""

    in_process = True

    def cache_stats(self) -> tuple[int, int]:
        from zetasum import primes

        cache = primes.default_cache()
        return cache.source_limit, len(cache)


class WarmEval(InProcess):
    name = "warm_eval"

    def __init__(self, seed: int):
        self.points = warm_points(seed)

    def setup(self) -> None:
        warmup.warm_eval(self.points)

    def load_references(self) -> None:
        self.refs = references_for([s for s, _tol, _origin in self.points], sys.executable)

    def run_pass(self, tracer: Tracer | None, pace: Pace) -> tuple[list[Op], list[dict]]:
        from zetasum import methods

        ops = []
        for idx, (s, tol, _origin) in enumerate(self.points):
            for method in METHODS:
                if tracer:
                    tracer.request = f"{idx}:{method}"
                op, result = timed_call(methods.zeta_eval, s, method, tol)
                if result is not None:
                    op.signature = (result.value, result.terms_used, result.tail_error_bound)
                    op.check_certificate(result.value, result.tail_error_bound, self.refs[s])
                op.request = len(ops)
                ops.append(op)
        return ops, [tracer.to_dict()] if tracer else []


class Crosscheck(InProcess):
    name = "crosscheck"

    def __init__(self, seed: int):
        self.inputs = crosscheck_inputs(seed)

    def setup(self) -> None:
        warmup.crosscheck(self.inputs)

    def load_references(self) -> None:
        # The second route of each check, computed once and outside timing.
        from zetasum import methods

        grid = self.inputs["identity"]
        self.products = {(i, s): abs(methods.euler_partial(i, s))
                         for s in grid for base in IDENTITY_I for i in (base, base + 1)}
        self.smooth_refs = {s: methods.euler_partial(SMOOTH_I, s) for s in self.inputs["smooth"]}
        self.dirichlet_ref = methods.dirichlet_partial(SPF_N, self.inputs["spf"])

    def run_pass(self, tracer: Tracer | None, pace: Pace) -> tuple[list[Op], list[dict]]:
        from zetasum import methods, oracle

        ops = []

        def label(text: str) -> None:
            if tracer:
                tracer.request = text

        for s in self.inputs["identity"]:
            for i in IDENTITY_I:
                label(f"identity_residual:{i}:{s}")
                op, r = timed_call(methods.identity_residual, i, s)
                if r is not None:
                    op.signature = r
                    op.check_residual(r, self.products[i, s], i)
                ops.append(op)
                label(f"induction_step_check:{i}:{s}")
                op, r = timed_call(methods.induction_step_check, i, s)
                if r is not None:
                    op.signature = r
                    op.check_residual(r, self.products[i + 1, s], i + 1)
                ops.append(op)
        for s in self.inputs["smooth"]:
            label(f"smooth_sum_oracle:{s}")
            op, v = timed_call(oracle.smooth_sum_oracle, SMOOTH_I, s, SMOOTH_BOUND)
            if v is not None:
                op.signature = v
                allowed = SMOOTH_BOUND ** (1.0 - s.real) / (s.real - 1.0)
                op.check_allowed(abs(v - self.smooth_refs[s]), allowed, "smooth-sum error")
            ops.append(op)
        s = self.inputs["spf"]
        label(f"spf_partition_sum:{s}")
        op, table = timed_call(oracle.spf_partition_sum, s, SPF_N)
        if table is not None:
            total = table.total()
            op.signature = total
            op.check_allowed(abs(1.0 + total - self.dirichlet_ref),
                             1e-12 * abs(self.dirichlet_ref), "partition-identity error")
        ops.append(op)
        s = self.inputs["coefficient"]
        spec = methods.TruncationSpec(tolerance=COEFF_TOL)
        allowed = COEFF_TOL + COEFF_N ** (1.0 - s.real) / (s.real - 1.0)
        for k in COEFF_K:
            label(f"coefficient_crosscheck:{k}:{s}")
            op, err = timed_call(oracle.coefficient_crosscheck, k, s, COEFF_N, spec)
            if err is not None:
                op.signature = err
                op.check_allowed(err, allowed, "coefficient error")
            ops.append(op)
        for number, op in enumerate(ops):
            op.request = number
        return ops, [tracer.to_dict()] if tracer else []


class ColdCli:
    """Fresh `python -m zetasum` children; this process never imports zetasum."""

    name = "cold_cli"
    in_process = False

    def __init__(self, seed: int):
        self.commands = cold_commands(seed)

    def load_references(self) -> None:
        self.refs = references_for([s for _argv, s in self.commands if s is not None],
                                   sys.executable)

    def run_pass(self, tracer: Tracer | None, pace: Pace) -> tuple[list[Op], list[dict]]:
        ops, parts = [], []
        spans_path = OUT / "child-spans.json"
        for idx, (argv, s) in enumerate(self.commands):
            if tracer:
                full = [sys.executable, str(BENCH / "cli_child.py"), str(spans_path), *argv]
            else:
                full = [sys.executable, "-m", "zetasum", *argv]
            heavy = (argv, s) in COLD_HEAVY
            if not heavy:
                pace.sample_child()
            for _ in range(1 if heavy else LIGHT_REPEATS):
                code, out, err, seconds, rss = run_child(full)
                op = Op(seconds, request=idx, signature=(code, out), exit_code=code, rss_mb=rss)
                self.judge(op, argv, s, code, out, err)
                ops.append(op)
                if tracer:
                    part = json.loads(spans_path.read_text())
                    part["request"] = idx
                    parts.append(part)
                    spans_path.unlink()
        return ops, parts

    def judge(self, op: Op, argv: list[str], s, code: int, out: str, err: str) -> None:
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        if code == 1 and errors:
            op.failure = "exit 1: " + errors[-1]
            return
        if code != 0:
            op.malformed = f"exit {code}: {err.strip()[-300:]}"
            return
        try:
            rows = list(csv.DictReader(io.StringIO(out)))
            if not rows:
                raise ValueError("empty report")
            for row in rows:
                if argv[0] == "identity-check":
                    op.check_residual(float(row["residual"]), float(row["product_abs"]),
                                      int(row["i"]))
                else:
                    value = complex(float(row["value_re"]), float(row["value_im"]))
                    op.check_certificate(value, float(row["tail_error_bound"]), self.refs[s])
        except (KeyError, ValueError) as exc:
            op.malformed = f"unreadable report: {exc}"

    def cache_stats(self):
        return None


WORKLOADS = {cls.name: cls for cls in (WarmEval, ColdCli, Crosscheck)}


# ----------------------------------------------------------------------
# measurement

@dataclass
class Pass:
    traced: bool
    wall_s: float
    ops: list[Op]
    parts: list[dict]
    cache: tuple | None


def measure(workload, seconds: float, trace: bool, pace: Pace) -> list[Pass]:
    """Closed loop, one caller: repeat passes until `seconds` would be
    exceeded.  With tracing, passes alternate untraced and traced.  Before
    each pass, calibrate() runs CALIB_REPEATS times."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        pace.sample_in_process(CALIB_REPEATS)
        tracer = Tracer() if trace and len(passes) % 2 == 1 else None
        t0 = time.perf_counter()
        if tracer and workload.in_process:
            with tracer.patch():
                ops, parts = workload.run_pass(tracer, pace)
        else:
            ops, parts = workload.run_pass(tracer, pace)
        wall = time.perf_counter() - t0
        passes.append(Pass(tracer is not None, wall, ops, parts, workload.cache_stats()))
        if len(passes) >= MIN_PASSES and time.perf_counter() - start + wall > seconds:
            return passes


def certificate_counts(ops: list[Op]) -> int:
    return sum(1 for op in ops for err, bound in op.certified if err > bound)


def end_to_end(passes: list[Pass], setup: list[tuple[float, float]], workload,
               pace: Pace) -> tuple[dict, list[str]]:
    """Each request's latency is its fastest over the untraced passes: on a
    shared machine interference only ever adds time, and identical passes
    were seen to differ by up to 2x within one run.  wall_s is the sum of
    those latencies, the time to finish the list at that pace; p50 and the
    tail are taken over the distinct requests of the list.

    Every time is then scaled to the reference host's pace (see Pace):
    times measured in this process by the in-process scale, and cold_cli's
    requests by the child scale.  `setup` holds, per set-up probe, its
    time to ready and the time of the reference child run just before it;
    setup_s is the median of their ratios times REF_CHILD_S, which kept
    set-up steady where a run-wide scale did not."""
    plain = [p for p in passes if not p.traced]
    by_request: dict[int, list[float]] = {}
    for p in plain:
        for op in p.ops:
            by_request.setdefault(op.request, []).append(op.latency_s)
    latencies = [min(samples) for samples in by_request.values()]
    tail_s, percentile = tail(latencies)
    if workload.in_process:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        peak = statistics.median(max(op.rss_mb for op in p.ops) for p in plain)
    measured = {
        "setup_s": statistics.median(ready for ready, _ref in setup),
        "wall_s": sum(latencies),
        "req_p50_ms": 1e3 * statistics.median(latencies),
        "req_tail_ms": 1e3 * tail_s,
    }
    host, child = pace.in_process_scale(), pace.child_scale()
    scale = host if workload.in_process else child
    values = {name: value * scale for name, value in measured.items()}
    values["setup_s"] = REF_CHILD_S * statistics.median(ready / ref for ready, ref in setup)
    values["peak_rss_mb"] = peak
    notes = [f"req_tail_ms is p{percentile:.1f} of {len(latencies)} requests "
             f"({TAIL_BEYOND} beyond it), each its fastest of "
             f"{min(map(len, by_request.values()))} or more runs",
             f"host pace: in-process scale {host:.4f} (fastest calibrate() "
             f"{min(pace.calib):.6g} s of {len(pace.calib)}, reference {CALIB_REF_S} s); "
             f"child scale {child:.4f} (p10 of {len(pace.child)} reference children "
             f"{REF_CHILD_S / child:.6g} s, reference {REF_CHILD_S} s)",
             "as measured, unscaled: " + " ".join(f"{name} {value:.6g}"
                                                for name, value in measured.items()),
             f"median pass wall {statistics.median(p.wall_s for p in plain):.6g} s"]
    return values, notes


def per_layer(passes: list[Pass], extra: dict) -> tuple[dict, list[str]]:
    traced = [p for p in passes if p.traced]
    per_pass = [layer_values(p) for p in traced]
    values, absent = {}, []
    for name in PER_LAYER:
        seen = [v[name] for v in per_pass if v.get(name) is not None]
        if name in extra:
            seen = [extra[name]] if extra[name] is not None else []
        if name == "trace.overhead_s":
            plain = [p.wall_s for p in passes if not p.traced]
            seen = [statistics.median(p.wall_s for p in traced) - statistics.median(plain)]
        if seen:
            values[name] = statistics.median(seen)
        else:
            values[name] = 0
            absent.append(name)
    notes = []
    if absent:
        notes.append("absent on this workload (reported as 0): " + ", ".join(absent))
    return values, notes


def layer_values(p: Pass) -> dict:
    """Per-layer values of one traced pass; None where the layer never ran."""
    calls, leaf_ns, counters, own = {}, {}, {}, {}
    spf_keys = set()
    for part in p.parts:
        for table, into in ((part["calls"], calls), (part["leaf_ns"], leaf_ns),
                            (part["counters"], counters)):
            for key, v in table.items():
                into[key] = into.get(key, 0) + v
        for name, (sec, _n) in self_time_by_name(part["spans"]).items():
            own[name] = own.get(name, 0.0) + sec
        spf_keys.update(tuple(k) for k in part["spf_keys"])

    def ran(name):
        return calls.get(name, 0) > 0

    # Growth is only observable as extend_to calls; a pass that used the
    # prime layer without calling it grew nothing.
    primes_ran = any(name.startswith("primes.") for name in calls)

    def self_s(name):
        return own.get(name, 0.0) if ran(name) else None

    def leaf(name):
        return (leaf_ns.get(name, 0) / 1e9, calls[name]) if ran(name) else (None, None)

    evals = ran("methods.zeta_eval")
    certified = [(e, b) for op in p.ops for e, b in op.certified]
    held = [b / e for e, b in certified if e <= b and e > 0]
    residuals = [r for op in p.ops for r in op.residuals]
    spf_s, spf_calls = leaf("primes.smallest_prime_factor")
    power_s, power_calls = leaf("kernel.power_term")
    used, evaluated = counters.get("methods.terms_used", 0), counters.get("methods.terms_evaluated", 0)
    cache = p.cache or (max((tuple(part.get("cache", (0, 0))) for part in p.parts), default=None))
    return {
        "primes.extend_s": own.get("primes.extend_to", 0.0) if primes_ran else None,
        "primes.extend_calls": counters.get("primes.grow_calls", 0) if primes_ran else None,
        "primes.sieved_to": cache[0] if cache else None,
        "primes.cached": cache[1] if cache else None,
        "primes.first_primes_s": self_s("primes.first_primes"),
        "primes.spf_calls": spf_calls,
        "primes.spf_s": spf_s,
        "primes.smooth_numbers_s": self_s("primes.smooth_numbers"),
        "kernel.power_term_calls": power_calls,
        "kernel.power_term_s": power_s,
        "kernel.euler_factor_calls": leaf("kernel.euler_factor")[1],
        **{f"methods.eval_{m}_s": own.get(f"methods.eval_{m}", 0.0) if evals else None
           for m in METHODS},
        "methods.reform_partial_calls": calls.get("methods.reform_partial") or None,
        "methods.reform_partial_s": self_s("methods.reform_partial"),
        "methods.euler_partial_s": self_s("methods.euler_partial"),
        "methods.trace_steps": counters.get("methods.trace_steps") if ran("methods.convergence_trace") else None,
        "methods.terms_used": used if evals else None,
        "methods.terms_evaluated": evaluated if evals and ran("methods._power_terms") else None,
        "methods.useful_ratio": used / evaluated if evals and evaluated else None,
        "methods.bound_slack_p50": statistics.median(held) if held else None,
        "methods.bound_excess_max": max(e / b for e, b in certified) if certified else None,
        "methods.identity_rel_residual_max": max(residuals) if residuals else None,
        "methods.correction_coefficient_s": self_s("methods.correction_coefficient"),
        "oracle.spf_partition_calls": calls.get("oracle.spf_partition_sum") or None,
        "oracle.spf_partition_s": self_s("oracle.spf_partition_sum"),
        "oracle.spf_reuse_ratio": (len(spf_keys) / calls["oracle.spf_partition_sum"]
                                   if ran("oracle.spf_partition_sum") else None),
        "oracle.smooth_sum_s": self_s("oracle.smooth_sum_oracle"),
        "oracle.crosscheck_s": self_s("oracle.coefficient_crosscheck"),
        "cli.main_self_s": self_s("cli.main"),
        "cli.exit_nonzero": (sum(1 for op in p.ops if op.exit_code != 0)
                             if ran("cli.main") else None),
        "cert_violations": certificate_counts(p.ops),
        "failed_share": sum(op.failure is not None for op in p.ops) / len(p.ops),
    }


def consistent(passes: list[Pass]) -> list[str]:
    """Problems that make the run incorrect: malformed outputs, and any
    operation whose output differs between passes."""
    problems = [f"op {i}: {op.malformed}" for p in passes for i, op in enumerate(p.ops)
                if op.malformed]
    first = passes[0].ops
    for p in passes[1:]:
        if len(p.ops) != len(first):
            problems.append("passes ran different numbers of operations")
            continue
        problems += [f"op {i}: output differs between passes" for i, (a, b)
                     in enumerate(zip(first, p.ops)) if a.signature != b.signature]
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="zetasum benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.pop("ZETA_PRIME_CACHE", None)
    if not (SRC / "zetasum" / "__init__.py").is_file():
        raise SystemExit(f"error: no zetasum source tree at {SRC}")
    workload = WORKLOADS[args.workload](args.seed)
    OUT.mkdir(exist_ok=True)
    pace = Pace()
    setup = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        pace.sample_in_process()
        pace.sample_child()
        ready, path = time_to_ready(workload.name, args.seed)
        setup.append((ready, pace.child[-1]))
    extra = {"primes.setup_extend_s": None, "cli.interpreter_s": None, "cli.import_s": None}
    if workload.in_process:
        import_zetasum()
        if args.trace:
            setup_tracer = Tracer()
            with setup_tracer.patch():
                workload.setup()
            own = self_time_by_name(setup_tracer.spans)
            extra["primes.setup_extend_s"] = own["primes.extend_to"][0]
        else:
            workload.setup()
    elif args.trace:
        extra["cli.interpreter_s"] = statistics.median(
            run_child([sys.executable, "-c", "pass"])[3] for _ in range(CLI_PROBES))
        extra["cli.import_s"] = statistics.median(
            run_child([sys.executable, "-c", "import zetasum"])[3] for _ in range(CLI_PROBES))
    print(f"env zetasum={path} python={sys.version.split()[0]} numpy={numpy.__version__} "
          f"ZETA_PRIME_CACHE=unset")
    workload.load_references()

    passes = measure(workload, args.seconds, bool(args.trace), pace)
    attempted = sum(len(p.ops) for p in passes)
    failed = sum(op.failure is not None for p in passes for op in p.ops)
    problems = consistent(passes)
    last = passes[-1]
    print(f"workload {workload.name} seed {args.seed}: {len(passes)} passes "
          f"({sum(p.traced for p in passes)} traced), {len(last.ops)} operations each; "
          "pass walls " + " ".join(f"{p.wall_s:.3f}{'t' if p.traced else ''}" for p in passes))
    if args.trace:
        values, notes = per_layer(passes, extra)
        spans_path = OUT / f"spans-{workload.name}-{args.seed}.jsonl"
        write_spans(spans_path, [p.parts for p in passes if p.traced])
        notes.append(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        values, notes = end_to_end(passes, setup, workload, pace)
        values = {name: values[name] for name in END_TO_END}
    for name, value in values.items():
        print(f"{name} {value:.6g} {UNITS[name]}")
    print(f"attempted {attempted} failed {failed} failed_share {failed / attempted:.6g} ratio")
    print(f"cert_violations {certificate_counts(last.ops)} count (per pass)")
    for note in notes:
        print(note)
    for op_index, op in enumerate(last.ops):
        if op.failure:
            print(f"failed op {op_index}: {op.failure}")
    for problem in problems[:20]:
        print(f"incorrect: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
