"""Spans around calls into zetasum's public functions, recorded from outside.

`Tracer.patch()` rebinds the library's functions to timing wrappers and
restores them on exit, so untraced passes run the pristine code.  The
wrapper kinds in TARGETS:

* span    - one record (id, name, start, end, parent, request, self) per
            call.  Variants: "grow" records only extend_to calls that sieve,
            "eval" names the span after the method and counts terms_used,
            "spf" also notes each distinct (s, N), "steps" counts truncation
            steps and is a span only outside zeta_eval (inside, its work is
            the eval's own: zeta_eval is a thin wrapper around it).
* leaf    - hot scalar calls (n^{-s}, trial division): a call count and a
            total time per name.  The time is charged to the enclosing span,
            so self times stay exact without one record per call.
* powers, block - no timing; add the count of powers evaluated, read
            from the arguments.

Every name bound by a direct import (`oracle.power_term`,
`methods.euler_factor`, ...) is patched alongside its home module, so no
caller bypasses the wrapper.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

# name -> (kind, [(module, attribute), ...]); module is the zetasum
# submodule name, or "PrimeCache" for the class.
TARGETS = {
    "primes.extend_to": ("grow", [("PrimeCache", "extend_to")]),
    "primes.first_primes": ("span", [("primes", "first_primes")]),
    "primes.smooth_numbers": ("span", [("primes", "smooth_numbers")]),
    "primes.smallest_prime_factor": ("leaf", [("primes", "smallest_prime_factor")]),
    "kernel.power_term": ("leaf", [("kernel", "power_term"), ("oracle", "power_term")]),
    "kernel.prime_power_term": ("leaf", [("kernel", "prime_power_term"),
                                         ("methods", "prime_power_term"),
                                         ("oracle", "prime_power_term")]),
    "kernel.euler_factor": ("leaf", [("kernel", "euler_factor"), ("methods", "euler_factor")]),
    "methods.zeta_eval": ("eval", [("methods", "zeta_eval")]),
    "methods.convergence_trace": ("steps", [("methods", "convergence_trace")]),
    "methods.reform_partial": ("span", [("methods", "reform_partial")]),
    "methods.euler_partial": ("span", [("methods", "euler_partial")]),
    "methods.identity_residual": ("span", [("methods", "identity_residual")]),
    "methods.induction_step_check": ("span", [("methods", "induction_step_check")]),
    "methods.correction_coefficient": ("span", [("methods", "correction_coefficient"),
                                                ("oracle", "correction_coefficient")]),
    # Vectorised power blocks: counted, not timed, to measure powers
    # evaluated per request.  Absent names are skipped.
    "methods._power_terms": ("powers", [("methods", "_power_terms")]),
    "methods._dirichlet_block": ("block", [("methods", "_dirichlet_block")]),
    "oracle.smooth_sum_oracle": ("span", [("oracle", "smooth_sum_oracle")]),
    "oracle.spf_partition_sum": ("spf", [("oracle", "spf_partition_sum")]),
    "oracle.coefficient_crosscheck": ("span", [("oracle", "coefficient_crosscheck")]),
    "cli.main": ("span", [("cli", "main")]),
}


class Tracer:
    """Spans, leaf totals and counters for one traced pass (or one child)."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent, request, self_ns)
        self.calls: dict[str, int] = defaultdict(int)  # every wrapped call, any kind
        self.leaf_ns: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.spf_keys: set = set()
        self.request = None
        self._stack: list[list] = []  # [id, name, start, leaf_ns, child_span_ns]
        self._next_id = 0
        self._leaf_depth = 0
        self._eval_depth = 0

    # -- recording ------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, name, time.perf_counter_ns(), 0, 0]
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            # Spans nest strictly, so self time is exact here: the duration
            # minus direct child spans and minus the charged leaf time.
            own = end - frame[2] - frame[4] - frame[3]
            self.spans.append((sid, name, frame[2], end, parent, self.request, own))
            if self._stack:
                self._stack[-1][4] += end - frame[2]

    def _leaf_call(self, name: str, fn, args, kwargs):
        frame = self._stack[-1] if self._stack else None
        before = frame[4] if frame else 0
        self._leaf_depth += 1
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter_ns() - start
            self._leaf_depth -= 1
            self.leaf_ns[name] += elapsed
            # Only the outermost leaf charges its parent, minus any span
            # that opened inside it (that span charged the parent itself).
            if frame is not None and self._leaf_depth == 0:
                frame[3] += elapsed - (frame[4] - before)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, kind: str, fn):
        tracer = self
        calls = self.calls

        if kind == "span":
            def wrapper(*args, **kwargs):
                calls[name] += 1
                with tracer.span(name):
                    return fn(*args, **kwargs)
        elif kind == "leaf":
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return tracer._leaf_call(name, fn, args, kwargs)
        elif kind == "grow":
            def wrapper(cache, limit):
                calls[name] += 1
                if int(limit) <= cache.source_limit:
                    return fn(cache, limit)
                tracer.counters["primes.grow_calls"] += 1
                with tracer.span(name):
                    return fn(cache, limit)
        elif kind == "eval":
            def wrapper(s, method="reformulated", tolerance=1e-6):
                calls[name] += 1
                tracer._eval_depth += 1
                try:
                    with tracer.span(f"methods.eval_{method}"):
                        result = fn(s, method, tolerance)
                finally:
                    tracer._eval_depth -= 1
                tracer.counters["methods.terms_used"] += result.terms_used
                return result
        elif kind == "steps":
            def wrapper(*args, **kwargs):
                calls[name] += 1
                if tracer._eval_depth:
                    steps = fn(*args, **kwargs)
                else:
                    with tracer.span(name):
                        steps = fn(*args, **kwargs)
                tracer.counters["methods.trace_steps"] += len(steps)
                return steps
        elif kind in ("powers", "block"):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                if tracer._eval_depth:
                    n = len(args[0]) if kind == "powers" else args[1] - args[0] + 1
                    tracer.counters["methods.terms_evaluated"] += int(n)
                return fn(*args, **kwargs)
        elif kind == "spf":
            def wrapper(s, N):
                calls[name] += 1
                tracer.spf_keys.add((complex(s), int(N)))
                with tracer.span(name):
                    return fn(s, N)
        else:
            raise ValueError(f"unknown wrapper kind {kind!r}")
        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def patch(self):
        """Install every wrapper for the duration of the block."""
        import zetasum.cli
        from zetasum import kernel, methods, oracle, primes

        owners = {"primes": primes, "kernel": kernel, "methods": methods,
                  "oracle": oracle, "cli": zetasum.cli, "PrimeCache": primes.PrimeCache}
        saved = []
        try:
            for name, (kind, sites) in TARGETS.items():
                for owner_name, attr in sites:
                    owner = owners[owner_name]
                    original = owner.__dict__.get(attr)
                    if original is None:
                        continue
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(name, kind, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- output -----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "spans": [list(s) for s in self.spans],
            "calls": dict(self.calls),
            "leaf_ns": dict(self.leaf_ns),
            "counters": dict(self.counters),
            "spf_keys": [[s.real, s.imag, n] for s, n in self.spf_keys],
        }


def self_time_by_name(spans) -> dict:
    """Total self time in seconds and call count per span name, from
    (id, name, start, end, parent, request, self_ns) records."""
    totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for record in spans:
        totals[record[1]][0] += record[6] / 1e9
        totals[record[1]][1] += 1
    return totals


def write_spans(path, passes) -> None:
    """Write every span as one JSON object per line.

    `passes` holds, per traced pass, the `Tracer.to_dict()` parts it
    produced; a part's own "request" (a child index) fills in spans that
    carry none.
    """
    keys = ("id", "name", "start_ns", "end_ns", "parent", "request", "self_ns")
    with open(path, "w", encoding="utf-8") as fh:
        for number, parts in enumerate(passes):
            for part_no, part in enumerate(parts):
                for record in part["spans"]:
                    row = dict(zip(keys, record))
                    if row["request"] is None:
                        row["request"] = part.get("request")
                    row["pass"], row["part"] = number, part_no
                    fh.write(json.dumps(row) + "\n")
