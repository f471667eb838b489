"""Run `zetasum.cli.main` under the benchmark's tracer (cold_cli, --trace 1).

    python3 bench/cli_child.py SPANS_JSON eval --s 2 --tol 1e-6

Installs the wrappers, calls `zetasum.cli.main` with the remaining
arguments, writes the spans, counters and final prime-cache size to
SPANS_JSON, and exits with main's exit code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spans import Tracer  # noqa: E402


def main() -> int:
    out_path, *argv = sys.argv[1:]
    import zetasum.cli
    from zetasum import primes

    tracer = Tracer()
    try:
        with tracer.patch():
            return zetasum.cli.main(argv)
    finally:
        data = tracer.to_dict()
        cache = primes.default_cache()
        data["cache"] = [cache.source_limit, len(cache)]
        Path(out_path).write_text(json.dumps(data))


if __name__ == "__main__":
    raise SystemExit(main())
