"""Child process for traced CLI operations and start-up probes.

    python3 bench/launch.py -- <cli arguments>   run peterschub.cli.main traced
    python3 bench/launch.py --import-only        print the import time of peterschub.cli

A traced run installs the span wrappers after the import, calls
``cli.main`` and writes the per-layer totals of this process to stderr as
one line starting with ``TRACE_PREFIX``, after everything the CLI wrote.
``PYTHONPATH`` must name the checkout's ``src`` directory.
"""

from __future__ import annotations

import json
import sys
import time

TRACE_PREFIX = "@@bench-trace "


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    import peterschub.cli as cli

    import_ms = (time.perf_counter() - start) * 1000
    if argv == ["--import-only"]:
        print(import_ms)
        return 0
    if not argv or argv[0] != "--":
        print("usage: launch.py --import-only | launch.py -- <cli arguments>", file=sys.stderr)
        return 1
    from spans import Tracer, cache_counts

    tracer = Tracer()
    tracer.install()
    code = cli.main(argv[1:])
    sys.stdout.flush()
    summary = tracer.summary()
    summary["caches"] = cache_counts(tracer.originals)
    sys.stderr.write(TRACE_PREFIX + json.dumps(summary) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
