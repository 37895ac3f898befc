"""Record the reference answers that every benchmark run is checked against.

    python3 bench/record_reference.py

Runs every operation any seed can draw, once, and writes ``reference.json``:
for each op key a digest of its answer (CLI payloads without ``timings``),
or ``"rejected"`` where the program refuses the input.  Each answer must
also pass the independent checks in ``workloads.py`` before it is written.
Run it only on a commit whose answers are trusted; the committed file was
recorded from the seed commit of the benchmark.
"""

from __future__ import annotations

import json
import sys

import run


def record(name: str) -> dict[str, str]:
    import workloads as wk

    wl = wk.WORKLOADS[name]()
    out: dict[str, str] = {}
    for op in wk.all_ops(wl):
        if wl.in_process:
            runner, answer, problems_of = wk.RUNNERS[name]
            try:
                result = runner(op)
            except wk.ps.Rejected:
                out[op.key] = "rejected"
                continue
            problems = problems_of(op, result)
            value = wk.digest(answer(result))
        else:
            child = run.run_child([sys.executable, "-m", "peterschub.cli", *wk.cli_argv(op)])
            if child.code == 2:
                out[op.key] = "rejected"
                continue
            if child.code != 0:
                raise SystemExit(f"{op.key}: exit {child.code}: {child.err.decode()[-300:]}")
            payload = json.loads(child.out)
            problems = wk.cli_payload_problems(op, payload)
            value = wk.digest(wk.cli_answer(payload))
        if problems:
            raise SystemExit(f"{op.key}: independent check failed: {problems}")
        out[op.key] = value
    return out


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import workloads as wk

    reference = {}
    for name in wk.WORKLOADS:
        reference[name] = record(name)
        print(f"{name}: {len(reference[name])} answers", file=sys.stderr)
    (run.BENCH / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
