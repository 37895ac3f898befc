"""The peterschub benchmark: one workload per run, a closed loop with one client.

Run from the root of a checkout:

    python3 bench/run.py --workload cli|monk|coxeter [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

The workload is drawn from ``--seed``; the program only ever sees the
generated inputs.  Whole rounds of operations run, one at a time, until
``--seconds`` of operation time have passed and enough operations have
answered for the tail percentile.  Every answer is checked (reference
digests recorded from the seed commit plus independent routes, see
``workloads.py``).  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
an untraced pass over half the time is followed by a traced pass over the
same rounds, and the metrics are the per-layer ones.  The exit code is 0
when every answer is correct, 1 when a check failed and 2 when the package
source is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

OP_TIMEOUT_S = 60  # wall-clock cap per operation; a timed-out op is recorded, not dropped
ROUND_WALL_LIMIT_S = 120  # no round starts after this, so a run ends well within 180 s
TAIL_BEYOND = 10  # the tail percentile must leave at least this many answered ops beyond it
SETUP_REPEATS = (5, 25)  # at least 5, and more until SETUP_BUDGET_S of set-up was timed
SETUP_BUDGET_S = 2.0
PROBE_REPEATS = 5
TRACE_PREFIX = "@@bench-trace "

E2E_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_share": "share",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Outcomes that are a wrong or broken result rather than a refusal or a slow op.
INCORRECT = ("wrong", "rejected", "error")


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an in-process operation that ran too long."""


def _alarm(signum: int, frame: Any) -> None:
    raise OpTimeout()


@dataclass
class Child:
    code: int | None  # None after a timeout
    out: bytes
    err: bytes
    seconds: float
    maxrss_kb: int


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_child(argv: list[str], timeout: float = OP_TIMEOUT_S) -> Child:
    """Run a child to completion, reading both pipes, and reap it with wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(), cwd=ROOT)
    chunks: dict[Any, list[bytes]] = {proc.stdout: [], proc.stderr: []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        deadline = start + timeout
        while sel.get_map():
            left = deadline - time.perf_counter()
            if left <= 0:
                timed_out = True
                proc.kill()
                break
            for key, _ in sel.select(left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Child(None if timed_out else proc.returncode, b"".join(chunks[proc.stdout]),
                 b"".join(chunks[proc.stderr]), seconds, usage.ru_maxrss)


# ---------------------------------------------------------------------------
# run records


@dataclass
class Record:
    cls: str
    key: str
    outcome: str  # ok | capped | wrong | rejected | error | timeout
    seconds: float
    detail: str = ""


@dataclass
class Pass:
    records: list[Record] = field(default_factory=list)
    rounds: int = 0
    peak_rss_kb: int = 0
    cache: dict[str, list[int]] = field(default_factory=dict)  # label -> [hits, misses]
    layers: dict[str, float] = field(default_factory=dict)  # summed per-layer totals
    processes: int = 0  # processes whose root-system builds the layers cover

    @property
    def op_seconds(self) -> float:
        return sum(r.seconds for r in self.records)

    def answered(self) -> int:
        return sum(r.outcome == "ok" for r in self.records)

    def add_cache(self, before: dict, after: dict) -> None:
        for label, (hits, misses) in after.items():
            acc = self.cache.setdefault(label, [0, 0])
            acc[0] += hits - before[label][0]
            acc[1] += misses - before[label][1]

    def add_layers(self, summary: dict) -> None:
        for name, value in summary.items():
            self.layers[name] = self.layers.get(name, 0) + value


def judge(expected: str | None, status: str, answer_digest: str | None,
          problems: list[str]) -> tuple[str, str]:
    """Outcome of one op from its status, its answer and the reference."""
    if status == "rejected":
        return ("capped", "") if expected == "rejected" else ("rejected", "")
    if status != "ok":
        return status, ""
    if problems:
        return "wrong", "; ".join(problems)
    if expected is None:
        return "wrong", "no reference answer for this op"
    # A class refused at the seed commit may be answered by a later build;
    # the independent checks above then carry the proof.
    if expected != "rejected" and answer_digest != expected:
        return "wrong", f"answer digest {answer_digest} != reference {expected}"
    return "ok", ""


def check_answer(answer_of, problems_of, op, result) -> tuple[str | None, list[str]]:
    """Digest and independent-check problems of one answer.  A malformed
    answer is a wrong answer, not a crash of the benchmark."""
    import workloads as wk

    try:
        return wk.digest(answer_of(result)), problems_of(op, result)
    except Exception as exc:
        return None, [f"answer check raised {type(exc).__name__}: {exc}"]


def more_rounds(p: Pass, seconds: float, need: int, started: float, limit: int | None) -> bool:
    if limit is not None:
        return p.rounds < limit
    if time.perf_counter() - started > ROUND_WALL_LIMIT_S:
        return False
    return p.op_seconds < seconds or p.answered() < need


# ---------------------------------------------------------------------------
# passes


def cli_pass(wl, seed: int, seconds: float, need: int, reference: dict,
             rounds: int | None = None, traced: bool = False) -> Pass:
    import workloads as wk

    p = Pass()
    started = time.perf_counter()
    prefix = ([sys.executable, str(BENCH / "launch.py"), "--"] if traced
              else [sys.executable, "-m", "peterschub.cli"])
    while more_rounds(p, seconds, need, started, rounds):
        for op in wl.round_ops(seed, p.rounds):
            child = run_child(prefix + wk.cli_argv(op))
            p.peak_rss_kb = max(p.peak_rss_kb, child.maxrss_kb)
            err = child.err.decode(errors="replace")
            if traced:
                lines = err.splitlines()
                if lines and lines[-1].startswith(TRACE_PREFIX):
                    summary = json.loads(lines.pop()[len(TRACE_PREFIX):])
                    caches = summary.pop("caches")
                    p.add_cache({label: (0, 0) for label in caches}, caches)
                    p.add_layers(summary)
                    p.processes += 1
                err = "\n".join(lines)
            digest, problems, detail = None, [], ""
            if child.code is None:
                status = "timeout"
            elif "Traceback" in err:
                status, detail = "error", err.strip().splitlines()[-1]
            elif child.code == 2:
                status, detail = "rejected", err.strip()
            elif child.code != 0:
                status, detail = "error", f"exit {child.code}: {err.strip()[-200:]}"
            else:
                try:
                    payload = json.loads(child.out)
                except json.JSONDecodeError as exc:
                    status, detail = "error", f"unparsable output: {exc}"
                else:
                    status = "ok"
                    digest, problems = check_answer(wk.cli_answer, wk.cli_payload_problems,
                                                    op, payload)
            outcome, why = judge(reference.get(op.key), status, digest, problems)
            p.records.append(Record(op.cls, op.key, outcome, child.seconds, why or detail))
        p.rounds += 1
    return p


def cache_objects() -> list[Any]:
    """Every lru cache of the package except the root-system cache (set-up)."""
    found: dict[int, Any] = {}
    build_cache = getattr(sys.modules.get("peterschub.rootsys"), "_build_cached", None)
    for name, mod in list(sys.modules.items()):
        if name == "peterschub" or name.startswith("peterschub."):
            for value in vars(mod).values():
                if hasattr(value, "cache_clear") and hasattr(value, "cache_info") \
                        and value is not build_cache:
                    found[id(value)] = value
    return list(found.values())


def in_process_pass(wl, seed: int, seconds: float, need: int, reference: dict,
                    caches: list[Any], rounds: int | None = None, tracer=None) -> Pass:
    import spans
    import workloads as wk

    run, answer, problems_of = wk.RUNNERS[wl.name]
    originals = tracer.originals if tracer is not None else None
    p = Pass()
    started = time.perf_counter()
    signal.signal(signal.SIGALRM, _alarm)
    while more_rounds(p, seconds, need, started, rounds):
        # Rounds share nothing: each starts with every evaluation cache empty.
        for cache in caches:
            cache.cache_clear()
        for op in wl.round_ops(seed, p.rounds):
            before = spans.cache_counts(originals)
            if tracer is not None:
                tracer.phase = "op"
            result, status, detail = None, "ok", ""
            start = time.perf_counter()
            try:
                signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
                try:
                    result = run(op)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except OpTimeout:
                status = "timeout"
            except wk.ps.Rejected as exc:
                status, detail = "rejected", str(exc)
            except Exception as exc:  # any other escape is a failed op, recorded
                status, detail = "error", f"{type(exc).__name__}: {exc}"
            seconds_op = time.perf_counter() - start
            p.add_cache(before, spans.cache_counts(originals))
            if tracer is not None:
                tracer.phase = "check"
            digest, problems = None, []
            if status == "ok":
                digest, problems = check_answer(answer, problems_of, op, result)
            outcome, why = judge(reference.get(op.key), status, digest, problems)
            p.records.append(Record(op.cls, op.key, outcome, seconds_op, why or detail))
        p.rounds += 1
    p.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.phase = "op"
    return p


# ---------------------------------------------------------------------------
# set-up and start-up probes


SETUP_CODE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "import peterschub\n"
    "for label in sys.argv[1:]:\n"
    "    peterschub.build_root_system(label)\n"
    "print(time.perf_counter() - start)\n"
)


def probe(argv: list[str], repeats: int) -> list[float]:
    """Run ``argv`` in fresh processes; each prints one float."""
    values = []
    for _ in range(repeats):
        child = run_child(argv)
        if child.code != 0:
            raise RuntimeError(f"probe {argv[1:3]} failed: {child.err.decode()[-300:]}")
        values.append(float(child.out))
    return values


def setup_seconds(types: tuple[str, ...]) -> list[float]:
    """Fresh processes that import peterschub and build the workload's root systems."""
    argv = [sys.executable, "-c", SETUP_CODE, *types]
    probe(argv, 1)  # compiles the package's bytecode once, untimed
    least, most = SETUP_REPEATS
    values = probe(argv, least)
    while len(values) < most and sum(values) < SETUP_BUDGET_S:
        values += probe(argv, 1)
    return values


def start_probes() -> dict[str, float]:
    bare = []
    for _ in range(PROBE_REPEATS):
        child = run_child([sys.executable, "-c", "pass"])
        bare.append(child.seconds * 1000)
    imports = probe([sys.executable, str(BENCH / "launch.py"), "--import-only"], PROBE_REPEATS)
    return {"proc.start_ms": statistics.median(bare), "cli.import_ms": statistics.median(imports)}


# ---------------------------------------------------------------------------
# metrics


def tail_percentile(n: int, wanted: float) -> float:
    """``wanted`` when n answered ops leave TAIL_BEYOND beyond it, else the
    highest percentile that does (the op count fell short of the design)."""
    if n * (100 - wanted) >= TAIL_BEYOND * 100 or n <= TAIL_BEYOND:
        return wanted
    return 100 * (n - TAIL_BEYOND) / n


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct * len(ordered) / 100) - 1)]


def end_to_end(wl, p: Pass, setup: list[float]) -> tuple[dict[str, float], dict[str, Any]]:
    ok = [r.seconds for r in p.records if r.outcome == "ok"]
    pct = tail_percentile(len(ok), wl.tail_pct)
    metrics = {
        "ops_per_s": len(ok) / p.op_seconds if p.op_seconds else 0.0,
        "op_p50_ms": statistics.median(ok) * 1000 if ok else 0.0,
        "op_tail_ms": nearest_rank(ok, pct) * 1000 if ok else 0.0,
        "ok_share": len(ok) / len(p.records) if p.records else 0.0,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": p.peak_rss_kb / 1024,
    }
    notes = {"tail_pct": pct, "tail_beyond": len(ok) - math.ceil(pct * len(ok) / 100) if ok else 0}
    return metrics, notes


LAYER_UNITS = {
    "rootsys.build_ms": "ms", "rootsys.build_calls": "count",
    "weyl.longest_ms": "ms", "weyl.validate_ms": "ms", "weyl.inversions_ms": "ms",
    "weyl.reduced_words_ms": "ms", "weyl.reduced_words_out": "count", "weyl.rejects": "count",
    "billey.dp_ms": "ms", "billey.dp_calls": "count", "billey.dp_cells": "count",
    "billey.oracle_ms": "ms", "billey.pattern_cache_hit_ratio": "ratio",
    "billey.pattern_cache_lookups": "count",
    "peterson.solve_ms": "ms", "peterson.residual_ms": "ms", "peterson.monk_eval_ms": "ms",
    "peterson.class_eval_ms": "ms", "peterson.class_cache_hit_ratio": "ratio",
    "peterson.class_cache_lookups": "count",
    "cli.import_ms": "ms", "cli.self_ms": "ms", "proc.start_ms": "ms",
    "trace.overhead_share": "share",
}
PER_PROCESS = ("rootsys.build_ms", "rootsys.build_calls")


def per_layer(untraced: Pass, traced: Pass, probes: dict[str, float]) -> dict[str, float]:
    """Per-layer numbers: root-system builds per process, everything else per op."""
    ops = len(traced.records)
    metrics: dict[str, float] = {}
    for name, value in traced.layers.items():
        if name in LAYER_UNITS:
            metrics[name] = value / (traced.processes if name in PER_PROCESS else ops)
    for label in ("billey.pattern_cache", "peterson.class_cache"):
        hits, misses = traced.cache.get(label, [0, 0])
        metrics[f"{label}_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        metrics[f"{label}_lookups"] = (hits + misses) / ops
    metrics.update(probes)
    metrics["trace.overhead_share"] = traced.op_seconds / untraced.op_seconds - 1
    return {name: metrics.get(name, 0.0) for name in LAYER_UNITS}


# ---------------------------------------------------------------------------
# reporting


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_meta(args: argparse.Namespace) -> dict[str, Any]:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(), "git_sha": git_sha(),
    }


def print_pass(wl, p: Pass) -> None:
    by_cls: dict[str, list[Record]] = {}
    for r in p.records:
        by_cls.setdefault(r.cls, []).append(r)
    print(f"{wl.name}: {len(p.records)} ops in {p.rounds} rounds, {p.op_seconds:.2f} s of ops")
    for cls in wl.classes:
        recs = by_cls.get(cls.name, [])
        ok = [r.seconds * 1000 for r in recs if r.outcome == "ok"]
        med = f"{statistics.median(ok):10.2f} ms" if ok else "         - ms"
        other = {}
        for r in recs:
            if r.outcome != "ok":
                other[r.outcome] = other.get(r.outcome, 0) + 1
        print(f"  {cls.name:12s} {len(recs):4d} ops  median {med}  {other or ''}")
    for r in p.records:
        if r.outcome in INCORRECT or r.outcome == "timeout":
            print(f"  FAILED {r.outcome}: {r.key}: {r.detail}")


def print_metrics(metrics: dict[str, float], units: dict[str, str]) -> None:
    for name, value in metrics.items():
        print(f"  {name:32s} {value:16.6f} {units[name]}")


def result_line(correct: bool, passes: list[Pass], metrics: dict[str, float],
                units: dict[str, str]) -> str:
    records = [r for p in passes for r in p.records]
    failed = sum(r.outcome not in ("ok", "capped") for r in records)
    return json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


# ---------------------------------------------------------------------------


def run_workload(args: argparse.Namespace) -> int:
    import spans
    import workloads as wk

    wl = wk.WORKLOADS[args.workload]()
    reference = json.loads((BENCH / "reference.json").read_text())[wl.name]
    print("meta " + json.dumps(run_meta(args)))
    problems = wk.readme_problems()
    for problem in problems:
        print(f"README value check failed: {problem}")
    need = math.ceil(TAIL_BEYOND * 100 / (100 - wl.tail_pct))
    caches = cache_objects()  # before the tracer hides cached functions behind wrappers

    if wl.in_process:
        for label in wl.types:
            wk.rs_of(label)

    def one_pass(seconds, need=need, rounds=None, tracer=None, traced=False):
        if wl.in_process:
            return in_process_pass(wl, args.seed, seconds, need, reference, caches,
                                   rounds, tracer)
        return cli_pass(wl, args.seed, seconds, need, reference, rounds, traced)

    if not args.trace:
        setup = setup_seconds(wl.types)
        p = one_pass(args.seconds)
        passes = [p]
        metrics, notes = end_to_end(wl, p, setup)
        print_pass(wl, p)
        capped = sum(r.outcome == "capped" for r in p.records)
        failed = sum(r.outcome not in ("ok", "capped") for r in p.records)
        print(f"  fail_share {(capped + failed) / len(p.records):.6f} "
              f"({capped + failed} of {len(p.records)} attempted: "
              f"{capped} refused by the word cap, {failed} other failures)")
        print(f"  op_tail_ms is p{notes['tail_pct']:.2f}, "
              f"{notes['tail_beyond']} answered ops beyond it")
        print_metrics(metrics, E2E_UNITS)
        units = E2E_UNITS
    else:
        # The overhead comparison needs no tail percentile, only equal rounds.
        untraced = one_pass(args.seconds / 2, need=1)
        untraced_rounds = untraced.rounds
        if wl.in_process:
            tracer = spans.Tracer()
            tracer.install()
            tracer.originals["rootsys._build_cached"].cache_clear()
            tracer.phase = "setup"
            for label in wl.types:
                wk.rs_of(label)
            traced = one_pass(0, rounds=untraced_rounds, tracer=tracer)
            traced.add_layers(tracer.summary())
            traced.processes = 1
        else:
            traced = one_pass(0, rounds=untraced_rounds, traced=True)
        passes = [untraced, traced]
        metrics = per_layer(untraced, traced, start_probes())
        print_pass(wl, traced)
        if traced.layers.get("billey.dp_unsized"):
            print(f"  note: {traced.layers['billey.dp_unsized']} dp calls without a pattern count")
        print_metrics(metrics, LAYER_UNITS)
        units = LAYER_UNITS

    records = [r for p in passes for r in p.records]
    correct = not problems and not any(r.outcome in INCORRECT for r in records)
    print(result_line(correct, passes, metrics, units))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, then one table."""
    import workloads as wk

    combined: dict[str, dict] = {}
    correct, attempted, failed, code = True, 0, 0, 0
    for name in wk.WORKLOADS:
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if result is None:
            print(f"{name}: no result (exit {proc.returncode})")
            return proc.returncode or 1
        code = max(code, proc.returncode)
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            combined[f"{name}.{metric}"] = entry
    print(f"{'metric':40s} {'value':>16s} unit")
    for name, entry in combined.items():
        print(f"{name:40s} {entry['value']:16.6f} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cli", "monk", "coxeter", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "peterschub" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC / 'peterschub'}; "
              "run from the root of a peterschub checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
