"""Seeded, stratified workloads and their answer checks.

Every workload is an endless stream of rounds.  A round holds a fixed
number of operations from each size class; the seed only chooses which
type and subset fills each slot, so two seeds ask for comparable work.
Round ``r`` of seed ``s`` depends on nothing but ``(workload, s, r)``, so a
traced pass can replay exactly the rounds an untraced pass ran.

Why each size class exists is written next to it below; the
workload-level reasons are in ``README.md`` and ``BENCHMARK.json``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Any

import peterschub as ps

# Independent values quoted in the project README.
README_MONK_A3 = (3, 4, 3)
README_GIAMBELLI_E8 = 11179629901440

# The backtracking oracle is run on fixed points with at most this many
# letters, the same cap the CLI report uses.
ORACLE_WORD_CAP = 63


@dataclass(frozen=True)
class Op:
    """One operation: its size class, its reference key and its inputs."""

    cls: str
    key: str
    args: tuple


@dataclass(frozen=True)
class SizeClass:
    name: str
    per_round: int
    candidates: tuple  # hashable inputs, one of which fills each slot
    why: str


@dataclass
class Workload:
    name: str
    classes: tuple[SizeClass, ...]
    tail_pct: float  # fixed per workload so parent and change compare alike
    in_process: bool
    types: tuple[str, ...] = field(default=())

    def round_ops(self, seed: int, index: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{seed}:{index}")
        ops = []
        for cls in self.classes:
            for cand in self.deal(seed, cls, index):
                ops.append(make_op(self.name, cls.name, cand, rng))
        rng.shuffle(ops)
        return ops

    def deal(self, seed: int, cls: SizeClass, index: int) -> list:
        """The candidates that fill the slots of ``cls`` in round ``index``.

        Each class has one seeded order of all its candidates, dealt out
        in turn from round to round, so a run of a few rounds uses every
        candidate about equally often whatever the seed; independent draws
        per round let one seed repeat the costliest candidate.
        """
        return dealt(f"{self.name}:{seed}:{cls.name}", cls.candidates, index, cls.per_round)


def dealt(key: str, items: tuple, index: int, count: int) -> list:
    """Slots ``index * count`` to ``index * count + count - 1`` of a seeded,
    endlessly repeated order of ``items``."""
    order = list(items)
    random.Random(key).shuffle(order)
    return [order[(index * count + j) % len(order)] for j in range(count)]


# ---------------------------------------------------------------------------
# helpers over the public library API


def rs_of(label: str) -> ps.RootSystem:
    return ps.build_root_system(label)


def commuting_sets(label: str, size: int, limit: int = 12) -> list[tuple[int, ...]]:
    """Up to ``limit`` sets of ``size`` pairwise-commuting simple reflections.

    Taken evenly from the lexicographic list of all such sets, so odd,
    even and every-third index patterns all appear.
    """
    rs = rs_of(label)
    nodes = range(1, rs.rank + 1)
    found = [
        K for K in combinations(nodes, size)
        if all(rs.cartan[a - 1][b - 1] == 0 for a, b in combinations(K, 2))
    ]
    if len(found) <= limit:
        return found
    step = len(found) / limit
    return [found[int(i * step)] for i in range(limit)]


def height_sum(label: str) -> int:
    """Sum of the heights of all positive roots, from the Cartan matrix alone.

    The positive roots sum to 2*rho and <rho, alpha_i^vee> = 1, so the
    simple-root coordinates c of rho solve cartan . c = (1, ..., 1); the
    height sum is 2 * sum(c).  No root is enumerated.
    """
    a = [[Fraction(x) for x in row] + [Fraction(1)] for row in rs_of(label).cartan]
    n = len(a)
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    total = 2 * sum(a[i][n] / a[i][i] for i in range(n))
    if total.denominator != 1:
        raise ValueError(f"height sum of {label} is not an integer: {total}")
    return int(total)


def digest(answer: Any) -> str:
    blob = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def readme_problems() -> list[str]:
    """Check the two values the README quotes."""
    problems = []
    monk = tuple(ps.monk_eval(rs_of("A3"), i).coeff for i in (1, 2, 3))
    if monk != README_MONK_A3:
        problems.append(f"A3 Monk coefficients {monk} != {README_MONK_A3}")
    g = ps.giambelli_eval(rs_of("E8")).coeff
    if g != README_GIAMBELLI_E8:
        problems.append(f"E8 Giambelli {g} != {README_GIAMBELLI_E8}")
    return problems


# ---------------------------------------------------------------------------
# cli: one `python -m peterschub.cli ... --format json` process per op


def _types(prefix: str, ranks: range) -> tuple[str, ...]:
    return tuple(f"{prefix}{n}" for n in ranks)


ORACLE_TYPES = (
    _types("A", range(2, 11)) + _types("B", range(2, 8)) + _types("C", range(2, 8))
    + _types("D", range(4, 9)) + ("E6", "E7", "F4", "G2")
)
CONSTANT_TYPES = (
    _types("A", range(3, 7)) + _types("B", range(3, 7)) + _types("C", range(3, 7))
    + _types("D", range(4, 7)) + ("E6", "F4", "G2")
)


def _constant_cases() -> tuple:
    cases = []
    for label in CONSTANT_TYPES:
        r = rs_of(label).rank
        for K in ((1,), (r,), (1, 2)):
            for i in sorted({1, 2, r}):
                cases.append(("constants", label, i, K))
    return tuple(cases)


def cli_workload() -> Workload:
    monk_cases = tuple(("monk", t, sw) for t in ("E8", "D16", "A24") for sw in (False, True))
    classes = (
        # The slowest reports: one slot, above the p90 tail.
        SizeClass("report_A_hi", 1, tuple(("report", t) for t in _types("A", range(25, 31))),
                  "report on A25-A30: long-word walks and the monk stage dominate"),
        SizeClass("report_A_lo", 1, tuple(("report", t) for t in _types("A", range(20, 25))),
                  "report on A20-A24"),
        SizeClass("report_D_hi", 1, tuple(("report", t) for t in _types("D", range(16, 21))),
                  "report on D16-D20"),
        SizeClass("report_D_lo", 1, tuple(("report", t) for t in _types("D", range(12, 16))),
                  "report on D12-D15"),
        SizeClass("report_EF", 2, tuple(("report", t) for t in ("E6", "E7", "E8", "F4")),
                  "report on exceptional types, each a self-checking pipeline"),
        # All six every round; the seed picks where the braid move goes.
        SizeClass("monk", 6, monk_cases,
                  "monk on E8, D16, A24, with and without --seed-word: "
                  "the seed word is revalidated once per generator"),
        SizeClass("listing", 3, (("lists", "E8"), ("roots", "E8"), ("poset", "E8")),
                  "listing commands on E8: start-up and rendering bound"),
        SizeClass("giambelli", 5, tuple(("giambelli", t) for t in ORACLE_TYPES),
                  "giambelli --oracle backtrack where |w0| <= 63"),
        SizeClass("constants", 4, _constant_cases(),
                  "constants on ranks <= 6: the solver behind a fresh process"),
        # Six slots of the same fixed op, so that most of the ops around
        # the p90 tail are alike: with A20-A24, D16-D20 and monk on A24,
        # verify fills the 0.5-1 s band that the tail falls in.
        SizeClass("verify", 6, (("verify", "quick"),),
                  "verify --level quick, the heaviest fixed op"),
    )
    types = sorted({c[1] for cls in classes for c in cls.candidates if c[0] != "verify"})
    return Workload("cli", classes, tail_pct=90.0, in_process=False, types=tuple(types))


def cli_argv(op: Op) -> list[str]:
    kind, label = op.args[0], op.args[1]
    if kind == "verify":
        return ["verify", "--level", "quick", "--format", "json"]
    argv = [kind, "--type", label]
    if kind == "giambelli":
        argv += ["--oracle", "backtrack"]
    elif kind == "constants":
        argv += ["-i", str(op.args[2]), "--subset", ",".join(map(str, op.args[3]))]
    elif kind == "monk" and op.args[2]:
        argv += ["--seed-word", ",".join(map(str, op.args[3]))]
    return argv + ["--format", "json"]


def seed_word(label: str, rng: random.Random) -> tuple[int, ...]:
    """A braid variant of the canonical w0 word, moved at a seeded place."""
    rs = rs_of(label)
    w0 = ps.longest_element_word(rs, ps.full_subset(rs))
    while True:
        cut = rng.randrange(len(w0) - 2)
        variant = ps.braid_variant(rs, w0[cut:])
        if variant is not None:
            return w0[:cut] + variant


def cli_payload_problems(op: Op, payload: dict) -> list[str]:
    """Independent checks of one CLI payload, beyond the reference digest."""
    kind, label = op.args[0], op.args[1]
    problems = []
    if kind == "report":
        n = ps.positive_count_formula(ps.LieTypeLabel.parse(label))
        if len(payload["longest_word"]) != n:
            problems.append("longest word length differs from the root count")
        if sum(payload["monk"].values()) != height_sum(label):
            problems.append("monk total differs from the height sum")
        if label == "E8" and payload["giambelli"] != README_GIAMBELLI_E8:
            problems.append("E8 giambelli differs from the README value")
        oracle = payload.get("oracle")
        if n <= ORACLE_WORD_CAP and not (oracle and oracle["agrees"]
                                         and oracle["coeff"] == payload["giambelli"]):
            problems.append("report oracle missing or disagreeing")
    elif kind == "monk":
        if payload["total"] != height_sum(label):
            problems.append("monk total differs from the height sum")
    elif kind == "giambelli":
        oracle = payload["oracle"]
        if not (oracle["agrees"] and oracle["coeff"] == payload["coeff"]):
            problems.append("oracle disagrees with the dp")
    elif kind == "constants":
        rs = rs_of(label)
        constants = {
            frozenset(c["subset"]): (Fraction(c["numerator"], c["denominator"]), c["exponent"])
            for c in payload["constants"]
        }
        residuals = ps.expansion_residuals(rs, op.args[2], op.args[3], constants)
        if any(residuals.values()):
            problems.append("nonzero residual of the returned constants")
    elif kind == "verify":
        if payload["failed"] != 0:
            problems.append(f"verify reports {payload['failed']} failed checks")
    elif kind in ("roots", "lists"):
        heights = [r["height"] for r in payload["roots"]] if kind == "roots" else payload["heights"]
        if sum(heights) != height_sum(label):
            problems.append("heights do not sum to the height sum")
    return problems


def cli_answer(payload: dict) -> dict:
    """The payload with its timings removed: what the reference records."""
    return {k: v for k, v in payload.items() if k != "timings"}


# ---------------------------------------------------------------------------
# monk: in-process monk_structure_constants + expansion_residuals


MONK_RANKS = {
    6: ("A6", "B6", "C6", "D6", "E6"),
    7: ("A7", "B7", "C7", "D7", "E7"),
    8: ("A8", "B8", "C8", "D8", "E8"),
    9: ("B9", "C9", "D9"),  # A9's cold query is a third cheaper than these
}
# (types per round, queries per type) for each rank.  Ranks 6-8 hold every
# family in every round, so the seed moves only the queries and not how
# much work a round is; E8's diagonal costs over twice A8's.  Rank 9 deals
# two of its three types per round.  The first query on a type evaluates
# the whole 2^rank diagonal cold; the rest share the _class_eval and
# _patterns caches with it.  Of the 47 ops of a round, the 25 between
# 0.1 and 0.25 s (cold rank 7, warm rank 8) hold the median near their
# middle, and the p90 tail falls on the middle one of the five cold
# rank-8 queries, below the two rank-9 ones.
MONK_SLOTS = {6: (5, 1), 7: (5, 2), 8: (5, 5), 9: (2, 1)}


def monk_subsets(rank: int) -> tuple[tuple[int, ...], ...]:
    return ((1,), (rank,), (1, 2), (2, 4), (1, 3, 5), (rank - 2, rank - 1, rank))


def monk_cases(label: str) -> tuple:
    rank = rs_of(label).rank
    return tuple(("monk", label, i, K) for K in monk_subsets(rank) for i in range(1, rank + 1))


class _MonkRounds(Workload):
    """Per rank, dealt types and several (i, K) queries on each.

    The subsets K of one type are dealt out in a seeded order too: a
    one-letter K costs a warm query 2^(rank-1) new class evaluations, a
    three-letter K only 2^(rank-3).  Each i is drawn freely.
    """

    def round_ops(self, seed: int, index: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{seed}:{index}")
        ops = []
        for cls in self.classes:
            queries = MONK_SLOTS[rs_of(cls.candidates[0]).rank][1]
            for label in self.deal(seed, cls, index):
                rank = rs_of(label).rank
                subsets = dealt(f"{self.name}:{seed}:{label}", monk_subsets(rank), index, queries)
                for K in subsets:
                    case = ("monk", label, rng.randrange(1, rank + 1), K)
                    ops.append(make_op(self.name, cls.name, case, rng))
        rng.shuffle(ops)
        return ops


def monk_workload() -> Workload:
    classes = tuple(
        SizeClass(f"rank{r}", MONK_SLOTS[r][0], MONK_RANKS[r],
                  f"rank {r}: 2^{r} fixed points, types dealt per round")
        for r in sorted(MONK_RANKS)
    )
    types = tuple(t for r in sorted(MONK_RANKS) for t in MONK_RANKS[r])
    return _MonkRounds("monk", classes, tail_pct=90.0, in_process=True, types=types)


def monk_run(op: Op) -> dict:
    _, label, i, K = op.args
    rs = rs_of(label)
    constants = ps.monk_structure_constants(rs, i, K)
    residuals = ps.expansion_residuals(rs, i, K, constants)
    return {"constants": constants, "residuals": residuals}


def monk_answer(result: dict) -> Any:
    return sorted(
        [sorted(kp), c.numerator, c.denominator, e] for kp, (c, e) in result["constants"].items()
    )


def monk_problems(op: Op, result: dict) -> list[str]:
    _, label, i, K = op.args
    problems = []
    if any(result["residuals"].values()):
        problems.append("nonzero expansion residual")
    rs = rs_of(label)
    total = sum(ps.monk_eval(rs, j).coeff for j in range(1, rs.rank + 1))
    if total != height_sum(label):
        problems.append("monk total differs from the height sum")
    w0 = ps.longest_element_word(rs, ps.full_subset(rs))
    if len(w0) <= ORACLE_WORD_CAP:
        v = ps.coxeter_word(K)
        if ps.billey_eval_bruteforce(rs, v, w0) != ps.billey_eval_dp(rs, v, w0):
            problems.append("oracle disagrees with the dp at w0")
    return problems


# ---------------------------------------------------------------------------
# coxeter: Coxeter classes of pairwise-commuting letters


def coxeter_workload() -> Workload:
    def cands(labels: tuple[str, ...], size: int, limit: int = 12) -> tuple:
        return tuple(("coxeter", t, K) for t in labels for K in commuting_sets(t, size, limit))

    # Types within a class have (nearly) the same number of positive roots,
    # so the draw changes which letters are used, not how much work it is.
    classes = (
        SizeClass("b1", 2, cands(("A8", "B6", "C6", "E6"), 1),
                  "1 letter, |R|=1; N=36 types"),
        SizeClass("b2", 2, cands(("A8", "B6", "C6", "E6"), 2),
                  "2 letters, |R|=2; N=36 types"),
        SizeClass("b3", 2, cands(("A8", "B6", "C6", "E6"), 3),
                  "3 letters, |R|=6; N=36 types"),
        SizeClass("b4", 2, cands(("E8",), 4),
                  "4 letters, |R|=24, on E8 (every commuting 4-set)"),
        SizeClass("b5", 2, cands(("B10", "C10"), 5),
                  "5 letters, |R|=120; N=100 types"),
        SizeClass("b6", 12, cands(("A15", "B11", "C11"), 6),
                  "6 letters, |R|=720; N=120-121 types: the median lands here"),
        SizeClass("b7", 4, cands(("A14",), 7),
                  "7 letters, |R|=5040 on A14 only: the p87.5 tail lands here"),
        SizeClass("b8", 1, cands(("A16",), 8),
                  "8 letters, |R|=40320 on A16 only: the DP blow-up (seconds per op)"),
        SizeClass("capped", 1, (
            ("coxeter", "A20", tuple(range(1, 20, 2))),
            ("coxeter", "A20", tuple(range(2, 21, 2))),
            ("coxeter", "A21", tuple(range(1, 22, 2))),
            ("coxeter", "A22", tuple(range(2, 23, 2))),
            ("coxeter", "A23", tuple(range(1, 24, 2))),
            ("coxeter", "B20", tuple(range(1, 20, 2))),
            ("coxeter", "C20", tuple(range(2, 21, 2))),
            ("coxeter", "D22", tuple(range(1, 22, 2))),
        ), "10-12 letters: more than 10^6 reduced words, refused by the word cap"),
    )
    types = sorted({c[1] for cls in classes for c in cls.candidates})
    return Workload("coxeter", classes, tail_pct=87.5, in_process=True, types=tuple(types))


def coxeter_run(op: Op) -> dict:
    _, label, K = op.args
    rs = rs_of(label)
    g = ps.giambelli_eval(rs, K)
    c = ps.class_eval(rs, K, ps.full_subset(rs))
    return {"giambelli": g, "class_w0": c}


def coxeter_answer(result: dict) -> Any:
    return [result["giambelli"].coeff, result["giambelli"].degree,
            result["class_w0"].coeff, result["class_w0"].degree]


def coxeter_problems(op: Op, result: dict) -> list[str]:
    """For pairwise-commuting K every reduced word of v_K is an ordering of
    K, so p_{v_K}(w) factors as the product of the Monk values p_{s_k}(w)."""
    _, label, K = op.args
    rs = rs_of(label)
    problems = []
    expect_g, expect_c = 1, 1
    for k in K:
        expect_g *= ps.monk_eval(rs, k, K).coeff
        expect_c *= ps.monk_eval(rs, k).coeff
    if result["giambelli"].coeff != expect_g:
        problems.append("giambelli differs from the product of Monk values")
    if result["class_w0"].coeff != expect_c:
        problems.append("class at w0 differs from the product of Monk values")
    wK = ps.longest_element_word(rs, K)
    if ps.billey_eval_bruteforce(rs, ps.coxeter_word(K), wK) != result["giambelli"]:
        problems.append("oracle disagrees with giambelli")
    return problems


# ---------------------------------------------------------------------------


def make_op(workload: str, cls: str, case: tuple, rng: random.Random) -> Op:
    if case[0] == "monk" and workload == "cli":
        _, label, with_word = case
        key = f"monk --type {label}"
        word = seed_word(label, rng) if with_word else ()
        return Op(cls, key, ("monk", label, with_word, word))
    if case[0] == "verify":
        return Op(cls, "verify --level quick", case)
    if workload == "cli":
        return Op(cls, " ".join(cli_argv(Op(cls, "", case))[:-2]), case)
    if case[0] == "monk":
        _, label, i, K = case
        return Op(cls, f"{label} i={i} K={','.join(map(str, K))}", case)
    _, label, K = case
    return Op(cls, f"{label} K={','.join(map(str, K))}", case)


WORKLOADS = {
    "cli": cli_workload,
    "monk": monk_workload,
    "coxeter": coxeter_workload,
}

RUNNERS = {
    "monk": (monk_run, monk_answer, monk_problems),
    "coxeter": (coxeter_run, coxeter_answer, coxeter_problems),
}


def all_ops(workload: Workload) -> list[Op]:
    """Every op any seed can draw, one per reference key."""
    rng = random.Random(0)
    seen: dict[str, Op] = {}
    if workload.name == "monk":
        cases = [(cls.name, c) for cls in workload.classes
                 for t in cls.candidates for c in monk_cases(t)]
    else:
        cases = [(cls.name, c) for cls in workload.classes for c in cls.candidates]
    for cls_name, case in cases:
        op = make_op(workload.name, cls_name, case, rng)
        seen.setdefault(op.key, op)
    return list(seen.values())
