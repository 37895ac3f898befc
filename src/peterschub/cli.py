"""Command-line frontend.

Subcommands expose each layer (roots, poset, longest, lists, monk,
giambelli, constants), `report` assembles the whole evaluation pipeline
for one type, and `verify` runs the library's invariant suite.

Formats: text (default), json (the fidelity format; parsing and
re-serializing the output is byte-identical), csv (rows of
quantity,index,value).  Exit codes: 0 success, 1 usage error,
2 precondition rejection, 3 internal invariant failure (also used for
failed verify runs).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Any, Callable, Sequence

from .billey import (
    LocalizationValue,
    billey_eval_bruteforce,
    billey_eval_dp,
    inversion_heights,
)
from .errors import InvariantViolation, Rejected
from .peterson import (
    _fixed_point,
    _fixed_point_word,
    build_evaluation_table,
    class_eval,
    coxeter_word,
    expansion_residuals,
    full_subset,
    giambelli_eval,
    giambelli_ratio,
    monk_coefficients,
    monk_eval,
    monk_structure_constants,
)
from .rootsys import (
    LieTypeLabel,
    RootSystem,
    build_root_system,
    height,
    is_positive_root,
    positive_count_formula,
    reflect,
    root_poset_covers,
)
from .weyl import (
    Word,
    act,
    braid_variant,
    element_matrix,
    element_words,
    inversion_roots,
    is_reduced,
    longest_element_word,
    reduced_words,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REJECTED = 2
EXIT_INVARIANT = 3

_SUBSET_SCAN_WARN = 10**8


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this frontend reserves 2 for
    precondition rejections, so remap usage failures to exit 1."""

    def error(self, message: str) -> Any:
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _type_arg(text: str) -> LieTypeLabel:
    try:
        return LieTypeLabel.parse(text)
    except Rejected as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _subset_arg(text: str) -> tuple[int, ...]:
    try:
        parts = [int(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"cannot parse index list {text!r}: want e.g. 1,2,5"
        ) from exc
    if not parts:
        raise argparse.ArgumentTypeError("index list is empty")
    return tuple(sorted(set(parts)))


def _word_arg(text: str) -> Word:
    try:
        parts = [int(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"cannot parse word {text!r}: want e.g. 1,2,1"
        ) from exc
    if not parts:
        raise argparse.ArgumentTypeError("word is empty")
    return tuple(parts)


def _build_parser() -> _Parser:
    parser = _Parser(prog="peterschub", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--format", choices=("text", "json", "csv"), default="text",
        help="output format (default text)",
    )
    parser.add_argument(
        "--seed-word", type=_word_arg, default=None, metavar="J1,J2,...",
        help="alternative reduced word to evaluate at instead of the "
        "canonical longest word (must spell the same element)",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name: str, help_text: str, *, typed: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        if typed:
            p.add_argument("--type", type=_type_arg, required=True, metavar="Xn",
                           help="Lie type label, e.g. A3, E8")
        p.add_argument("--format", choices=("text", "json", "csv"),
                       default=argparse.SUPPRESS, help=argparse.SUPPRESS)
        p.add_argument("--seed-word", type=_word_arg,
                       default=argparse.SUPPRESS, help=argparse.SUPPRESS)
        return p

    add("roots", "positive roots with heights")
    add("poset", "cover pairs of the root poset")
    p = add("longest", "canonical reduced word of a parabolic longest element")
    p.add_argument("--subset", type=_subset_arg, default=None, metavar="I1,I2,...")
    add("lists", "longest word and its inversion heights, side by side")
    p = add("monk", "degree-one class evaluations at the longest fixed point")
    p.add_argument("-i", type=int, default=None, metavar="K", help="single generator index")
    p = add("giambelli", "Coxeter class self-evaluation, optionally with an oracle")
    p.add_argument("--subset", type=_subset_arg, default=None, metavar="I1,I2,...")
    p.add_argument("--oracle", choices=("backtrack", "subsets"), default=None)
    p.add_argument("--window", type=int, default=None, metavar="N")
    p = add("constants", "expansion constants of a degree-one times a Coxeter class")
    p.add_argument("-i", type=int, required=True, metavar="K")
    p.add_argument("--subset", type=_subset_arg, required=True, metavar="I1,I2,...")
    add("report", "full pipeline for one type, with stage timings")
    p = add("verify", "run the invariant suite", typed=False)
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    return parser


# ---------------------------------------------------------------------------
# rendering


def _atom(x: Any) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if x is None:
        return ""
    if isinstance(x, list):
        return " ".join(_atom(i) for i in x)
    if isinstance(x, dict):
        return ";".join(f"{k}={_atom(v)}" for k, v in x.items())
    return str(x)


def _csv_rows(payload: dict[str, Any]) -> list[tuple[str, str, str]]:
    rows: list[tuple[str, str, str]] = []
    for key, val in payload.items():
        if isinstance(val, list):
            for idx, item in enumerate(val, 1):
                if isinstance(item, dict):
                    for k2, v2 in item.items():
                        rows.append((f"{key}.{k2}", str(idx), _atom(v2)))
                else:
                    rows.append((key, str(idx), _atom(item)))
        elif isinstance(val, dict):
            for k2, v2 in val.items():
                rows.append((key, str(k2), _atom(v2)))
        else:
            rows.append((key, "", _atom(val)))
    return rows


def _emit(payload: dict[str, Any], lines: list[str], fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("quantity", "index", "value"))
        writer.writerows(_csv_rows(payload))
        sys.stdout.write(buf.getvalue())
    else:
        sys.stdout.write("\n".join(lines) + "\n")


def _fraction_payload(q: Fraction) -> dict[str, int]:
    return {"numerator": q.numerator, "denominator": q.denominator}


def _fraction_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _value_payload(val: LocalizationValue) -> dict[str, int]:
    return {"coeff": val.coeff, "degree": val.degree}


# ---------------------------------------------------------------------------
# subcommands


def _cmd_roots(ns: argparse.Namespace) -> tuple[dict, list[str], int]:
    rs = build_root_system(ns.type)
    payload = {
        "type": str(rs.label),
        "count": len(rs.positives),
        "roots": [
            {"coeffs": list(r), "height": height(r)} for r in rs.positives
        ],
    }
    lines = [f"{rs.label}: {len(rs.positives)} positive roots"]
    lines += [f"{' '.join(map(str, r))}  ht {height(r)}" for r in rs.positives]
    return payload, lines, EXIT_OK


def _cmd_poset(ns: argparse.Namespace) -> tuple[dict, list[str], int]:
    rs = build_root_system(ns.type)
    covers = sorted(root_poset_covers(rs), key=lambda c: (height(c[1]), c[1], c[0]))
    payload = {
        "type": str(rs.label),
        "count": len(covers),
        "covers": [{"lower": list(lo), "upper": list(up)} for lo, up in covers],
    }
    lines = [f"{rs.label}: {len(covers)} cover pairs"]
    lines += [
        f"{' '.join(map(str, lo))} < {' '.join(map(str, up))}" for lo, up in covers
    ]
    return payload, lines, EXIT_OK


def _cmd_longest(ns: argparse.Namespace) -> tuple[dict, list[str], int]:
    rs = build_root_system(ns.type)
    subset = ns.subset if ns.subset is not None else tuple(range(1, rs.rank + 1))
    word = longest_element_word(rs, subset)
    payload = {
        "type": str(rs.label),
        "subset": list(subset),
        "word": list(word),
        "length": len(word),
    }
    lines = [
        f"type:   {rs.label}",
        f"subset: {' '.join(map(str, subset))}",
        f"word:   {' '.join(map(str, word))}",
        f"length: {len(word)}",
    ]
    return payload, lines, EXIT_OK


def _cmd_lists(ns: argparse.Namespace) -> tuple[dict, list[str], int]:
    rs = build_root_system(ns.type)
    word, heights = _fixed_point(rs, full_subset(rs), ns.seed_word)
    payload = {
        "type": str(rs.label),
        "word": list(word),
        "heights": list(heights),
        "length": len(word),
    }
    lines = [
        f"word:    {' '.join(map(str, word))}",
        f"heights: {' '.join(map(str, heights))}",
    ]
    return payload, lines, EXIT_OK


def _cmd_monk(ns: argparse.Namespace) -> tuple[dict, list[str], int]:
    rs = build_root_system(ns.type)
    if ns.i is not None:
        val = monk_eval(rs, ns.i, word=ns.seed_word)
        payload = {
            "type": str(rs.label),
            "i": ns.i,
            "coeff": val.coeff,
            "degree": val.degree,
        }
        return payload, [f"p_s{ns.i} = {val}"], EXIT_OK
    coeffs = monk_coefficients(*_fixed_point(rs, full_subset(rs), ns.seed_word), rs.rank)
    payload = {
        "type": str(rs.label),
        "monk": {str(i): c for i, c in coeffs.items()},
        "total": sum(coeffs.values()),
        "degree": 1,
    }
    lines = [f"p_s{i} = {LocalizationValue(c, 1)}" for i, c in coeffs.items()]
    lines.append(f"total coeff: {payload['total']}")
    return payload, lines, EXIT_OK


def _cmd_giambelli(ns: argparse.Namespace) -> tuple[dict, list[str], int]:
    rs = build_root_system(ns.type)
    subset = ns.subset if ns.subset is not None else tuple(range(1, rs.rank + 1))
    if ns.window is not None and ns.oracle is None:
        raise Rejected("--window only applies to an --oracle run")
    val = giambelli_eval(rs, subset, word=ns.seed_word)
    payload: dict[str, Any] = {
        "type": str(rs.label),
        "subset": list(subset),
        "coeff": val.coeff,
        "degree": val.degree,
    }
    lines = [f"p_v(w) = {val}  (dp)"]
    if ns.oracle is not None:
        v = coxeter_word(subset)
        word = _fixed_point_word(rs, frozenset(subset), ns.seed_word)
        window = ns.window if ns.window is not None else len(word)
        if ns.oracle == "subsets":
            est = math.comb(window, len(v))
            if est > _SUBSET_SCAN_WARN:
                print(
                    f"warning: subset scan must test about {est} index subsets; "
                    "this may take an extremely long time",
                    file=sys.stderr,
                )
        oracle_val = billey_eval_bruteforce(
            rs, v, word,
            window=ns.window,
            full_subset_scan=(ns.oracle == "subsets"),
        )
        payload["oracle"] = {
            "method": ns.oracle,
            "window": window,
            "coeff": oracle_val.coeff,
            "agrees": oracle_val == val,
        }
        lines.append(f"p_v(w) = {oracle_val}  (oracle: {ns.oracle}, window {window})")
        lines.append("agreement: " + ("yes" if oracle_val == val else "NO"))
        if oracle_val != val:
            raise InvariantViolation(
                f"oracle {oracle_val} disagrees with dp {val}"
            )
    return payload, lines, EXIT_OK


def _cmd_constants(ns: argparse.Namespace) -> tuple[dict, list[str], int]:
    rs = build_root_system(ns.type)
    constants = monk_structure_constants(rs, ns.i, ns.subset)
    ordered = sorted(constants.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
    payload = {
        "type": str(rs.label),
        "i": ns.i,
        "subset": list(ns.subset),
        "constants": [
            {
                "subset": sorted(kp),
                "numerator": c.numerator,
                "denominator": c.denominator,
                "exponent": e,
            }
            for kp, (c, e) in ordered
        ],
    }
    lines = [f"p_s{ns.i} * p_v{{{','.join(map(str, ns.subset))}}} expands as:"]
    for kp, (c, e) in ordered:
        t_part = "" if e == 0 else (" * t" if e == 1 else f" * t^{e}")
        lines.append(f"  {{{','.join(map(str, sorted(kp)))}}}: {_fraction_text(c)}{t_part}")
    if not ordered:
        lines.append("  (zero)")
    return payload, lines, EXIT_OK


@dataclass(frozen=True)
class ReportRecord:
    """One type's full pipeline: words, heights, evaluations, timings."""

    type_label: str
    longest_word: Word
    inversion_heights: tuple[int, ...]
    monk: dict[int, int]
    giambelli: int
    ratio: Fraction
    reduced_word_count_vk: int
    oracle: dict[str, Any] | None
    timings: dict[str, int]


_ORACLE_LENGTH_CAP = 63


def build_report(rs: RootSystem, seed_word: Word | None = None) -> ReportRecord:
    """Run the full evaluation pipeline for one type, timing each stage.

    The backtracking-oracle comparison is included only when the longest
    word has at most 63 letters: beyond that the enumeration stops being
    a quick cross-check, and the dynamic program stands on the exhaustive
    equivalence tests in smaller types.
    """
    timings: dict[str, int] = {}
    t_start = time.perf_counter()

    def stage(name: str, since: float) -> float:
        now = time.perf_counter()
        timings[name] = int((now - since) * 1000)
        return now

    t = t_start
    # The seed word is validated here once; later stages take it as given.
    word = _fixed_point_word(rs, full_subset(rs), seed_word)
    t = stage("longest", t)
    heights = tuple(inversion_heights(rs, word))
    t = stage("heights", t)
    monk = monk_coefficients(word, heights, rs.rank)
    t = stage("monk", t)
    vk = coxeter_word(range(1, rs.rank + 1))
    giambelli = billey_eval_dp(rs, vk, word)
    t = stage("giambelli", t)
    count_vk = len(reduced_words(rs, vk))
    t = stage("reduced_words", t)

    oracle: dict[str, Any] | None = None
    if len(word) <= _ORACLE_LENGTH_CAP:
        oracle_val = billey_eval_bruteforce(rs, vk, word)
        oracle = {
            "method": "backtrack",
            "coeff": oracle_val.coeff,
            "agrees": oracle_val == giambelli,
        }
        t = stage("oracle", t)

    if len(word) != len(rs.positives) or len(heights) != len(rs.positives):
        raise InvariantViolation("longest word length differs from the root count")
    height_sum = sum(height(r) for r in rs.positives)
    if sum(monk.values()) != height_sum:
        raise InvariantViolation(
            f"monk coefficients sum to {sum(monk.values())}, "
            f"expected the total height {height_sum}"
        )
    if oracle is not None and not oracle["agrees"]:
        raise InvariantViolation("oracle evaluation disagrees with the dp")

    num = 1
    for c in monk.values():
        num *= c
    ratio = Fraction(num, giambelli.coeff)
    timings["total"] = int((time.perf_counter() - t_start) * 1000)
    return ReportRecord(
        type_label=str(rs.label),
        longest_word=word,
        inversion_heights=heights,
        monk=monk,
        giambelli=giambelli.coeff,
        ratio=ratio,
        reduced_word_count_vk=count_vk,
        oracle=oracle,
        timings=timings,
    )


def report_payload(record: ReportRecord) -> dict[str, Any]:
    return {
        "type_label": record.type_label,
        "longest_word": list(record.longest_word),
        "inversion_heights": list(record.inversion_heights),
        "monk": {str(i): c for i, c in record.monk.items()},
        "giambelli": record.giambelli,
        "ratio": _fraction_payload(record.ratio),
        "reduced_word_count_vk": record.reduced_word_count_vk,
        "oracle": record.oracle,
        "timings": record.timings,
    }


def _cmd_report(ns: argparse.Namespace) -> tuple[dict, list[str], int]:
    rs = build_root_system(ns.type)
    record = build_report(rs, ns.seed_word)
    monk_text = " ".join(f"{i}:{c}" for i, c in record.monk.items())
    if record.oracle is None:
        oracle_text = "skipped (longest word exceeds the oracle length cap)"
    else:
        oracle_text = (
            f"{record.oracle['method']} coeff {record.oracle['coeff']}, "
            + ("agrees" if record.oracle["agrees"] else "DISAGREES")
        )
    lines = [
        f"type:               {record.type_label}",
        f"longest word:       {' '.join(map(str, record.longest_word))}",
        f"inversion heights:  {' '.join(map(str, record.inversion_heights))}",
        f"monk coeffs:        {monk_text}  (total {sum(record.monk.values())})",
        f"giambelli coeff:    {record.giambelli}",
        f"ratio:              {_fraction_text(record.ratio)}",
        f"reduced words of v: {record.reduced_word_count_vk}",
        f"oracle:             {oracle_text}",
        "timings ms:         "
        + " ".join(f"{k}={v}" for k, v in record.timings.items()),
    ]
    return report_payload(record), lines, EXIT_OK


# ---------------------------------------------------------------------------
# invariant suite


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


_QUICK_TYPES = ("A1", "A2", "A3", "B2", "B3", "C3", "D3", "G2")
_FULL_TYPES = ("A4", "A5", "A6", "A7", "A8", "B4", "C4", "D4", "F4", "E6", "E7", "E8")


def _chain_rank(rs: RootSystem) -> dict[Word, int]:
    """Longest cover-chain length from a simple root, per positive root."""
    ranks: dict[Word, int] = {}
    ups: dict[Word, list[Word]] = {}
    for lo, up in root_poset_covers(rs):
        ups.setdefault(lo, []).append(up)
    for root in rs.positives:  # positives are sorted by height
        below = [
            ranks[lo] for lo, tops in ups.items() if root in tops
        ]
        ranks[root] = 1 + max(below) if below else 0
    return ranks


def _check_root_counts(level: str) -> str:
    labels = _QUICK_TYPES + (("E6",) if level == "quick" else _FULL_TYPES)
    for label in labels:
        rs = build_root_system(label)
        expected = positive_count_formula(rs.label)
        assert len(rs.positives) == expected, (
            f"{label}: closure found {len(rs.positives)} != formula {expected}"
        )
    return f"{len(labels)} types"


def _check_poset_rank(level: str) -> str:
    labels = ("A3", "B3", "C3", "G2") + (("F4", "E6") if level == "full" else ())
    for label in labels:
        rs = build_root_system(label)
        ranks = _chain_rank(rs)
        for root in rs.positives:
            assert ranks[root] == height(root) - 1, (
                f"{label}: {root} chain rank {ranks[root]} != height-1"
            )
    return f"{len(labels)} types"


def _check_reflect_permutes(level: str) -> str:
    for label in ("A3", "B3", "G2"):
        rs = build_root_system(label)
        for i in range(1, rs.rank + 1):
            simple = rs.simple_root(i)
            images = {reflect(rs, i, r) for r in rs.positives if r != simple}
            assert images == set(rs.positives) - {simple}, (
                f"{label}: reflection {i} does not permute the other positives"
            )
            assert reflect(rs, i, simple) == tuple(-c for c in simple)
    return "3 types, all generators"


def _check_height_histogram(level: str) -> str:
    labels = _QUICK_TYPES + (("E6",) if level == "quick" else _FULL_TYPES)
    for label in labels:
        rs = build_root_system(label)
        hist: dict[int, int] = {}
        for r in rs.positives:
            hist[height(r)] = hist.get(height(r), 0) + 1
        counts = [hist[h] for h in sorted(hist)]
        assert counts == sorted(counts, reverse=True), (
            f"{label}: height histogram {counts} is not weakly decreasing"
        )
        assert counts[0] == rs.rank
    return f"{len(labels)} types"


def _check_longest_inversions(level: str) -> str:
    labels = ("A1", "A2", "A3", "B2", "B3", "C3", "G2", "E6")
    if level == "full":
        labels += ("A4", "B4", "C4", "D4", "F4", "E7", "E8")
    for label in labels:
        rs = build_root_system(label)
        w0 = longest_element_word(rs, range(1, rs.rank + 1))
        assert len(w0) == len(rs.positives), f"{label}: longest word too short"
        assert sorted(inversion_roots(rs, w0)) == sorted(rs.positives), (
            f"{label}: inversion multiset differs from the positive roots"
        )
        mat = element_matrix(rs, w0)
        for j in range(1, rs.rank + 1):
            assert not is_positive_root(mat[j - 1]), (
                f"{label}: generator {j} is not a descent of the longest element"
            )
    return f"{len(labels)} types"


def _check_parabolic_inversions(level: str) -> str:
    labels = ("A3", "B3") + (("A4", "B4", "D4", "F4") if level == "full" else ())
    pairs = 0
    for label in labels:
        rs = build_root_system(label)
        indices = range(1, rs.rank + 1)
        for size in range(rs.rank + 1):
            for subset in combinations(indices, size):
                w = longest_element_word(rs, subset)
                supported = [
                    r for r in rs.positives
                    if all(c == 0 for k, c in enumerate(r) if k + 1 not in subset)
                ]
                assert sorted(inversion_roots(rs, w)) == sorted(supported), (
                    f"{label} J={subset}: inversions differ from supported roots"
                )
                pairs += 1
    return f"{pairs} parabolic subsets"


def _check_act_composition(level: str) -> str:
    checked = 0
    for label in ("A3", "B3", "G2"):
        rs = build_root_system(label)
        words = element_words(rs, max_length=3)
        for w1 in words:
            for w2 in words:
                for j in range(1, rs.rank + 1):
                    beta = rs.simple_root(j)
                    assert act(rs, w1 + w2, beta) == act(rs, w1, act(rs, w2, beta))
                    checked += 1
    return f"{checked} compositions"


def _check_reduced_words(level: str) -> str:
    known = {"A2": 2, "A3": 16, "B2": 2, "G2": 2}
    for label in ("A2", "A3", "B2", "G2"):
        rs = build_root_system(label)
        for w in element_words(rs):
            words = reduced_words(rs, w)
            assert len(set(words)) == len(words), f"{label}: duplicate reduced words"
            target = element_matrix(rs, w)
            for u in words:
                assert is_reduced(rs, u), f"{label}: {u} not reduced"
                assert element_matrix(rs, u) == target, f"{label}: {u} wrong element"
        w0 = longest_element_word(rs, range(1, rs.rank + 1))
        assert len(reduced_words(rs, w0)) == known[label], (
            f"{label}: |R(w0)| != {known[label]}"
        )
    return "4 types, all elements"


def _check_coxeter_patterns(level: str) -> str:
    labels = ("E6",) if level == "quick" else ("E6", "E7", "E8")
    for label in labels:
        rs = build_root_system(label)
        words = reduced_words(rs, coxeter_word(range(1, rs.rank + 1)))
        assert len(words) == 3, f"{label}: |R(v)| = {len(words)} != 3"
    if level == "full":
        rs = build_root_system("E8")
        assert reduced_words(rs, coxeter_word(range(1, 9))) == [
            (1, 2, 3, 4, 5, 6, 7, 8),
            (1, 3, 2, 4, 5, 6, 7, 8),
            (2, 1, 3, 4, 5, 6, 7, 8),
        ], "E8: Coxeter reduced words differ from the expected three"
    return f"{len(labels)} types"


def _check_billey_hand(level: str) -> str:
    a1 = build_root_system("A1")
    assert billey_eval_dp(a1, (1,), (1,)) == LocalizationValue(1, 1)
    a2 = build_root_system("A2")
    w0 = (1, 2, 1)
    assert billey_eval_dp(a2, (), w0) == LocalizationValue(1, 0)
    assert billey_eval_dp(a2, (1,), w0) == LocalizationValue(2, 1)
    assert billey_eval_dp(a2, (2,), w0) == LocalizationValue(2, 1)
    assert billey_eval_dp(a2, (1, 2), w0) == LocalizationValue(2, 2)
    assert billey_eval_dp(a2, (2, 1), w0) == LocalizationValue(2, 2)
    assert billey_eval_dp(a2, w0, w0) == LocalizationValue(2, 3)
    return "7 values"


def _embeds(pattern: Word, word: Word) -> bool:
    k = 0
    for letter in word:
        if k < len(pattern) and pattern[k] == letter:
            k += 1
    return k == len(pattern)


def _check_billey_oracle(level: str) -> str:
    labels = ("A3", "G2") if level == "quick" else ("A3", "B3", "C3", "B2", "G2")
    pairs = 0
    for label in labels:
        rs = build_root_system(label)
        words = element_words(rs, max_length=12)
        for w in words:
            for v in words:
                d = billey_eval_dp(rs, v, w)
                b = billey_eval_bruteforce(rs, v, w)
                assert d == b, f"{label}: dp {d} != backtrack {b} at v={v} w={w}"
                pairs += 1
    for label in ("E6", "E7") if level == "full" else ():
        rs = build_root_system(label)
        vk = coxeter_word(range(1, rs.rank + 1))
        w0 = longest_element_word(rs, range(1, rs.rank + 1))
        d = billey_eval_dp(rs, vk, w0)
        b = billey_eval_bruteforce(rs, vk, w0)
        assert d == b, f"{label}: giambelli dp {d} != backtrack {b}"
        pairs += 1
    return f"{pairs} evaluations"


def _check_billey_subset_scan(level: str) -> str:
    rs = build_root_system("A3")
    w0 = longest_element_word(rs, (1, 2, 3))
    checked = 0
    for v in element_words(rs, max_length=3):
        d = billey_eval_dp(rs, v, w0)
        s = billey_eval_bruteforce(rs, v, w0, full_subset_scan=True)
        assert d == s, f"dp {d} != subset scan {s} at v={v}"
        checked += 1
    return f"{checked} evaluations"


def _check_billey_support(level: str) -> str:
    rs = build_root_system("A3")
    words = element_words(rs)
    for w in words:
        for v in words:
            val = billey_eval_dp(rs, v, w)
            embeds = any(_embeds(p, w) for p in reduced_words(rs, v))
            assert (val.coeff > 0) == embeds, f"support mismatch at v={v} w={w}"
            if len(v) > len(w):
                assert val.coeff == 0
    return f"{len(words) ** 2} pairs"


def _check_billey_window(level: str) -> str:
    from .billey import earliest_sound_window

    rs = build_root_system("A3")
    w0 = longest_element_word(rs, (1, 2, 3))
    for v in ((1,), (1, 2), (2, 1, 3), (1, 2, 1)):
        full = billey_eval_dp(rs, v, w0)
        sound = earliest_sound_window(rs, v, w0)
        assert billey_eval_bruteforce(rs, v, w0, window=sound) == full
        if sound > len(v):
            try:
                billey_eval_bruteforce(rs, v, w0, window=sound - 1)
            except Rejected as exc:
                assert str(sound) in str(exc)
            else:
                raise AssertionError(f"window {sound - 1} was not rejected for v={v}")
    return "4 class words"


def _check_billey_word_independence(level: str) -> str:
    labels = ("A3", "B2") if level == "quick" else ("A3", "B2", "G2")
    checked = 0
    for label in labels:
        rs = build_root_system(label)
        elements = element_words(rs)
        for w in elements:
            words = reduced_words(rs, w)
            if len(words) == 1:
                continue
            for v in elements:
                vals = {billey_eval_dp(rs, v, u) for u in words}
                assert len(vals) == 1, f"{label}: p_{v} varies across words of {w}"
                checked += 1
    if level == "full":
        rs = build_root_system("E6")
        w0 = longest_element_word(rs, range(1, 7))
        alt = braid_variant(rs, w0)
        assert alt is not None and alt != w0
        assert element_matrix(rs, alt) == element_matrix(rs, w0)
        for v in ((1,), (1, 3), coxeter_word(range(1, 7))):
            assert billey_eval_dp(rs, v, w0) == billey_eval_dp(rs, v, alt)
        checked += 3
    return f"{checked} evaluations"


def _check_summation_identity(level: str) -> str:
    labels = ("A2", "A3", "B3", "C3", "G2", "E6")
    if level == "full":
        labels += ("F4", "E7", "E8")
    for label in labels:
        rs = build_root_system(label)
        total = sum(monk_eval(rs, i).coeff for i in range(1, rs.rank + 1))
        expected = sum(height(r) for r in rs.positives)
        assert total == expected, f"{label}: monk total {total} != {expected}"
    return f"{len(labels)} types"


def _check_peterson_hand(level: str) -> str:
    a2 = build_root_system("A2")
    assert monk_eval(a2, 1).coeff == 2 and monk_eval(a2, 2).coeff == 2
    assert giambelli_eval(a2) == LocalizationValue(2, 2)
    assert giambelli_ratio(a2) == 2
    a3 = build_root_system("A3")
    assert {i: monk_eval(a3, i).coeff for i in (1, 2, 3)} == {1: 3, 2: 4, 3: 3}
    assert giambelli_eval(a3) == LocalizationValue(6, 3)
    assert giambelli_ratio(a3) == 6
    assert giambelli_ratio(a3, {1, 3}) == 1
    assert monk_eval(a3, 1, {2, 3}).coeff == 0
    for label in ("A2", "B2", "G2"):
        rs = build_root_system(label)
        for i in range(1, rs.rank + 1):
            assert giambelli_ratio(rs, {i}) == 1
    return "hand values"


def _check_ratio_factorial(level: str) -> str:
    cases = [("A2", (1, 2)), ("A3", (1, 2)), ("A3", (2, 3)), ("A3", (1, 2, 3))]
    if level == "full":
        cases += [("A4", (2, 3, 4)), ("A4", (1, 2, 3, 4))]
    for label, K in cases:
        rs = build_root_system(label)
        assert giambelli_ratio(rs, K) == math.factorial(len(K)), (
            f"{label} K={K}: ratio != |K|!"
        )
    return f"{len(cases)} consecutive subsets"


def _check_peterson_word_independence(level: str) -> str:
    labels = ("A2", "A3", "E6")
    for label in labels:
        rs = build_root_system(label)
        w0 = longest_element_word(rs, range(1, rs.rank + 1))
        alt = braid_variant(rs, w0)
        assert alt is not None and alt != w0, f"{label}: no variant word found"
        for i in range(1, rs.rank + 1):
            assert monk_eval(rs, i) == monk_eval(rs, i, word=alt)
        assert giambelli_eval(rs) == giambelli_eval(rs, word=alt)
    return f"{len(labels)} types"


def _check_structure_constants(level: str) -> str:
    labels = ("A1", "A2", "A3", "B2", "B3", "C3", "G2")
    if level == "full":
        labels += ("A4", "B4", "C4", "D4", "F4")
    solves = 0
    for label in labels:
        rs = build_root_system(label)
        indices = range(1, rs.rank + 1)
        subsets = [
            frozenset(c) for size in range(rs.rank + 1)
            for c in combinations(indices, size)
        ]
        for i in indices:
            for K in subsets:
                constants = monk_structure_constants(rs, i, K)
                residuals = expansion_residuals(rs, i, K, constants)
                assert all(r == 0 for r in residuals.values()), (
                    f"{label} i={i} K={sorted(K)}: nonzero residual"
                )
                solves += 1
    spots = [("E6", 1, frozenset({1, 3}))]
    if level == "full":
        spots.append(("E6", 4, frozenset(range(1, 7))))
    for label, i, K in spots:
        rs = build_root_system(label)
        constants = monk_structure_constants(rs, i, K)
        residuals = expansion_residuals(rs, i, K, constants)
        assert all(r == 0 for r in residuals.values()), (
            f"{label} i={i} K={sorted(K)}: nonzero residual"
        )
        solves += 1
    return f"{solves} expansions"


def _check_constants_hand(level: str) -> str:
    a1 = build_root_system("A1")
    assert monk_structure_constants(a1, 1, {1}) == {
        frozenset({1}): (Fraction(1), 1)
    }
    a2 = build_root_system("A2")
    assert monk_structure_constants(a2, 1, {1}) == {
        frozenset({1}): (Fraction(1), 1),
        frozenset({1, 2}): (Fraction(1), 0),
    }
    assert monk_structure_constants(a2, 1, {2}) == {
        frozenset({1, 2}): (Fraction(2), 0)
    }
    return "3 expansions"


def _check_giambelli_reconstruction(level: str) -> str:
    labels = ("A2", "A3", "B3")
    checked = 0
    for label in labels:
        rs = build_root_system(label)
        indices = range(1, rs.rank + 1)
        for size in range(1, rs.rank + 1):
            for K in combinations(indices, size):
                ratio = giambelli_ratio(rs, K)
                for sub_size in range(len(K) + 1):
                    for J in combinations(K, sub_size):
                        prod = Fraction(1)
                        for i in K:
                            prod *= monk_eval(rs, i, J).coeff
                        rhs = ratio * class_eval(rs, K, J).coeff
                        assert prod == rhs, (
                            f"{label} K={K} J={J}: product {prod} != {rhs}"
                        )
                        checked += 1
    rs = build_root_system("E6")
    K = (1, 3)
    ratio = giambelli_ratio(rs, K)
    for sub_size in range(len(K) + 1):
        for J in combinations(K, sub_size):
            prod = Fraction(1)
            for i in K:
                prod *= monk_eval(rs, i, J).coeff
            assert prod == ratio * class_eval(rs, K, J).coeff
            checked += 1
    return f"{checked} fixed points"


def _check_evaluation_table(level: str) -> str:
    for label in ("A2", "A3"):
        rs = build_root_system(label)
        table = build_evaluation_table(rs)
        indices = range(1, rs.rank + 1)
        subsets = [
            frozenset(c) for size in range(rs.rank + 1)
            for c in combinations(indices, size)
        ]
        for kp in subsets:
            for j in subsets:
                val = table.value(kp, j)
                if kp == j:
                    assert val.coeff > 0, f"{label}: zero diagonal at {sorted(kp)}"
                if not kp <= j:
                    assert val.coeff == 0, f"{label}: nonzero off-triangle entry"
                if kp:
                    assert val.degree == len(kp)
    return "2 types, all pairs"


def _check_report_pipeline(level: str) -> str:
    rs = build_root_system("A3")
    record = build_report(rs)
    assert record.oracle is not None and record.oracle["agrees"]
    assert record.ratio == 6
    payload = report_payload(record)
    dumped = json.dumps(payload, indent=2)
    assert json.dumps(json.loads(dumped), indent=2) == dumped, "json not stable"
    again = report_payload(build_report(rs))
    del payload["timings"], again["timings"]
    assert payload == again, "report payload not deterministic"
    if level == "full":
        e6 = build_report(build_root_system("E6"))
        assert e6.oracle is not None and e6.oracle["agrees"]
    return "pipeline + json round-trip"


_CHECKS: list[tuple[str, Callable[[str], str]]] = [
    ("root_counts", _check_root_counts),
    ("poset_rank_equals_height", _check_poset_rank),
    ("reflect_permutes_positives", _check_reflect_permutes),
    ("height_histogram_monotone", _check_height_histogram),
    ("longest_word_inversions", _check_longest_inversions),
    ("parabolic_inversions", _check_parabolic_inversions),
    ("act_composition", _check_act_composition),
    ("reduced_words_consistency", _check_reduced_words),
    ("coxeter_reduced_words", _check_coxeter_patterns),
    ("billey_hand_values", _check_billey_hand),
    ("billey_oracle_equivalence", _check_billey_oracle),
    ("billey_subset_scan", _check_billey_subset_scan),
    ("billey_bruhat_support", _check_billey_support),
    ("billey_window_soundness", _check_billey_window),
    ("billey_word_independence", _check_billey_word_independence),
    ("monk_summation_identity", _check_summation_identity),
    ("peterson_hand_values", _check_peterson_hand),
    ("giambelli_ratio_factorial", _check_ratio_factorial),
    ("peterson_word_independence", _check_peterson_word_independence),
    ("structure_constants_residual", _check_structure_constants),
    ("structure_constants_hand", _check_constants_hand),
    ("giambelli_reconstruction", _check_giambelli_reconstruction),
    ("evaluation_table_triangular", _check_evaluation_table),
    ("report_pipeline", _check_report_pipeline),
]


def run_checks(level: str = "quick") -> list[CheckResult]:
    """Run the invariant suite; full widens type coverage, quick stays fast."""
    if level not in ("quick", "full"):
        raise Rejected(f"unknown level {level!r}: want quick or full")
    results = []
    for name, fn in _CHECKS:
        try:
            detail = fn(level)
            results.append(CheckResult(name, True, detail))
        except AssertionError as exc:
            results.append(CheckResult(name, False, str(exc)))
        except (Rejected, InvariantViolation) as exc:
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
    return results


def _cmd_verify(ns: argparse.Namespace) -> tuple[dict, list[str], int]:
    results = run_checks(ns.level)
    failed = [r for r in results if not r.ok]
    payload = {
        "level": ns.level,
        "passed": len(results) - len(failed),
        "failed": len(failed),
        "checks": [
            {"name": r.name, "ok": r.ok, "detail": r.detail} for r in results
        ],
    }
    lines = [
        ("ok   " if r.ok else "FAIL ") + f"{r.name}  ({r.detail})" for r in results
    ]
    lines.append(f"passed {payload['passed']}/{len(results)}, level {ns.level}")
    return payload, lines, EXIT_OK if not failed else EXIT_INVARIANT


_COMMANDS: dict[str, Callable[[argparse.Namespace], tuple[dict, list[str], int]]] = {
    "roots": _cmd_roots,
    "poset": _cmd_poset,
    "longest": _cmd_longest,
    "lists": _cmd_lists,
    "monk": _cmd_monk,
    "giambelli": _cmd_giambelli,
    "constants": _cmd_constants,
    "report": _cmd_report,
    "verify": _cmd_verify,
}


def main(argv: Sequence[str] | None = None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        payload, lines, code = _COMMANDS[ns.command](ns)
    except Rejected as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    _emit(payload, lines, ns.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
