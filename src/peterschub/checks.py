"""The invariant suite: one registry of checks over every layer.

Each check takes a level, ``"quick"`` or ``"full"`` (full widens the type
coverage), asserts its invariants and returns a one-line detail of what it
covered.  ``run_checks`` runs the registry in order and turns each outcome
into a ``CheckResult``; the ``verify`` subcommand renders those results,
and the test suite calls every check directly at both levels.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable

from .billey import (
    LocalizationValue,
    billey_eval_bruteforce,
    billey_eval_dp,
    earliest_sound_window,
)
from .errors import InvariantViolation, Rejected
from .peterson import (
    _subsets_ordered,
    build_report,
    class_eval,
    coxeter_word,
    expansion_residuals,
    giambelli_eval,
    giambelli_ratio,
    monk_eval,
    monk_structure_constants,
)
from .rootsys import (
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


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


_QUICK_TYPES = ("A1", "A2", "A3", "B2", "B3", "C3", "D3", "G2")
_FULL_TYPES = ("A4", "A5", "A6", "A7", "A8", "B4", "C4", "D4", "F4", "E6", "E7", "E8")


def _catalog(level: str) -> tuple[str, ...]:
    """The types of the catalog-wide checks: quick adds E6, full the rest."""
    return _QUICK_TYPES + (("E6",) if level == "quick" else _FULL_TYPES)


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
    labels = _catalog(level)
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
    labels = _catalog(level)
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
    # Every (i, K) of each listed type, then spot checks in E6.
    cases = []
    for label in labels:
        rs = build_root_system(label)
        indices = range(1, rs.rank + 1)
        cases += [(rs, i, K) for i in indices for K in _subsets_ordered(rs.rank)]
    e6 = build_root_system("E6")
    cases.append((e6, 1, frozenset({1, 3})))
    if level == "full":
        cases.append((e6, 4, frozenset(range(1, 7))))
    for rs, i, K in cases:
        constants = monk_structure_constants(rs, i, K)
        residuals = expansion_residuals(rs, i, K, constants)
        assert all(r == 0 for r in residuals.values()), (
            f"{rs.label} i={i} K={sorted(K)}: nonzero residual"
        )
    return f"{len(cases)} expansions"


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
    # Every nonempty K of each listed type, then one commuting pair in E6.
    cases = []
    for label in ("A2", "A3", "B3"):
        rs = build_root_system(label)
        indices = range(1, rs.rank + 1)
        for size in range(1, rs.rank + 1):
            cases += [(rs, K) for K in combinations(indices, size)]
    cases.append((build_root_system("E6"), (1, 3)))
    checked = 0
    for rs, K in cases:
        ratio = giambelli_ratio(rs, K)
        for sub_size in range(len(K) + 1):
            for J in combinations(K, sub_size):
                prod = Fraction(1)
                for i in K:
                    prod *= monk_eval(rs, i, J).coeff
                rhs = ratio * class_eval(rs, K, J).coeff
                assert prod == rhs, (
                    f"{rs.label} K={K} J={J}: product {prod} != {rhs}"
                )
                checked += 1
    return f"{checked} fixed points"


def _check_evaluation_table(level: str) -> str:
    for label in ("A2", "A3"):
        rs = build_root_system(label)
        subsets = list(_subsets_ordered(rs.rank))
        for kp in subsets:
            for j in subsets:
                val = class_eval(rs, kp, j)
                if kp == j:
                    assert val.coeff > 0, f"{label}: zero diagonal at {sorted(kp)}"
                if not kp <= j:
                    assert val.coeff == 0, f"{label}: nonzero off-triangle entry"
                if kp:
                    assert val.degree == len(kp)
    return "2 types, all pairs"


def _check_report_pipeline(level: str) -> str:
    rs = build_root_system("A3")
    payload = build_report(rs)
    assert payload["oracle"] is not None and payload["oracle"]["agrees"]
    assert payload["ratio"] == {"numerator": 6, "denominator": 1}
    dumped = json.dumps(payload, indent=2)
    assert json.dumps(json.loads(dumped), indent=2) == dumped, "json not stable"
    again = build_report(rs)
    del payload["timings"], again["timings"]
    assert payload == again, "report payload not deterministic"
    if level == "full":
        e6 = build_report(build_root_system("E6"))
        assert e6["oracle"] is not None and e6["oracle"]["agrees"]
    return "pipeline + json round-trip"


CHECKS: list[tuple[str, Callable[[str], str]]] = [
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
    for name, fn in CHECKS:
        try:
            detail = fn(level)
            results.append(CheckResult(name, True, detail))
        except AssertionError as exc:
            results.append(CheckResult(name, False, str(exc)))
        except (Rejected, InvariantViolation) as exc:
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
    return results
