"""Localization evaluations: dynamic program vs. explicit subword oracle."""

from collections import Counter
from itertools import combinations
from math import prod

import pytest

import peterschub.billey as billey
import peterschub.weyl as weyl
from peterschub.billey import (
    LocalizationValue,
    billey_eval_bruteforce,
    billey_eval_dp,
    earliest_sound_window,
)
from peterschub.errors import Rejected
from peterschub.peterson import _subsets_ordered, class_eval, coxeter_word, giambelli_eval
from peterschub.rootsys import build_root_system, height
from peterschub.weyl import (
    braid_variant,
    element_matrix,
    element_words,
    inversion_roots,
    longest_element_word,
    reduced_words,
)


def test_value_str():
    assert str(LocalizationValue(3, 0)) == "3"
    assert str(LocalizationValue(2, 1)) == "2*t"
    assert str(LocalizationValue(12, 6)) == "12*t^6"


def test_hand_values_a2():
    # The other A2 values are in the billey_hand_values check.
    rs = build_root_system("A2")
    w0 = (1, 2, 1)
    # At v = w0 only the full index subset matches; value is the product
    # of all inversion heights, whichever reduced word spells v.
    assert billey_eval_dp(rs, (2, 1, 2), w0) == LocalizationValue(2, 3)


def test_zero_value_keeps_degree():
    rs = build_root_system("A2")
    val = billey_eval_dp(rs, (2,), (1,))
    assert val == LocalizationValue(0, 1)
    val = billey_eval_dp(rs, (1, 2, 1), (1, 2))
    assert val == LocalizationValue(0, 3)


def test_rejects_non_reduced_inputs():
    rs = build_root_system("A2")
    with pytest.raises(Rejected, match=r"^class word \(1, 1\) is not reduced$"):
        billey_eval_dp(rs, (1, 1), (1, 2, 1))
    with pytest.raises(Rejected, match=r"^fixed-point word \(2, 2\) is not reduced$"):
        billey_eval_dp(rs, (1,), (2, 2))
    with pytest.raises(Rejected):
        billey_eval_bruteforce(rs, (1, 1), (1, 2, 1))


def test_earliest_sound_window():
    rs = build_root_system("A2")
    assert earliest_sound_window(rs, (1, 2), (1, 2, 1)) == 2
    # Pattern set {(1,2,1), (2,1,2)} has final letters 1 and 2; the last
    # position carrying letter 2 is 2, the last carrying 1 is 3.
    assert earliest_sound_window(rs, (1, 2, 1), (1, 2, 1)) == 3
    a3 = build_root_system("A3")
    w0 = (1, 2, 1, 3, 2, 1)
    assert earliest_sound_window(a3, (3,), w0) == 4


def test_earliest_sound_window_matches_the_pattern_reference():
    # The reference reads the final letter of every reduced word of v.
    for label in ("A3", "B3", "C3", "G2"):
        rs = build_root_system(label)
        words = element_words(rs)
        for v in words:
            finals = {u[-1] for u in reduced_words(rs, v) if u}
            for w in words:
                expected = max(
                    [len(v)] + [p for p, letter in enumerate(w, 1) if letter in finals]
                )
                assert earliest_sound_window(rs, v, w) == expected, (label, v, w)


def test_earliest_sound_window_of_many_commuting_letters():
    # v_K for K = {1, 3, ..., 19} in A20 has 10! reduced words, past the
    # enumeration cap; its right descents are all of K, since they commute.
    rs = build_root_system("A20")
    K = range(1, 20, 2)
    w0 = longest_element_word(rs, range(1, 21))
    expected = max(p for p, letter in enumerate(w0, 1) if letter in K)
    assert earliest_sound_window(rs, coxeter_word(K), w0) == expected


def test_window_validation():
    # Sound and too-narrow windows are in the billey_window_soundness check.
    rs = build_root_system("A3")
    w0 = (1, 2, 1, 3, 2, 1)
    with pytest.raises(Rejected, match="exceeds word length"):
        billey_eval_bruteforce(rs, (1, 2), w0, window=7)


def test_subset_scan_cap_holds_for_library_calls(monkeypatch):
    # E7's Coxeter class at w0 would need C(63, 7), about 5.5e8 subsets.
    def scan(*args):
        raise AssertionError("the subset scan started")

    monkeypatch.setattr(billey, "_subset_scan", scan)
    rs = build_root_system("E7")
    w0 = longest_element_word(rs, range(1, 8))
    with pytest.raises(Rejected, match="about 553270671 index subsets"):
        billey_eval_bruteforce(rs, coxeter_word(range(1, 8)), w0, full_subset_scan=True)


def test_window_narrowing_is_exact_when_sound():
    # A sound window must not change any value.
    rs = build_root_system("B2")
    w0 = (1, 2, 1, 2)
    for v in element_words(rs):
        full = billey_eval_bruteforce(rs, v, w0)
        sound = earliest_sound_window(rs, v, w0)
        assert billey_eval_bruteforce(rs, v, w0, window=sound) == full


def test_degree_is_class_length():
    rs = build_root_system("B3")
    w0 = longest_element_word(rs, (1, 2, 3))
    for v in ((), (2,), (1, 2), (2, 3, 2)):
        assert billey_eval_dp(rs, v, w0).degree == len(v)


def test_giambelli_instance_e6_dual_route():
    # The backtracking comparison is in billey_oracle_equivalence (full).
    rs = build_root_system("E6")
    vk = (1, 2, 3, 4, 5, 6)
    w0 = longest_element_word(rs, range(1, 7))
    dp = billey_eval_dp(rs, vk, w0)
    assert dp.degree == 6 and dp.coeff > 0


def root_route_sums(rs, w):
    """Billey's sum at w for every v at once, by roots alone.

    Maps (l, element matrix) to the sum, over the index subsets of w of
    size l whose subword spells that element, of the product of the
    heights of w's inversion roots at those positions.  A subword of
    length l(v) that spells v is a reduced word of v.
    """
    heights = [height(root) for root in inversion_roots(rs, w)]
    sums = Counter()
    for size in range(len(w) + 1):
        for subset in combinations(range(len(w)), size):
            key = (size, element_matrix(rs, [w[p] for p in subset]))
            sums[key] += prod(heights[p] for p in subset)
    return sums


@pytest.mark.parametrize(
    "label,every_w",
    [("A3", True), ("B2", True), ("G2", True), ("B3", False), ("C3", False), ("A4", False)],
)
def test_dp_matches_the_root_route(label, every_w):
    # The root route shares no code with the DP: no height walk, no
    # reduced words and no descent graph.
    rs = build_root_system(label)
    elements = element_words(rs)
    for w in elements if every_w else [longest_element_word(rs, range(1, rs.rank + 1))]:
        sums = root_route_sums(rs, w)
        for v in elements:
            expected = sums[(len(v), element_matrix(rs, v))]
            assert billey_eval_dp(rs, v, w) == LocalizationValue(expected, len(v)), (v, w)


@pytest.mark.parametrize(
    "label,every_j", [("A3", True), ("B2", True), ("G2", True), ("B3", False), ("C3", False)]
)
def test_coxeter_classes_match_the_root_route(label, every_j):
    # class_eval and giambelli_eval run the DP on the ideals of K's Dynkin
    # components side by side; the root route sums the same subwords with
    # no height walk, no reduced words and no descent graph.
    rs = build_root_system(label)
    full = frozenset(range(1, rs.rank + 1))
    for J in _subsets_ordered(rs.rank) if every_j else [full]:
        sums = root_route_sums(rs, longest_element_word(rs, J))
        for K in _subsets_ordered(rs.rank):
            if K and K <= J:
                expected = sums[(len(K), element_matrix(rs, coxeter_word(K)))]
                assert class_eval(rs, K, J) == LocalizationValue(expected, len(K)), (K, J)
    w0 = longest_element_word(rs, full)
    for u in (w0, reduced_words(rs, w0)[-1]):
        expected = root_route_sums(rs, u)[(rs.rank, element_matrix(rs, coxeter_word(full)))]
        assert giambelli_eval(rs, word=u) == LocalizationValue(expected, rs.rank), u


@pytest.mark.parametrize("label", ("F4", "B5", "A6", "D6"))
def test_dp_answers_w0_past_the_word_cap(label, monkeypatch):
    # w0 of each type has more than 10^6 reduced words.  At v = w = w0
    # only the full index subset counts, so the value is the product of
    # w0's inversion heights, at any reduced word of w0.
    monkeypatch.setattr(billey, "reduced_words", None)
    rs = build_root_system(label)
    w0 = longest_element_word(rs, range(1, rs.rank + 1))
    expected = LocalizationValue(prod(height(r) for r in inversion_roots(rs, w0)), len(w0))
    assert billey_eval_dp(rs, w0, w0) == expected
    assert billey_eval_dp(rs, w0, braid_variant(rs, w0)) == expected


def test_dp_refuses_an_ideal_past_its_cap(monkeypatch):
    # E7's w0 has an ideal of 2903040 elements; A4's 120 show the same refusal.
    billey._ideal.cache_clear()
    monkeypatch.setattr(weyl, "_COUNT_MEMO_CAP", 100)
    rs = build_root_system("A4")
    w0 = longest_element_word(rs, range(1, 5))
    with pytest.raises(Rejected, match=r"passes the cap of 100 elements \(_COUNT_MEMO_CAP\)$"):
        billey_eval_dp(rs, w0, w0)
    assert billey_eval_dp(rs, (1, 2, 1), w0) == billey_eval_bruteforce(rs, (1, 2, 1), w0)
