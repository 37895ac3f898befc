"""Monk and Giambelli evaluations, ratios, and structure constants."""

import math
from fractions import Fraction

import pytest

from peterschub.billey import LocalizationValue, billey_eval_bruteforce
from peterschub.errors import Rejected
from peterschub.peterson import (
    _fixed_point,
    _subsets_ordered,
    class_eval,
    coxeter_word,
    expansion_residuals,
    full_subset,
    giambelli_eval,
    giambelli_ratio,
    monk_eval,
    monk_structure_constants,
)
from peterschub.rootsys import build_root_system
from peterschub.weyl import (
    _reduced_walk,
    element_matrix,
    element_words,
    longest_element_word,
    reduced_words,
)


def test_coxeter_word():
    assert coxeter_word({3}) == (3,)
    assert coxeter_word([4, 1, 2]) == (1, 2, 4)
    assert coxeter_word(range(1, 9)) == (1, 2, 3, 4, 5, 6, 7, 8)
    with pytest.raises(Rejected):
        coxeter_word(())
    with pytest.raises(Rejected):
        coxeter_word({0, 1})


def test_monk_eval_hand_values():
    # The A3 coefficients are in the peterson_hand_values check.
    a2 = build_root_system("A2")
    assert monk_eval(a2, 1) == LocalizationValue(2, 1)
    assert monk_eval(a2, 2) == LocalizationValue(2, 1)
    b2 = build_root_system("B2")
    # Word (1,2,1,2) has heights [1,2,3,1]: letter 1 at positions 1,3.
    assert monk_eval(b2, 1) == LocalizationValue(4, 1)
    assert monk_eval(b2, 2) == LocalizationValue(3, 1)


def test_monk_eval_absent_letter_is_zero():
    a3 = build_root_system("A3")
    assert monk_eval(a3, 1, {2, 3}) == LocalizationValue(0, 1)
    assert monk_eval(a3, 3, {3}) == LocalizationValue(1, 1)
    with pytest.raises(Rejected):
        monk_eval(a3, 4)


def test_monk_eval_word_independent():
    a3 = build_root_system("A3")
    w0 = longest_element_word(a3, (1, 2, 3))
    for word in reduced_words(a3, w0):
        for i in (1, 2, 3):
            assert monk_eval(a3, i, word=word) == monk_eval(a3, i)


def test_monk_eval_rejects_wrong_word():
    a3 = build_root_system("A3")
    with pytest.raises(Rejected):
        monk_eval(a3, 1, word=(1, 2, 1))  # reduced, but not the longest element
    with pytest.raises(Rejected):
        monk_eval(a3, 1, word=(1, 1, 2, 2, 3, 3))  # not reduced


def test_giambelli_eval_hand_values():
    # The full A2 and A3 values are in the peterson_hand_values check.
    a3 = build_root_system("A3")
    assert giambelli_eval(a3, {2}) == LocalizationValue(1, 1)
    # Commuting pair: w_K = (1,3), heights [1,1], single subword.
    assert giambelli_eval(a3, {1, 3}) == LocalizationValue(1, 2)


def test_giambelli_eval_word_independent():
    a3 = build_root_system("A3")
    w0 = longest_element_word(a3, (1, 2, 3))
    for word in reduced_words(a3, w0):
        assert giambelli_eval(a3, word=word) == giambelli_eval(a3)


def test_giambelli_degree_and_positivity():
    for name in ("A4", "B3", "C3", "D4", "F4", "G2"):
        rs = build_root_system(name)
        val = giambelli_eval(rs)
        assert val.degree == rs.rank
        assert val.coeff > 0


@pytest.mark.parametrize("K, word_count, ratio", (
    # Ten commuting letters: every ordering is a reduced word of v_K.
    (range(1, 20, 2), math.factorial(10), 1),
    # Seven commuting pairs {3k+1, 3k+2}, each pair in one order.
    ([j for j in range(1, 21) if j % 3], math.factorial(14) // 2**7, 2**7),
), ids=("odd", "pairs"))
def test_giambelli_ratio_of_a_class_past_the_word_cap(K, word_count, ratio):
    # The Giambelli formula gives the ratio as |K|!/|R(v_K)|; both classes
    # have more reduced words than the cap on listing them.
    rs = build_root_system("A20")
    assert giambelli_ratio(rs, K) == Fraction(math.factorial(len(K)), word_count) == ratio


def test_giambelli_ratio_type_a_factorial():
    # A2-A4 and A4 {2,3,4} are in the giambelli_ratio_factorial check (full).
    assert giambelli_ratio(build_root_system("A1")) == math.factorial(1)
    assert giambelli_ratio(build_root_system("A4"), {2, 3}) == 2


def test_giambelli_ratio_g2():
    # Heights of (1,2,1,2,1,2) are [1,4,3,5,2,1]: monk coefficients
    # 1+3+2 = 6 and 4+5+1 = 10, Giambelli coefficient 30 (triple-checked
    # against both brute-force routes), ratio 60/30 = 2.
    rs = build_root_system("G2")
    assert monk_eval(rs, 1).coeff == 6
    assert monk_eval(rs, 2).coeff == 10
    g = giambelli_eval(rs)
    w0 = longest_element_word(rs, (1, 2))
    assert g == billey_eval_bruteforce(rs, (1, 2), w0)
    assert g == billey_eval_bruteforce(rs, (1, 2), w0, full_subset_scan=True)
    assert g.coeff == 30
    assert giambelli_ratio(rs) == Fraction(2)


def test_giambelli_ratio_frozen_values():
    # Regression values computed by this library and cross-checked through
    # the dual evaluation routes; no closed form is asserted.
    frozen = {"B2": 2, "B3": 6, "C3": 6, "D4": 12, "F4": 24, "E6": 240}
    for name, expected in frozen.items():
        assert giambelli_ratio(build_root_system(name)) == expected


@pytest.mark.parametrize("label", ("A3", "B3", "G2"))
def test_fixed_point_accepts_exactly_the_words_of_w_j(label):
    # A seed word is checked by its length; the reference compares the
    # element matrices of the seed and the canonical word.
    rs = build_root_system(label)
    words = [u for w in element_words(rs) for u in reduced_words(rs, w)]
    matrices = {u: element_matrix(rs, u) for u in words}
    for J in _subsets_ordered(rs.rank):
        target = element_matrix(rs, longest_element_word(rs, J))
        for u in words:
            if matrices[u] == target:
                assert _fixed_point(rs, J, u) == (u, tuple(_reduced_walk(rs, u, "word")[1]))
            else:
                with pytest.raises(Rejected, match="is not a reduced word for"):
                    _fixed_point(rs, J, u)


def test_class_eval_triangularity():
    a3 = build_root_system("A3")
    assert class_eval(a3, (), ()) == LocalizationValue(1, 0)
    assert class_eval(a3, (), (1, 2)) == LocalizationValue(1, 0)
    assert class_eval(a3, (1,), (2, 3)) == LocalizationValue(0, 1)
    assert class_eval(a3, (1, 2), (1, 2)) == giambelli_eval(a3, (1, 2))
    assert class_eval(a3, (1,), (1, 2, 3)) == monk_eval(a3, 1)


def test_evaluation_table():
    a2 = build_root_system("A2")
    full = frozenset({1, 2})
    assert class_eval(a2, full, full) == LocalizationValue(2, 2)
    assert class_eval(a2, {1}, full) == LocalizationValue(2, 1)
    assert class_eval(a2, {1}, {2}) == LocalizationValue(0, 1)
    assert class_eval(a2, (), {2}) == LocalizationValue(1, 0)


def test_structure_constants_hand_a2():
    # p_s1 * p_s1 and p_s1 * p_s2 are in the structure_constants_hand check.
    rs = build_root_system("A2")
    assert monk_structure_constants(rs, 2, {1}) == {
        frozenset({1, 2}): (Fraction(2), 0)
    }


def test_structure_constants_empty_class():
    rs = build_root_system("A2")
    assert monk_structure_constants(rs, 1, ()) == {
        frozenset({1}): (Fraction(1), 0)
    }


def test_structure_constants_support_shape():
    # Nonzero constants only index supersets of K, with sizes |K| or |K|+1.
    for name in ("A3", "B3", "G2"):
        rs = build_root_system(name)
        K = frozenset({1})
        for i in range(1, rs.rank + 1):
            constants = monk_structure_constants(rs, i, K)
            for kp, (c, e) in constants.items():
                assert K <= kp
                assert len(kp) in (len(K), len(K) + 1)
                assert e == 1 + len(K) - len(kp)
                assert c > 0


def test_expansion_residuals_detect_wrong_constants():
    rs = build_root_system("A2")
    wrong = {frozenset({1, 2}): (Fraction(3), 0)}  # truth is 2
    residuals = expansion_residuals(rs, 1, {2}, wrong)
    assert any(r != 0 for r in residuals.values())


def test_expansion_residuals_reject_bad_exponent():
    rs = build_root_system("A2")
    with pytest.raises(Rejected):
        expansion_residuals(rs, 1, {2}, {frozenset({1, 2}): (Fraction(2), 1)})


def test_expansion_residuals_reject_an_index_outside_the_type():
    rs = build_root_system("A2")
    with pytest.raises(Rejected, match="out of range"):
        expansion_residuals(rs, 1, {2}, {frozenset({2, 5}): (Fraction(2), 0)})


def test_expansion_residuals_reject_too_many_fixed_points():
    # A21 has 2^21 fixed points, twice MAX_FIXED_POINTS; the solve for
    # K = {1} evaluates 21 of them and has no cap.
    rs = build_root_system("A21")
    with pytest.raises(Rejected, match="MAX_FIXED_POINTS"):
        expansion_residuals(rs, 1, {1}, {})


def test_full_subset():
    assert full_subset(build_root_system("B3")) == frozenset({1, 2, 3})
