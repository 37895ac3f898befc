"""Differential tests: Coxeter classes against references, and Monk
constants by Monk's rule.

``class_eval`` evaluates p_{v_K}(w_J) by ``billey``'s DP on the ideals of
K's Dynkin components, side by side.  The references below are
``billey_eval_dp`` on the one ideal below v_K, the backtracking oracle,
and, for commuting letters, the product of Monk values; the independent
route is ``tests/test_billey.py::test_coxeter_classes_match_the_root_route``.
In test names, "forest" stands for ``class_eval`` and "pattern dp" for
``billey_eval_dp``.  ``monk_structure_constants``
solves only at the fixed points w_K and w_{K+j} and certifies the rest; the
dense reference kept here solves at every fixed point, with every class
value taken from ``billey_eval_dp``.  Values at a
disconnected J are products over its components; they are held equal to
``billey_eval_dp`` and ``monk_coefficients`` on the whole word of w_J.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from peterschub import billey, peterson, weyl
from peterschub.billey import billey_eval_bruteforce, billey_eval_dp
from peterschub.checks import _subsets_ordered
from peterschub.peterson import (
    class_eval,
    coxeter_word,
    full_subset,
    giambelli_eval,
    monk_coefficients,
    monk_eval,
    monk_structure_constants,
)
from peterschub.rootsys import build_root_system
from peterschub.weyl import (
    _longest_walk as longest_walk,
    _walk,
    longest_element_word,
    reduced_words,
)

RANK_LE_4 = ("A1", "A2", "A3", "A4", "B2", "B3", "B4",
             "C2", "C3", "C4", "D3", "D4", "F4", "G2")


# --- references ------------------------------------------------------------


@cache
def dp_class(label, K, J):
    """p_{v_K}(w_J) from billey_eval_dp, 1 for the empty class, 0 off the grid."""
    if not K:
        return 1
    if not K <= J:
        return 0
    rs = build_root_system(label)
    return billey_eval_dp(rs, coxeter_word(K), longest_element_word(rs, J)).coeff


def dense_constants(rs, i, K):
    """Back-substitution over all 2^rank fixed points, every unknown solved."""
    label = str(rs.label)
    solved = {}
    for J in _subsets_ordered(rs.rank):
        acc = Fraction(monk_eval(rs, i, J).coeff * dp_class(label, K, J))
        for kp, c in solved.items():
            if c and kp < J:
                acc -= c * dp_class(label, kp, J)
        solved[J] = acc / dp_class(label, J, J)
    return {kp: (c, 1 + len(K) - len(kp)) for kp, c in solved.items() if c}


def inclusion_pairs(rs):
    for J in _subsets_ordered(rs.rank):
        for size in range(1, len(J) + 1):
            for K in combinations(sorted(J), size):
                yield frozenset(K), J


# --- Coxeter classes --------------------------------------------------------


@pytest.mark.parametrize("label", RANK_LE_4 + ("E6",))
def test_forest_matches_the_pattern_dp_on_every_inclusion_pair(label):
    rs = build_root_system(label)
    for K, J in inclusion_pairs(rs):
        value = class_eval(rs, K, J)
        assert value.degree == len(K)
        assert value.coeff == dp_class(label, K, J), (sorted(K), sorted(J))


@pytest.mark.parametrize("label", ("E7", "E8"))
def test_forest_matches_the_pattern_dp_on_four_letters_at_w0(label):
    rs = build_root_system(label)
    w0 = longest_element_word(rs, full_subset(rs))
    for K in combinations(range(1, rs.rank + 1), 4):
        expected = billey_eval_dp(rs, K, w0)
        assert class_eval(rs, K, full_subset(rs)) == expected, K


@st.composite
def inclusion_pair(draw):
    rs = build_root_system(draw(st.sampled_from(RANK_LE_4 + ("A5", "D5", "E6"))))
    indices = range(1, rs.rank + 1)
    J = draw(st.sets(st.sampled_from(indices), min_size=1))
    K = draw(st.sets(st.sampled_from(sorted(J)), min_size=1))
    return rs, frozenset(K), frozenset(J)


@given(inclusion_pair())
@settings(deadline=None, max_examples=150)
def test_forest_matches_the_backtracking_oracle(case):
    rs, K, J = case
    oracle = billey_eval_bruteforce(rs, coxeter_word(K), longest_element_word(rs, J))
    assert class_eval(rs, K, J) == oracle


@pytest.mark.parametrize("label", ("A16", "A20", "A40"))
def test_commuting_letters_give_the_product_of_monk_values(label, monkeypatch):
    # Every reduced word of v_K is an ordering of K, so the class is the
    # product of the degree-one classes, at w0 and at w_K alike.  A20's ten
    # letters have 10! reduced words, past the word cap of the oracle.  Each
    # letter's ideal has two elements, while one ideal of A40's twenty
    # commuting letters would have 2^20, far past the cap of 64 set here.
    for fn in (billey._ideal, peterson._class_ideal, peterson._connected_class):
        fn.cache_clear()
    monkeypatch.setattr(weyl, "_COUNT_MEMO_CAP", 64)
    rs = build_root_system(label)
    K = frozenset(range(1, rs.rank + 1, 2))
    for J in (full_subset(rs), K):
        product = 1
        for k in K:
            product *= monk_eval(rs, k, J).coeff
        assert class_eval(rs, K, J).coeff == product


@pytest.mark.parametrize("label", ("A3", "B3", "C3", "G2", "D4"))
def test_giambelli_on_every_seed_word_matches_the_pattern_dp(label):
    # A seed word is summed on its own heights, so every reduced word of
    # w_K is a separate differential case.
    rs = build_root_system(label)
    for K in _subsets_ordered(rs.rank):
        if not K:
            continue
        v = coxeter_word(K)
        for u in reduced_words(rs, longest_element_word(rs, K)):
            assert giambelli_eval(rs, K, word=u) == billey_eval_dp(rs, v, u), (K, u)


# --- the factorization over the components of J ------------------------------


def is_connected(rs, J):
    """Whether J induces a connected Dynkin subdiagram (a local walk)."""
    J = set(J)
    reached, todo = set(), [min(J)]
    while todo:
        a = todo.pop()
        if a not in reached:
            reached.add(a)
            todo += [b for b in J if rs.cartan[a - 1][b - 1]]
    return reached == J


@st.composite
def disconnected_pair(draw):
    rs = build_root_system(draw(st.sampled_from(("A12", "B9", "D10", "E8"))))
    indices = range(1, rs.rank + 1)
    J = draw(
        st.sets(st.sampled_from(indices), min_size=2)
        .filter(lambda J: not is_connected(rs, J))
    )
    K = draw(st.sets(st.sampled_from(sorted(J)), min_size=1, max_size=7))
    return rs, frozenset(K), frozenset(J)


@given(disconnected_pair())
@settings(deadline=None, max_examples=40)
def test_factored_values_match_the_whole_word_of_w_j(case):
    # The class and Monk values at a disconnected J are products of values
    # on its components; the references walk the whole canonical w_J word.
    rs, K, J = case
    word = longest_element_word(rs, J)
    assert class_eval(rs, K, J) == billey_eval_dp(rs, coxeter_word(K), word)
    whole = monk_coefficients(word, _walk(rs, word)[1], rs.rank)
    for i in range(1, rs.rank + 1):
        assert monk_eval(rs, i, J).coeff == whole[i], i
        # The factored route that the Monk solve reads, 0 for i outside J.
        assert class_eval(rs, {i}, J).coeff == whole[i], i


# --- the Monk solve ------------------------------------------------------------


@pytest.mark.parametrize("label", RANK_LE_4 + ("E6",))
def test_sparse_solve_matches_the_dense_reference(label):
    rs = build_root_system(label)
    for i in range(1, rs.rank + 1):
        for K in _subsets_ordered(rs.rank):
            constants = monk_structure_constants(rs, i, K)
            # The same constants in the same order, so dict order is gated too.
            assert list(constants.items()) == list(dense_constants(rs, i, K).items())
            # Monk's rule: only K itself and K with one more index appear.
            for kp in constants:
                assert kp == K or (K < kp and len(kp) == len(K) + 1)


def test_solve_evaluates_only_the_supersets_of_k(monkeypatch):
    rs = build_root_system("A10")
    for fn in (peterson._connected_class, peterson._longest, peterson._class_ideal,
               billey._ideal):
        fn.cache_clear()
    walked = []

    def walk(rs, J):
        walked.append(J)
        return longest_walk(rs, J)

    monkeypatch.setattr(peterson, "_longest_walk", walk)
    monk_structure_constants(rs, 1, {1})
    # The solve evaluates w_{1} and the nine w_{1,j}, whose components are
    # {1}, {1, 2} and the {j}; the certificate evaluates the ten admissible
    # components [1, r] that hold 1 (no P holding 2 but not 1 is admissible,
    # as 1 is in K).  Only connected subsets are walked: 18 of A10's 55.
    assert all(len(peterson._components(rs, J)) == 1 for J in walked)
    assert len(walked) == peterson._longest.cache_info().currsize <= 2 * 10
    # The diagonals of the ten solved components, and on each [1, r] the
    # classes of {1} and {1, 2} (the other constant): 27 in all.  A cache
    # keyed by (K', J) over the 2^9 fixed points would hold over 1000.
    assert peterson._connected_class.cache_info().currsize <= 3 * 10
    # One ideal per class the solve and the certificate meet, {1}, {1, 2}
    # and the eight {j} for j >= 3, each connected and built once.
    assert billey._ideal.cache_info().currsize == peterson._class_ideal.cache_info().currsize
    assert billey._ideal.cache_info().misses <= 10
