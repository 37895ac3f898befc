"""Differential tests: Coxeter classes by the heap-forest DP, Monk constants
by the sparse solve.

``class_eval`` evaluates p_{v_K}(w_J) by a dynamic program over the Dynkin
forest induced on K.  The references below are ``billey_eval_dp`` (one
subsequence DP per reduced word of v_K), the backtracking oracle, and, for
commuting letters, the product of Monk values.  ``monk_structure_constants``
solves only at the fixed points w_J with J containing K; the dense
reference kept here solves at every fixed point, with every class value
taken from ``billey_eval_dp``, the way the module did before.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from peterschub import peterson
from peterschub.billey import billey_eval_bruteforce, billey_eval_dp
from peterschub.peterson import (
    _subsets_ordered,
    class_eval,
    coxeter_word,
    full_subset,
    monk_eval,
    monk_structure_constants,
)
from peterschub.rootsys import build_root_system
from peterschub.weyl import longest_element_word

RANK_LE_4 = ("A1", "A2", "A3", "A4", "B2", "B3", "B4",
             "C2", "C3", "C4", "D3", "D4", "F4", "G2")
SOLVER_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "B4",
                "C3", "C4", "D4", "F4", "G2", "E6")


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


# --- the forest DP -----------------------------------------------------------


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


@pytest.mark.parametrize("label", ("A16", "A20"))
def test_commuting_letters_give_the_product_of_monk_values(label):
    # Every reduced word of v_K is an ordering of K, so the class is the
    # product of the degree-one classes, at w0 and at w_K alike.  A20's ten
    # letters have 10! reduced words, past the cap of billey_eval_dp.
    rs = build_root_system(label)
    K = frozenset(range(1, rs.rank + 1, 2))
    for J in (full_subset(rs), K):
        product = 1
        for k in K:
            product *= monk_eval(rs, k, J).coeff
        assert class_eval(rs, K, J).coeff == product


# --- the sparse solve ----------------------------------------------------------


@pytest.mark.parametrize("label", SOLVER_TYPES)
def test_sparse_solve_matches_the_dense_reference(label):
    rs = build_root_system(label)
    for i in range(1, rs.rank + 1):
        for K in _subsets_ordered(rs.rank):
            constants = monk_structure_constants(rs, i, K)
            assert list(constants.items()) == list(dense_constants(rs, i, K).items())
            # Monk's rule: only K itself and K with one more index appear.
            for kp in constants:
                assert kp == K or (K < kp and len(kp) == len(K) + 1)


def test_solve_evaluates_only_the_supersets_of_k():
    rs = build_root_system("A10")
    for fn in (peterson._class_eval, peterson._longest, peterson._monk_at):
        fn.cache_clear()
    monk_structure_constants(rs, 1, {1})
    # 2^9 fixed points contain {1}: the class of {1}, the diagonal and the
    # one other constant, {1, 2}, there.  A solve over all 2^10 fixed points
    # caches over 2^11 values.
    assert peterson._class_eval.cache_info().currsize <= 3 * 2**9
