"""Differential tests: height-vector walks against rank x rank matrix walks.

The weyl module answers reducedness, inversion heights, longest words,
reduced words and element equality from one height vector per prefix.
The references below recompute each answer from element matrices
(``element_matrix`` and a local right multiplication), the way the module
did before the vector walk, and the tests hold the two routes equal.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from peterschub.errors import Rejected
from peterschub.rootsys import build_root_system, height, is_negative_root, is_positive_root
from peterschub.weyl import (
    _longest_walk,
    _reduced_walk,
    _walk,
    braid_variant,
    element_matrix,
    element_words,
    inversion_roots,
    is_reduced,
    longest_element_word,
    reduced_words,
)

FUZZ_TYPES = ("A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "D4", "F4", "G2")
RANK_LE_4 = ("A1", "A2", "A3", "A4", "B2", "B3", "B4",
             "C2", "C3", "C4", "D3", "D4", "F4", "G2")


# --- matrix references -----------------------------------------------------


def mul_right(rs, mat, j):
    """Column j' of w*s_j is col_j' - cartan[j][j'] * col_j."""
    row = rs.cartan[j - 1]
    col_j = mat[j - 1]
    return tuple(
        tuple(c - row[jp] * cj for c, cj in zip(col, col_j))
        for jp, col in enumerate(mat)
    )


def identity(rank):
    return tuple(tuple(int(k == j) for k in range(rank)) for j in range(rank))


def prefix_roots(rs, word):
    """The image of alpha_j under each prefix, one per letter j."""
    mat = identity(rs.rank)
    roots = []
    for j in word:
        roots.append(mat[j - 1])
        mat = mul_right(rs, mat, j)
    return roots


def ref_longest(rs, subset):
    mat = identity(rs.rank)
    word = []
    while True:
        for j in sorted(subset):
            if is_positive_root(mat[j - 1]):
                word.append(j)
                mat = mul_right(rs, mat, j)
                break
        else:
            return tuple(word)


def ref_reduced_words(rs, word):
    out = []

    def walk(mat, suffix):
        if mat == identity(rs.rank):
            out.append(tuple(reversed(suffix)))
            return
        for j in range(1, rs.rank + 1):
            if is_negative_root(mat[j - 1]):
                walk(mul_right(rs, mat, j), suffix + [j])

    walk(element_matrix(rs, word), [])
    return sorted(out)


def ref_element_matrices(rs):
    """Every element matrix, by breadth-first walk of the right weak order."""
    seen = {identity(rs.rank)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for mat in frontier:
            for j in range(1, rs.rank + 1):
                if is_positive_root(mat[j - 1]):
                    m2 = mul_right(rs, mat, j)
                    if m2 not in seen:
                        seen.add(m2)
                        nxt.append(m2)
        frontier = nxt
    return seen


# --- fuzzed words ----------------------------------------------------------


@st.composite
def type_and_words(draw):
    rs = build_root_system(draw(st.sampled_from(FUZZ_TYPES)))
    letters = st.integers(min_value=1, max_value=rs.rank)
    w1 = tuple(draw(st.lists(letters, max_size=12)))
    w2 = tuple(draw(st.lists(letters, max_size=12)))
    return rs, w1, w2


@given(type_and_words())
@settings(deadline=None, max_examples=300)
def test_vector_walk_matches_matrix_walk(case):
    rs, w1, w2 = case
    for word in (w1, w2):
        roots = prefix_roots(rs, word)
        reduced = all(is_positive_root(r) for r in roots)
        assert is_reduced(rs, word) == reduced
        if reduced:
            assert _reduced_walk(rs, word, "word")[1] == [height(r) for r in roots]
            assert inversion_roots(rs, word) == roots
        else:
            with pytest.raises(Rejected):
                _reduced_walk(rs, word, "word")
    if not is_reduced(rs, w1):
        return
    # A braid variant spells the same element, so both sides of the
    # equivalence get exercised, not only the unequal one.
    for other in (w2, braid_variant(rs, w1)):
        if other is not None and is_reduced(rs, other):
            same_vector = _walk(rs, w1)[2] == _walk(rs, other)[2]
            assert same_vector == (element_matrix(rs, w1) == element_matrix(rs, other))


# --- exhaustive checks -----------------------------------------------------


@pytest.mark.parametrize("label", RANK_LE_4)
def test_longest_words_match_matrix_greedy(label):
    rs = build_root_system(label)
    for size in range(rs.rank + 1):
        for subset in combinations(range(1, rs.rank + 1), size):
            assert longest_element_word(rs, subset) == ref_longest(rs, subset)


@pytest.mark.parametrize("label", RANK_LE_4)
def test_longest_walk_records_the_letter_heights(label):
    rs = build_root_system(label)
    for size in range(rs.rank + 1):
        for subset in combinations(range(1, rs.rank + 1), size):
            word, heights = _longest_walk(rs, subset)
            assert word == longest_element_word(rs, subset)
            assert list(heights) == _walk(rs, word)[1]


@pytest.mark.parametrize("label", ("A3", "B3", "G2"))
def test_reduced_words_match_matrix_recursion(label):
    rs = build_root_system(label)
    words = element_words(rs)
    assert {element_matrix(rs, w) for w in words} == ref_element_matrices(rs)
    for w in words:
        assert reduced_words(rs, w) == ref_reduced_words(rs, w)
