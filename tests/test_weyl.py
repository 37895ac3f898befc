"""Words, the root action, reducedness, longest elements, enumeration."""

import pytest

import peterschub.weyl as weyl
from peterschub.errors import Rejected
from peterschub.rootsys import build_root_system
from peterschub.weyl import (
    act,
    braid_variant,
    element_matrix,
    element_words,
    inversion_root,
    inversion_roots,
    is_reduced,
    longest_element_word,
    reduced_words,
)


def test_act_simple_cases():
    rs = build_root_system("A2")
    assert act(rs, (1,), (1, 0)) == (-1, 0)
    assert act(rs, (1,), (0, 1)) == (1, 1)
    assert act(rs, (), (1, 1)) == (1, 1)
    # Last letter acts first: s1 s2 (alpha_1) = s1(alpha_1 + alpha_2) = alpha_2.
    assert act(rs, (1, 2), (1, 0)) == (0, 1)
    assert act(rs, (2, 1), (1, 0)) == (-1, -1)


def test_act_composition_property():
    rs = build_root_system("B3")
    w1, w2 = (1, 3, 2), (2, 3, 3, 1)
    for j in (1, 2, 3):
        beta = rs.simple_root(j)
        assert act(rs, w1 + w2, beta) == act(rs, w1, act(rs, w2, beta))


def test_act_rejects_bad_letters():
    rs = build_root_system("A2")
    with pytest.raises(Rejected):
        act(rs, (0,), (1, 0))
    with pytest.raises(Rejected):
        act(rs, (3,), (1, 0))


def test_element_matrix_columns_are_images():
    rs = build_root_system("G2")
    word = (1, 2, 2, 1, 2)
    mat = element_matrix(rs, word)
    for j in (1, 2):
        assert mat[j - 1] == act(rs, word, rs.simple_root(j))


def test_inversion_roots_a2():
    rs = build_root_system("A2")
    assert inversion_roots(rs, (1, 2, 1)) == [(1, 0), (1, 1), (0, 1)]
    assert inversion_root(rs, (1, 2, 1), 2) == (1, 1)


def test_inversion_roots_reject_non_reduced():
    rs = build_root_system("A2")
    with pytest.raises(Rejected):
        inversion_roots(rs, (1, 1))
    with pytest.raises(Rejected):
        inversion_root(rs, (1, 1), 2)
    with pytest.raises(Rejected):
        inversion_root(rs, (1, 2, 1), 4)
    with pytest.raises(Rejected):
        inversion_root(rs, (1, 2, 1), 0)


def test_is_reduced():
    rs = build_root_system("A2")
    assert is_reduced(rs, ())
    assert is_reduced(rs, (1, 2, 1))
    assert not is_reduced(rs, (1, 1))
    assert not is_reduced(rs, (1, 2, 1, 2))  # longer than the longest element
    b2 = build_root_system("B2")
    assert is_reduced(b2, (1, 2, 1, 2))
    assert not is_reduced(b2, (1, 2, 1, 2, 1))


def test_letter_heights_values():
    # The validator hands back the same heights for a reduced word.
    a2 = build_root_system("A2")
    a3 = build_root_system("A3")
    b2 = build_root_system("B2")
    for rs, word, heights in (
        (a2, (1, 2, 1), [1, 2, 1]),
        (a3, (1, 2, 1, 3, 2, 1), [1, 2, 1, 3, 2, 1]),
        (b2, (1, 2, 1, 2), [1, 2, 3, 1]),
    ):
        assert weyl._walk(rs, word)[1] == heights
        assert weyl._reduced_walk(rs, word, "word")[1] == heights


def test_walk_heights_of_a_non_reduced_word():
    # The last letter shortens the word: its mu_j is negative.
    assert weyl._walk(build_root_system("A2"), (1, 2, 1, 2))[1] == [1, 2, 1, -1]


def test_walk_vectors_agree_on_words_of_one_element():
    rs = build_root_system("A2")
    assert weyl._walk(rs, (1, 2, 1))[2] == (-1, -1)
    assert weyl._walk(rs, (2, 1, 2))[2] == (-1, -1)


def test_reduced_walk_names_the_word_it_rejects():
    rs = build_root_system("A2")
    with pytest.raises(Rejected, match=r"^class word \(1, 1\) is not reduced$"):
        weyl._reduced_walk(rs, [1, 1], "class word")
    with pytest.raises(Rejected, match=r"^word \(1, 2, 1, 2\) is not reduced$"):
        reduced_words(rs, (1, 2, 1, 2))


def test_longest_element_words_canonical():
    a2 = build_root_system("A2")
    assert longest_element_word(a2, (1, 2)) == (1, 2, 1)
    a3 = build_root_system("A3")
    assert longest_element_word(a3, (1, 2, 3)) == (1, 2, 1, 3, 2, 1)
    b2 = build_root_system("B2")
    assert longest_element_word(b2, (1, 2)) == (1, 2, 1, 2)
    g2 = build_root_system("G2")
    assert longest_element_word(g2, (1, 2)) == (1, 2, 1, 2, 1, 2)


def test_longest_element_parabolic():
    a3 = build_root_system("A3")
    assert longest_element_word(a3, ()) == ()
    assert longest_element_word(a3, {2}) == (2,)
    assert longest_element_word(a3, {1, 3}) == (1, 3)
    assert longest_element_word(a3, {2, 3}) == (2, 3, 2)
    with pytest.raises(Rejected):
        longest_element_word(a3, {4})


def test_every_subset_index_is_descent():
    rs = build_root_system("B3")
    for subset in ((1,), (1, 2), (2, 3), (1, 2, 3)):
        word = longest_element_word(rs, subset)
        mat = element_matrix(rs, word)
        for j in subset:
            assert all(c <= 0 for c in mat[j - 1])


def test_reduced_words_small():
    a2 = build_root_system("A2")
    assert reduced_words(a2, (1, 2, 1)) == [(1, 2, 1), (2, 1, 2)]
    assert reduced_words(a2, (2, 1, 2)) == [(1, 2, 1), (2, 1, 2)]
    assert reduced_words(a2, ()) == [()]
    assert reduced_words(a2, (2,)) == [(2,)]


def test_reduced_words_a3_longest():
    # Count, reducedness and element are in the reduced_words_consistency check.
    rs = build_root_system("A3")
    words = reduced_words(rs, (1, 2, 1, 3, 2, 1))
    assert words == sorted(words)
    assert words[0] == (1, 2, 1, 3, 2, 1)


def test_reduced_words_rejects_non_reduced():
    rs = build_root_system("A2")
    with pytest.raises(Rejected):
        reduced_words(rs, (1, 1))


def test_reduced_words_guard(monkeypatch):
    monkeypatch.setattr(weyl, "REDUCED_WORD_LIMIT", 10)
    rs = build_root_system("A3")
    with pytest.raises(Rejected):
        reduced_words(rs, (1, 2, 1, 3, 2, 1))  # 16 words > patched limit


def test_reduced_words_of_a_long_element_hit_the_word_cap():
    # |w0| = 1035 letters: enumeration must refuse by its word cap, not
    # run out of interpreter stack.
    rs = build_root_system("A45")
    w0 = longest_element_word(rs, range(1, 46))
    with pytest.raises(Rejected, match="more than 1000000 reduced words"):
        reduced_words(rs, w0)


def test_element_words_orders():
    assert len(element_words(build_root_system("A2"))) == 6
    assert len(element_words(build_root_system("A3"))) == 24
    assert len(element_words(build_root_system("B3"))) == 48
    assert len(element_words(build_root_system("G2"))) == 12
    assert len(element_words(build_root_system("D4"))) == 192


def test_element_words_truncation_and_limit():
    rs = build_root_system("A3")
    short = element_words(rs, max_length=2)
    assert all(len(w) <= 2 for w in short)
    assert len(short) == 1 + 3 + 5  # identity, three generators, five of length 2
    with pytest.raises(Rejected):
        element_words(build_root_system("E6"), limit=1000)


def test_element_words_are_lex_minimal():
    rs = build_root_system("B2")
    for w in element_words(rs):
        assert w == min(reduced_words(rs, w))


def test_braid_variant():
    a2 = build_root_system("A2")
    assert braid_variant(a2, (1, 2, 1)) == (2, 1, 2)
    assert braid_variant(a2, (1, 2)) is None
    assert braid_variant(a2, (1,)) is None
    a3 = build_root_system("A3")
    w0 = (1, 2, 1, 3, 2, 1)
    alt = braid_variant(a3, w0)
    assert alt == (1, 2, 3, 1, 2, 1)
    assert element_matrix(a3, alt) == element_matrix(a3, w0)
