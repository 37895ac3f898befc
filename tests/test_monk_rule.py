"""Differential tests: Monk constants by Monk's rule and its certificate,
residuals by the pruned walk.

``monk_structure_constants`` solves at rank - |K| + 1 fixed points and
``_certify``s the answer; ``expansion_residuals`` visits only the fixed
points where some class of the expansion can be nonzero and returns the
nonzero residuals.  The references below are the routines they replaced:
``sparse_constants`` back-substitutes over every fixed point w_J with J
containing K, and ``full_residuals`` evaluates both sides at all 2^rank
fixed points.  The certificate is held to the full walk's verdict on the
solved maps and on perturbed ones: a constant moved by +1, -1 or +1/2, a
constant dropped, an extra constant at a subset without K, and one at K
with an added index that had none.
"""

import tracemalloc
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from peterschub import cli, peterson
from peterschub.errors import InvariantViolation
from peterschub.peterson import (
    _certify,
    _class_in,
    _components,
    _connected_class,
    _monk_in,
    _subsets_ordered,
    expansion_residuals,
    monk_structure_constants,
)
from peterschub.rootsys import build_root_system

RANK_LE_4 = ("A1", "A2", "A3", "A4", "B2", "B3", "B4",
             "C2", "C3", "C4", "D3", "D4", "F4", "G2")


# --- references ------------------------------------------------------------


def sparse_constants(rs, i, K):
    """Back-substitution in integers over every w_J with J containing K."""
    K = frozenset(K)
    nums, denom, out = {}, 1, {}
    for J in _subsets_ordered(rs.rank):
        if not K <= J:
            continue
        comps = _components(rs, J)
        acc = _monk_in(rs, i, comps) * _class_in(rs, K, comps) * denom
        for kp, n in nums.items():
            if kp < J:
                acc -= n * _class_in(rs, kp, comps)
        diag = 1
        for P in comps:
            diag *= _connected_class(rs, P, P)
        if acc:
            c = Fraction(acc, denom * diag)
            if denom % c.denominator:
                common = lcm(denom, c.denominator)
                nums = {kp: n * (common // denom) for kp, n in nums.items()}
                denom = common
            nums[J] = c.numerator * (denom // c.denominator)
            out[J] = (c, 1 + len(K) - len(J))
    return out


def full_residuals(rs, i, K, constants):
    """Both sides of the expansion at all 2^rank fixed points, zeros kept."""
    K = frozenset(K)
    denom = lcm(*(c.denominator for c, _ in constants.values()))
    terms = [
        (kp, c.numerator * (denom // c.denominator)) for kp, (c, _) in constants.items()
    ]
    out = {}
    for J in _subsets_ordered(rs.rank):
        comps, acc = None, 0
        if K <= J:
            comps = _components(rs, J)
            acc = _monk_in(rs, i, comps) * _class_in(rs, K, comps) * denom
        for kp, n in terms:
            if kp <= J:
                if comps is None:
                    comps = _components(rs, J)
                acc -= n * _class_in(rs, kp, comps)
        out[J] = Fraction(acc, denom)
    return out


def nonzero(residuals):
    return {J: r for J, r in residuals.items() if r}


def perturbed(rs, K, constants):
    """The constants maps one perturbation away from ``constants``."""
    for kp, (c, e) in constants.items():
        for delta in (1, -1, Fraction(1, 2)):
            yield {**constants, kp: (c + delta, e)}
        yield {q: v for q, v in constants.items() if q != kp}
    for j in range(1, rs.rank + 1):
        if not K <= {j}:
            yield {**constants, frozenset({j}): (Fraction(1), len(K))}
            break
    # One added index the solve gave no constant.
    for j in range(rs.rank, 0, -1):
        if j not in K and K | {j} not in constants:
            yield {**constants, K | {j}: (Fraction(1), 0)}
            break


def certified(rs, i, K, constants):
    try:
        _certify(rs, i, K, constants)
    except InvariantViolation:
        return False
    return True


def check_maps(rs, i, K):
    """The walk and the certificate against the full walk, on every map."""
    K = frozenset(K)
    constants = monk_structure_constants(rs, i, K)
    rejected = 0
    for m in (constants, *perturbed(rs, K, constants)):
        expected = nonzero(full_residuals(rs, i, K, m))
        assert expansion_residuals(rs, i, K, m) == expected, (sorted(K), m)
        assert certified(rs, i, K, m) == (not expected), (sorted(K), m)
        rejected += bool(expected)
    return rejected


# --- the solve ---------------------------------------------------------------


@st.composite
def monk_query(draw, labels):
    rs = build_root_system(draw(st.sampled_from(labels)))
    i = draw(st.integers(1, rs.rank))
    K = draw(st.sets(st.integers(1, rs.rank), max_size=rs.rank))
    return rs, i, frozenset(K)


@given(monk_query(("A8", "D8", "E8")))
@settings(deadline=None, max_examples=60)
def test_solve_matches_the_sparse_back_substitution(query):
    rs, i, K = query
    constants = monk_structure_constants(rs, i, K)
    assert list(constants.items()) == list(sparse_constants(rs, i, K).items())


# --- the certificate and the residual walk -------------------------------------


@pytest.mark.parametrize("label", RANK_LE_4)
def test_walk_and_certificate_match_the_full_walk(label):
    rs = build_root_system(label)
    rejected = sum(
        check_maps(rs, i, K)
        for i in range(1, rs.rank + 1)
        for K in _subsets_ordered(rs.rank)
    )
    assert rejected > 0


@given(monk_query(("A8", "E8")))
@settings(deadline=None, max_examples=25)
def test_walk_and_certificate_match_the_full_walk_in_rank_8(query):
    check_maps(*query)


def test_certificate_rejects_a_constant_off_monks_rule():
    # {1, 2, 3} contains K = {1} but adds two indices.
    rs = build_root_system("A3")
    constants = monk_structure_constants(rs, 1, {1})
    wrong = {**constants, frozenset({1, 2, 3}): (Fraction(1), -1)}
    assert nonzero(full_residuals(rs, 1, {1}, wrong))
    with pytest.raises(InvariantViolation, match="outside Monk's rule"):
        _certify(rs, 1, frozenset({1}), wrong)


def test_walk_holds_only_the_nonzero_residuals():
    # A map with one entry per fixed point takes about 11 MB here (2^14
    # entries); the walk holds its recursion, its per-call values and the
    # freed tuples CPython keeps for reuse, about 0.3 MB.
    rs = build_root_system("A14")
    constants = monk_structure_constants(rs, 1, {1})
    tracemalloc.start()
    try:
        residuals = expansion_residuals(rs, 1, {1}, constants)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert residuals == {}
    assert peak < 2**21, peak


def test_a_wrong_solve_exits_3(monkeypatch, capsys):
    # The certificate reads only connected class and Monk values, so a
    # solve that misreads p_{v_K}(w_J) is caught instead of printed.
    real = peterson._class_in
    monkeypatch.setattr(peterson, "_class_in", lambda rs, K, comps: real(rs, K, comps) + 1)
    assert cli.main(["constants", "--type", "A3", "-i", "1", "--subset", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("invariant violation:")


def test_walk_reads_none_of_the_solves_cached_values(monkeypatch):
    # Monk coefficients one too high fool the solve and its certificate,
    # which read the same values; the walk evaluates its own and sees the
    # wrong constant at K.
    rs = build_root_system("A3")
    real = peterson._monk_at.__wrapped__
    monkeypatch.setattr(
        peterson, "_monk_at", lambda rs, P: {a: m + 1 for a, m in real(rs, P).items()}
    )
    constants = monk_structure_constants(rs, 1, {1})
    assert constants[frozenset({1})] == (Fraction(2), 1)  # the truth is 1
    assert expansion_residuals(rs, 1, {1}, constants)
