"""Fixed-point evaluations of Peterson classes and Monk structure constants.

Classes are indexed by subsets K of simple-root indices, fixed points by
subsets J; the class of K is evaluated at the fixed point of J as
p_{v_K}(w_J), where v_K is the Coxeter element of K (increasing-index
word) and w_J the longest element of J.  Evaluations vanish unless
K is contained in J, so the evaluation grid is triangular under
inclusion, and a Monk expansion is read off a few of its fixed points.

A class is evaluated by ``billey``'s dynamic program over the weak-order
ideal below v_K.  v_K is the product of the Coxeter elements of K's
Dynkin components, which use disjoint, commuting letters, so each
component's ideal is built once and all of them share one pass over the
word (``_coxeter_sum``).  The Monk solve and ``class_eval`` run it on the
cached word of each connected w_P, ``giambelli_eval`` and ``build_report``
on the canonical or seed word of the fixed point, checked by its length.

Every fixed point is evaluated through the connected components of J in
the Dynkin diagram.  The longest elements of the components commute, so
w_J is their product and its inversion set the disjoint union of theirs,
each root keeping its height; a step by letter j changes the height
vector only at j and its neighbours, so the canonical word of w_J
restricted to a component P is the canonical word of w_P.  Hence
p_{v_K}(w_J) is the product, over the components P of J that meet K, of
p_{v_{K & P}}(w_P), and p_{s_i}(w_J) = p_{s_i}(w_P) for the P holding i.
Words, heights and class values are cached for connected P only; the
2^rank fixed points are products of those few values.

A Monk expansion p_{s_i} * p_{v_K} is solved by Monk's rule for Peterson
varieties (Drellich): its constants sit at K and at K + {j}, so they are
read off the fixed points w_K and w_{K+j}, rank - |K| + 1 of them.  The
rule is not trusted: ``_certify`` checks the answer at every fixed point
through one condition per connected subset of the diagram that holds i
or an added letter, exactly and in time polynomial in the rank.
``expansion_residuals``, the independent exhaustive check, evaluates both
sides at each fixed point whose J holds what every class of the
expansion shares, building J's components as it chooses J node by node
and evaluating their values itself, and returns only the nonzero
residuals.  Only it has a cap: it refuses types with more than
``MAX_FIXED_POINTS`` fixed points before evaluating any.

``build_report`` runs the whole pipeline for one type (longest word,
inversion heights, Monk and Giambelli evaluations, the backtracking
oracle where it is cheap), checks the totals it can check and returns
the ``report`` subcommand's payload, the dict that the CLI prints.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm, prod
from typing import Any, Iterable, Iterator, Mapping, Sequence

from .billey import Ideal, LocalizationValue, _ideal, _ideal_sum, _join, billey_eval_bruteforce
from .errors import InvariantViolation, Rejected
from .rootsys import RootSystem, height
from .weyl import (
    Word,
    _longest_walk,
    _normalize_subset,
    _reduced_walk,
    _walk,
    reduced_words,
)

Subset = frozenset[int]

StructureConstants = dict[Subset, tuple[Fraction, int]]

# Largest number of fixed points w_J, 2^rank, of a type whose Monk residuals
# ``expansion_residuals`` checks; A20 is at the cap.  The solve has no cap.
MAX_FIXED_POINTS = 2**20


def coxeter_word(K: Iterable[int]) -> Word:
    """The increasing-index reduced word of a subset's Coxeter element.

    Each index appears exactly once, so the word is reduced in every
    ambient type containing the indices.

    >>> coxeter_word({3})
    (3,)
    >>> coxeter_word({3, 1})
    (1, 3)
    """
    word = tuple(sorted(set(K)))
    if not word:
        raise Rejected("subset must be nonempty")
    for j in word:
        if not isinstance(j, int) or j < 1:
            raise Rejected(f"subset entries must be positive integers, got {j!r}")
    return word


def full_subset(rs: RootSystem) -> Subset:
    """All simple-root indices of the system."""
    return frozenset(range(1, rs.rank + 1))


@lru_cache(maxsize=None)
def _longest(rs: RootSystem, J: Subset) -> tuple[Word, tuple[int, ...]]:
    """The canonical word of w_J with its inversion heights, from one walk.

    Cached so that each fixed point is walked once, however many classes
    are evaluated at it.  ``_fixed_point`` calls it on any J, connected or not.
    """
    return _longest_walk(rs, J)


@lru_cache(maxsize=None)
def _tree_order(rs: RootSystem) -> tuple[tuple[int, int], ...]:
    """The Dynkin nodes breadth-first from node 1, each with its parent (0 at 1)."""
    order, parent = [1], {1: 0}
    for a in order:
        for b in range(1, rs.rank + 1):
            if b not in parent and rs.cartan[a - 1][b - 1]:
                parent[b] = a
                order.append(b)
    return tuple((a, parent[a]) for a in order)


def _components(rs: RootSystem, J: Subset) -> list[Subset]:
    """The connected components of J in the Dynkin diagram.

    The diagram is a tree, so a node of J joins its parent's component
    when the parent is in J and starts a new one otherwise.
    """
    owner: dict[int, list[int]] = {}
    out = []
    for a, parent in _tree_order(rs):
        if a in J:
            comp = owner.get(parent)
            if comp is None:
                comp = []
                out.append(comp)
            comp.append(a)
            owner[a] = comp
    return [frozenset(comp) for comp in out]


def _fixed_point(
    rs: RootSystem, J: Subset, word: Sequence[int] | None
) -> tuple[Word, tuple[int, ...]]:
    """The canonical word of w_J, or ``word`` once validated, with its heights.

    w_J is the one element of W_J of length l(w_J), so a reduced word in
    J's letters spells it exactly when it is as long as the canonical word.
    """
    canonical = _longest(rs, J)
    if word is None:
        return canonical
    word, heights, _ = _reduced_walk(rs, word, "alternative word")
    if len(word) != len(canonical[0]) or not J.issuperset(word):
        raise Rejected(
            f"alternative word {word} is not a reduced word "
            f"for the longest element of {sorted(J)}"
        )
    return word, tuple(heights)


def monk_coefficients(word: Word, heights: Sequence[int], rank: int) -> dict[int, int]:
    """Coefficient of p_{s_i}(w) for every generator i = 1..rank.

    ``word`` is a reduced word of w and ``heights`` its inversion heights;
    the coefficient of i sums the heights at the positions of letter i.

    >>> monk_coefficients((1, 2, 1), (1, 2, 1), 2)
    {1: 2, 2: 2}
    """
    coeffs = dict.fromkeys(range(1, rank + 1), 0)
    for letter, h in zip(word, heights):
        coeffs[letter] += h
    return coeffs


@lru_cache(maxsize=None)
def _monk_at(rs: RootSystem, P: Subset) -> dict[int, int]:
    """``monk_coefficients`` of w_P for connected P; callers only read it."""
    return monk_coefficients(*_longest(rs, P), rs.rank)


def _monk_in(rs: RootSystem, i: int, comps: Sequence[Subset]) -> int:
    """Coefficient of p_{s_i}(w_J), J given by its components; 0 if i is not in J."""
    for P in comps:
        if i in P:
            return _monk_at(rs, P)[i]
    return 0


def monk_eval(
    rs: RootSystem,
    i: int,
    J: Iterable[int] | None = None,
    *,
    word: Sequence[int] | None = None,
) -> LocalizationValue:
    """p_{s_i}(w_J): t times the sum of inversion heights at letter-i positions.

    J defaults to the full simple set.  When ``word`` is supplied it must
    be a reduced word of w_J; the value does not depend on the choice.
    An index i outside J gives coefficient 0 (the letter never occurs).

    >>> from peterschub.rootsys import build_root_system
    >>> monk_eval(build_root_system("A2"), 1)
    LocalizationValue(coeff=2, degree=1)
    """
    rs.check_index(i)
    J = full_subset(rs) if J is None else _normalize_subset(rs, J)
    if word is None:
        return LocalizationValue(_monk_in(rs, i, _components(rs, J)), 1)
    coeffs = monk_coefficients(*_fixed_point(rs, J, word), rs.rank)
    return LocalizationValue(coeffs[i], 1)


def giambelli_eval(
    rs: RootSystem,
    K: Iterable[int] | None = None,
    *,
    word: Sequence[int] | None = None,
) -> LocalizationValue:
    """p_{v_K}(w_K), the self-evaluation of the subset's Coxeter class.

    >>> from peterschub.rootsys import build_root_system
    >>> giambelli_eval(build_root_system("A2"))
    LocalizationValue(coeff=2, degree=2)
    """
    K = full_subset(rs) if K is None else _normalize_subset(rs, K)
    v = coxeter_word(K)
    return LocalizationValue(_coxeter_sum(rs, K, *_fixed_point(rs, K, word)), len(v))


def giambelli_ratio(rs: RootSystem, K: Iterable[int] | None = None) -> Fraction:
    """The exact ratio (prod_{i in K} p_{s_i}(w_K)) / p_{v_K}(w_K).

    Relates the product of the degree-one classes over K to the Coxeter
    class of K; both sides are monomials of t-degree |K|, so the ratio
    is a single rational number.

    >>> from peterschub.rootsys import build_root_system
    >>> giambelli_ratio(build_root_system("A2"))
    Fraction(2, 1)
    >>> giambelli_ratio(build_root_system("A3"), {1, 3})
    Fraction(1, 1)
    """
    K = full_subset(rs) if K is None else _normalize_subset(rs, K)
    num = prod(monk_eval(rs, i, K).coeff for i in K)
    return Fraction(num, giambelli_eval(rs, K).coeff)


@lru_cache(maxsize=None)
def _class_ideal(rs: RootSystem, S: Subset) -> Ideal:
    """The weak-order ideal below v_S, one factor per Dynkin component of S, cached."""
    comps = _components(rs, S)
    if len(comps) > 1:
        return _join([_class_ideal(rs, C) for C in comps])
    return _ideal(rs, _walk(rs, coxeter_word(S))[2])


def _coxeter_sum(rs: RootSystem, S: Subset, word: Word, heights: Sequence[int]) -> int:
    """Coefficient of p_{v_S}(w) for nonempty S, on a reduced word of w."""
    return _ideal_sum(_class_ideal(rs, S), word, heights)


@lru_cache(maxsize=None)
def _connected_class(rs: RootSystem, S: Subset, P: Subset) -> int:
    """Coefficient of p_{v_S}(w_P) for nonempty S inside a connected P."""
    return _coxeter_sum(rs, S, *_longest(rs, P))


def _class_in(rs: RootSystem, K: Subset, comps: Sequence[Subset]) -> int:
    """Coefficient of p_{v_K}(w_J) for K inside J, J given by its components.

    The product of the class values of K's part in each component of J;
    1 for the empty class.
    """
    coeff = 1
    for P in comps:
        S = K & P
        if S:
            coeff *= _connected_class(rs, S, P)
    return coeff


def _class_eval(rs: RootSystem, K: Subset, J: Subset) -> LocalizationValue:
    """p_{v_K}(w_J) with the empty class equal to 1 at every fixed point.

    Vanishes whenever K is not contained in J: every reduced word of v_K
    uses all letters of K while w_J's words use only letters of J.
    """
    coeff = _class_in(rs, K, _components(rs, J)) if K <= J else 0
    return LocalizationValue(coeff, len(K))


def class_eval(rs: RootSystem, K: Iterable[int], J: Iterable[int]) -> LocalizationValue:
    """Public wrapper for p_{v_K}(w_J) accepting arbitrary index iterables."""
    return _class_eval(rs, _normalize_subset(rs, K), _normalize_subset(rs, J))


def _subsets_ordered(rank: int) -> Iterator[Subset]:
    """All index subsets, by cardinality then lexicographic.

    The order is inclusion-compatible: every subset comes after those it
    contains.  The subsets are generated one at a time, so a walk over
    them holds only what it keeps.
    """
    for size in range(rank + 1):
        for combo in combinations(range(1, rank + 1), size):
            yield frozenset(combo)


def monk_structure_constants(
    rs: RootSystem, i: int, K: Iterable[int]
) -> StructureConstants:
    """Expand p_{s_i} * p_{v_K} in Peterson classes by Monk's rule.

    Finds the constants c_{K'} in

        p_{s_i} * p_{v_K} = sum_{K'} c_{K'} * t^(1+|K|-|K'|) * p_{v_{K'}}

    by equating evaluations at fixed points w_J.  Every rhs term has
    t-degree 1+|K| like the product, so the system acts on coefficients
    alone, and it is triangular under inclusion.  Both sides vanish at
    w_J unless J contains K, so at J = K the product gives c_K = m_i(w_K),
    the coefficient of p_{s_i}(w_K).  By Monk's rule for Peterson
    varieties (Drellich) the other constants sit at K + {j} for j not in
    K, where c_K is the only other unknown below J = K + {j}:

        c_J = (m_i(w_J) - c_K) * p_{v_K}(w_J) / p_{v_J}(w_J).

    So rank - |K| + 1 fixed points give the answer.  The rule is not
    trusted: ``_certify`` checks that the constants reproduce the
    product at every fixed point and raises ``InvariantViolation``
    otherwise.  Only nonzero constants are returned, each paired with
    its t-exponent, K first and then by the added index.

    >>> from peterschub.rootsys import build_root_system
    >>> rs = build_root_system("A2")
    >>> {tuple(sorted(kp)): c for kp, c in monk_structure_constants(rs, 1, {2}).items()}
    {(1, 2): (Fraction(2, 1), 0)}
    >>> {tuple(sorted(kp)): c for kp, c in monk_structure_constants(rs, 1, {1}).items()}
    {(1,): (Fraction(1, 1), 1), (1, 2): (Fraction(1, 1), 0)}
    """
    rs.check_index(i)
    K = _normalize_subset(rs, K)
    out: StructureConstants = {}
    c_K = 0  # until J = K, where the formula below gives c_K = m_i(w_K)
    for J in (K, *(K | {j} for j in range(1, rs.rank + 1) if j not in K)):
        comps = _components(rs, J)
        diag = prod(_connected_class(rs, P, P) for P in comps)
        if diag <= 0:
            raise InvariantViolation(
                f"diagonal evaluation at {sorted(J)} is {diag}; grid not triangular"
            )
        c = Fraction((_monk_in(rs, i, comps) - c_K) * _class_in(rs, K, comps), diag)
        if J == K:
            c_K = c
        if c:
            out[J] = (c, 1 + len(K) - len(J))
    _certify(rs, i, K, out)
    return out


def _certify(
    rs: RootSystem, i: int, K: Subset, constants: Mapping[Subset, tuple[Fraction, int]]
) -> None:
    """Raise ``InvariantViolation`` unless the constants expand p_{s_i} * p_{v_K}.

    Exact at every fixed point, in time polynomial in the rank.  A nonzero
    constant off K and the K + {j} fails at once: Monk's rule leaves none
    there.  Otherwise take J containing K, with components P, and
    x_P = p_{v_{K&P}}(w_P) > 0.  The residual at w_J is
    prod_P x_P * (sum_P h(P) - c_K), where

        h(P) = [i in P] m_i(w_P) - sum_{j in P-K} c_{K+j} p_{v_{(K&P)+j}}(w_P) / x_P.

    Call a connected P admissible when no node next to P is in K.  The
    components of every J containing K are admissible, and an admissible
    P is a component of P | K.  So every residual vanishes exactly when
    c_K is the sum of h over the components of K, which is m_i(w_K), and
    d(P) = h(P) - [i in P] m_i(w_K), h(P) less the h of the components of
    K inside P, is 0 for every admissible P.  d(P) is 0 unless P holds i
    or a letter j with a nonzero c_{K+j}, so only those P are tried.
    At J not containing K both sides vanish.
    """
    denom = lcm(*(c.denominator for c, _ in constants.values()))
    n_K, letters = 0, {}
    for kp, (c, _) in constants.items():
        n = c.numerator * (denom // c.denominator)
        if not n:
            continue
        if kp == K:
            n_K = n
        elif kp > K and len(kp) == len(K) + 1:
            (j,) = kp - K
            letters[j] = n
        else:
            raise InvariantViolation(f"constant at {sorted(kp)} is outside Monk's rule")
    m_K = _monk_in(rs, i, _components(rs, K))
    if n_K != m_K * denom:
        raise InvariantViolation(
            f"constant at {sorted(K)} is {Fraction(n_K, denom)}, expected {m_K}"
        )
    for P in _admissible(rs, K, sorted({i, *letters})):
        S = K & P
        x = _connected_class(rs, S, P) if S else 1
        lhs = (_monk_at(rs, P)[i] - m_K) * x * denom if i in P else 0
        rhs = sum(n * _connected_class(rs, S | {j}, P) for j, n in letters.items() if j in P)
        if lhs != rhs:
            raise InvariantViolation(
                f"the expansion of p_s{i} * p_v{sorted(K)} fails at the "
                f"component {sorted(P)}"
            )


def _admissible(rs: RootSystem, K: Subset, seeds: Sequence[int]) -> Iterator[Subset]:
    """Each connected P holding a seed with no node of K next to it, once.

    P is grown from its first seed in ``seeds``: a node next to the part
    grown so far is taken unless it is an earlier seed, or left out
    unless it is in K.  The diagram is a tree, so each node is reached
    from one side only and no P is met twice.
    """
    nodes = range(1, rs.rank + 1)
    adjacent = {a: [b for b in nodes if b != a and rs.cartan[a - 1][b - 1]] for a in nodes}
    for k, seed in enumerate(seeds):
        earlier = seeds[:k]
        stack = [((seed,), tuple((b, seed) for b in adjacent[seed]))]
        while stack:
            taken, frontier = stack.pop()
            if not frontier:
                yield frozenset(taken)
                continue
            (b, a), rest = frontier[0], frontier[1:]
            if b not in K:
                stack.append((taken, rest))
            if b not in earlier:
                grown = tuple((c, b) for c in adjacent[b] if c != a)
                stack.append(((*taken, b), rest + grown))


def expansion_residuals(
    rs: RootSystem,
    i: int,
    K: Iterable[int],
    constants: Mapping[Subset, tuple[Fraction, int]],
) -> dict[Subset, Fraction]:
    """The nonzero residuals of the Monk expansion; empty when it is exact.

    Recomputes both sides of the expansion at each fixed point w_J and
    keeps lhs minus rhs coefficients where they differ.  Rejects a
    constants map with an index outside the type or whose t-exponents do
    not balance the degrees, since its residual would not be a comparison
    of like monomials, and types with more than ``MAX_FIXED_POINTS``
    fixed points.

    A class vanishes at w_J unless J contains its subset, so both sides
    vanish unless J contains K or a constant's subset, and hence their
    intersection ``base``; only those J are visited.  J is chosen node by
    node along ``_tree_order`` in a depth-first walk, and a node taken
    joins its parent's component or opens one, so J's components come
    with it.  The values on each component are evaluated here, once per
    call, from the cached word of w_P: the check reads none of the class
    or Monk values that the solve and its certificate cached.
    """
    rs.check_index(i)
    K = _normalize_subset(rs, K)
    for kp, (_, exponent) in constants.items():
        _normalize_subset(rs, kp)
        if exponent != 1 + len(K) - len(kp):
            raise Rejected(
                f"exponent {exponent} for {sorted(kp)} does not balance degrees"
            )
    if 1 << rs.rank > MAX_FIXED_POINTS:
        raise Rejected(
            f"the grid has 2^{rs.rank} fixed points, above the cap of "
            f"{MAX_FIXED_POINTS} (MAX_FIXED_POINTS)"
        )
    # Both sides times the common denominator of the constants, in integers.
    denom = lcm(*(c.denominator for c, _ in constants.values()))
    terms = [
        (kp, c.numerator * (denom // c.denominator)) for kp, (c, _) in constants.items() if c
    ]
    base = K.intersection(*(kp for kp, _ in terms))
    order = _tree_order(rs)
    monk: dict[Subset, int] = {}
    classes: dict[tuple[Subset, Subset], int] = {}

    def class_in(S: Subset, comps: tuple[Subset, ...]) -> int:
        coeff = 1
        for P in comps:
            T = S & P
            if T:
                if (T, P) not in classes:
                    classes[T, P] = _coxeter_sum(rs, T, *_longest(rs, P))
                coeff *= classes[T, P]
        return coeff

    def monk_in(comps: tuple[Subset, ...]) -> int:
        for P in comps:
            if i in P:
                if P not in monk:
                    monk[P] = monk_coefficients(*_longest(rs, P), rs.rank)[i]
                return monk[P]
        return 0

    out: dict[Subset, Fraction] = {}

    def walk(p: int, J: Subset, comps: tuple[Subset, ...]) -> None:
        if p == len(order):
            acc = monk_in(comps) * class_in(K, comps) * denom if K <= J else 0
            acc -= sum(n * class_in(kp, comps) for kp, n in terms if kp <= J)
            if acc:
                out[J] = Fraction(acc, denom)
            return
        a, parent = order[p]
        if a not in base:
            walk(p + 1, J, comps)
        if parent in J:
            comps = tuple(P | {a} if parent in P else P for P in comps)
        else:
            comps = (*comps, frozenset({a}))
        walk(p + 1, J | {a}, comps)

    walk(0, frozenset(), ())
    return out


_ORACLE_LENGTH_CAP = 63


def build_report(rs: RootSystem, seed_word: Word | None = None) -> dict[str, Any]:
    """Run the full evaluation pipeline for one type, timing each stage.

    Returns the JSON-ready payload of the ``report`` subcommand.

    The backtracking-oracle comparison is included only when the longest
    word has at most 63 letters: beyond that the enumeration stops being
    a quick cross-check, and the dynamic program stands on the exhaustive
    equivalence tests in smaller types.
    """
    # The root closure runs here, on the first read, outside the stage clock.
    positives = rs.positives
    timings: dict[str, int] = {}
    t_start = time.perf_counter()

    def stage(name: str, since: float) -> float:
        now = time.perf_counter()
        timings[name] = int((now - since) * 1000)
        return now

    t = t_start
    # One walk validates the seed word and gives its heights.
    word, heights = _fixed_point(rs, full_subset(rs), seed_word)
    t = stage("longest", t)
    monk = monk_coefficients(word, heights, rs.rank)
    t = stage("monk", t)
    vk = coxeter_word(range(1, rs.rank + 1))
    giambelli = LocalizationValue(_coxeter_sum(rs, frozenset(vk), word, heights), len(vk))
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

    if len(word) != len(positives) or len(heights) != len(positives):
        raise InvariantViolation("longest word length differs from the root count")
    height_sum = sum(height(r) for r in positives)
    if sum(monk.values()) != height_sum:
        raise InvariantViolation(
            f"monk coefficients sum to {sum(monk.values())}, "
            f"expected the total height {height_sum}"
        )
    if oracle is not None and not oracle["agrees"]:
        raise InvariantViolation("oracle evaluation disagrees with the dp")

    ratio = Fraction(prod(monk.values()), giambelli.coeff)
    timings["total"] = int((time.perf_counter() - t_start) * 1000)
    return {
        "type_label": str(rs.label),
        "longest_word": list(word),
        "inversion_heights": list(heights),
        "monk": {str(i): c for i, c in monk.items()},
        "giambelli": giambelli.coeff,
        "ratio": {
            "numerator": ratio.numerator,
            "denominator": ratio.denominator,
        },
        "reduced_word_count_vk": count_vk,
        "oracle": oracle,
        "timings": timings,
    }
