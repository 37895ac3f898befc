"""Localization evaluations p_v(w), projected to a single parameter t.

The projection sends each positive root to (its height) * t.  Under it,
the evaluation of the class of v at the fixed point w becomes

    p_v(w) = t^{l(v)} * sum over index subsets of a reduced word of w
             that spell a reduced word of v, of the product of the
             inversion heights at those indices.

Values are held as an exact integer coefficient together with the t-degree
l(v).  Two evaluators are provided: a dynamic program over the weak-order
ideal below v, the one evaluator of every class, and an oracle that lists
the reduced words of v and sums the weighted embeddings of each in w, by a
subsequence count per word or, literally, by testing every index subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb, inf
from typing import Sequence

from .errors import Rejected
from .rootsys import RootSystem
from .weyl import Vector, Word, _descent_graph, _reduced_walk, reduced_words

# Most index subsets the full subset scan may test, C(window, l(v)).
# The scan tests under a million subsets a second, so the cap allows a few
# minutes of work; E7's full Coxeter class would need 5.5e8 subsets.
_SUBSET_SCAN_CAP = 10**8


@dataclass(frozen=True)
class LocalizationValue:
    """An exact value coeff * t^degree with coeff >= 0."""

    coeff: int
    degree: int

    def __str__(self) -> str:
        if self.degree == 0:
            return str(self.coeff)
        t = "t" if self.degree == 1 else f"t^{self.degree}"
        return f"{self.coeff}*{t}"


def _check_pair(
    rs: RootSystem, v: Sequence[int], w: Sequence[int]
) -> tuple[Word, Word, list[int], Vector]:
    """Both words as tuples, the inversion heights of ``w`` and v's height vector."""
    v, _, v_mu = _reduced_walk(rs, v, "class word")
    w, weights, _ = _reduced_walk(rs, w, "fixed-point word")
    return v, w, weights, v_mu


def _sound_window(v: Word, w: Word, v_mu: Vector) -> int:
    """``earliest_sound_window`` from v's height vector ``v_mu``."""
    descents = {j for j, h in enumerate(v_mu, start=1) if h < 0}
    window = len(v)
    for pos, letter in enumerate(w, start=1):
        if letter in descents:
            window = max(window, pos)
    return window


@lru_cache(maxsize=None)
def _patterns(rs: RootSystem, v: Word) -> tuple[Word, ...]:
    """Reduced words of v for the oracle, cached: it repeats v across many w."""
    return tuple(reduced_words(rs, v))


# The weak-order ideal below v numbered for ``_ideal_sum``: each element's
# value before the walk (1 at v, 0 elsewhere), the identity's number, and the
# edges (u, u*s_j) by letter j.
Ideal = tuple[tuple[int, ...], int, tuple[tuple[tuple[int, int], ...], ...]]


@lru_cache(maxsize=None)
def _ideal(rs: RootSystem, v_mu: Vector) -> Ideal:
    """The weak-order ideal below v, numbered for ``_ideal_sum``, cached."""
    below = _descent_graph(rs, v_mu, inf)
    ids = {mu: k for k, mu in enumerate(below)}
    edges: list[list[tuple[int, int]]] = [[] for _ in range(rs.rank + 1)]
    for mu, out in below.items():
        for j, child in out:
            edges[j].append((ids[mu], ids[child]))
    start = tuple(int(mu == v_mu) for mu in below)
    return start, ids[(1,) * rs.rank], tuple(map(tuple, edges))


def _ideal_sum(ideal: Ideal, w: Word, weights: Sequence[int]) -> int:
    """``billey_eval_dp``'s coefficient: one pass over w and its heights, read at the identity."""
    start, identity, edges = ideal
    value = list(start)
    for p in reversed(range(len(w))):
        pairs = edges[w[p]]
        if pairs:
            h = weights[p]
            for u, child in pairs:
                value[child] += value[u] * h
    return value[identity]


def billey_eval_dp(rs: RootSystem, v: Sequence[int], w: Sequence[int]) -> LocalizationValue:
    """Evaluate p_v(w) by one dynamic program over the weak-order ideal below v.

    Walking w from right to left, ``value[u]`` sums the weight products of
    the subwords walked so far that spell x with u * x = v, reduced.  A
    position with letter j and height h adds ``value[u] * h`` to
    ``value[u * s_j]`` for every u with right descent j; j is an ascent of
    u * s_j, so no position is used twice.  The answer is the value at
    the identity.  No reduced word of v is listed; only the ideal's size
    is capped (``weyl._COUNT_MEMO_CAP``).

    >>> from peterschub.rootsys import build_root_system
    >>> rs = build_root_system("A2")
    >>> billey_eval_dp(rs, (1, 2), (1, 2, 1))
    LocalizationValue(coeff=2, degree=2)
    """
    v, w, weights, v_mu = _check_pair(rs, v, w)
    return LocalizationValue(coeff=_ideal_sum(_ideal(rs, v_mu), w, weights), degree=len(v))


def earliest_sound_window(rs: RootSystem, v: Sequence[int], w: Sequence[int]) -> int:
    """Smallest prefix length of ``w`` that provably loses no subwords of v.

    Every embedding of a pattern u ends at a position carrying u's final
    letter, a right descent of v (``mu_j < 0`` in v's height vector), so
    restricting to the prefix containing the last occurrence of every
    right descent (and at least l(v) positions) is safe.
    """
    v, w, _, v_mu = _check_pair(rs, v, w)
    return _sound_window(v, w, v_mu)


def billey_eval_bruteforce(
    rs: RootSystem,
    v: Sequence[int],
    w: Sequence[int],
    window: int | None = None,
    full_subset_scan: bool = False,
) -> LocalizationValue:
    """Evaluate p_v(w) by listing the reduced words of v.

    Sums, over the index subsets of size l(v) within the first ``window``
    positions of ``w`` whose letter sequence is a reduced word of v, the
    products of inversion heights.  By default each reduced word's
    embeddings are counted by one left-to-right pass over the window, so
    the work is at most |R(v)| * l(v) * window, bounded through the cap
    on listed reduced words, ``weyl.REDUCED_WORD_LIMIT``.
    ``full_subset_scan=True`` instead tests every combination of
    ``window`` choose l(v) indices, which is faithful to the classical
    approach but exponentially slower, and is rejected when that count
    exceeds ``_SUBSET_SCAN_CAP``.

    An explicit window must be sound: at least l(v), and no smaller than
    the last occurrence in ``w`` of any pattern's final letter.  Unsound
    windows are rejected with the earliest sound window in the diagnostic.
    """
    v, w, weights, v_mu = _check_pair(rs, v, w)
    limit = len(w) if window is None else window
    if full_subset_scan:
        # An unsound (e.g. negative) window is rejected below.
        est = comb(max(limit, 0), len(v))
        if est > _SUBSET_SCAN_CAP:
            raise Rejected(
                f"subset scan would test about {est} index subsets, above "
                f"the cap of {_SUBSET_SCAN_CAP}; --oracle backtrack sums "
                "the same subwords"
            )
    if window is not None:
        if window > len(w):
            raise Rejected(f"window {window} exceeds word length {len(w)}")
        sound = _sound_window(v, w, v_mu)
        if window < sound:
            raise Rejected(
                f"window {window} may lose subwords of v; "
                f"earliest sound window is {sound}"
            )
    patterns = _patterns(rs, v)
    if full_subset_scan:
        total = _subset_scan(w, weights, patterns, limit, len(v))
    else:
        total = sum(_embeddings(p, w, weights, limit) for p in patterns)
    return LocalizationValue(coeff=total, degree=len(v))


def _embeddings(pattern: Word, word: Word, weights: Sequence[int], window: int) -> int:
    """Sum of weight products over embeddings of ``pattern`` in ``word[:window]``.

    ``found[k]`` sums the weight products of the embeddings of the first k
    letters of ``pattern`` in the positions read so far; k runs downward so
    that a position extends each embedding at most once.
    """
    found = [1] + [0] * len(pattern)
    for letter, h in zip(word[:window], weights):
        for k in range(len(pattern), 0, -1):
            if pattern[k - 1] == letter:
                found[k] += found[k - 1] * h
    return found[-1]


def _subset_scan(
    word: Word,
    weights: Sequence[int],
    patterns: Sequence[Word],
    window: int,
    size: int,
) -> int:
    """Literal scan over all index subsets of the window (oracle fidelity mode)."""
    wanted = set(patterns)
    total = 0
    for subset in combinations(range(window), size):
        if tuple(word[p] for p in subset) in wanted:
            prod = 1
            for p in subset:
                prod *= weights[p]
            total += prod
    return total
