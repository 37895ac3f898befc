"""Weyl group elements as words in the simple reflections.

Words are tuples of 1-based generator indices.  A word ``(j_1, ..., j_l)``
denotes the product ``s_{j_1} s_{j_2} ... s_{j_l}`` acting on roots from the
left, so the last letter acts first:

    act(word, beta) = s_{j_1}(s_{j_2}(... s_{j_l}(beta) ...)).

Walks along a word carry one integer vector per element u, its height
vector ``mu`` with ``mu[k-1] = <u(alpha_k), rho-coroot>``, the height of the
root u(alpha_k) (negative when that root is negative).  The identity has
``mu = (1, ..., 1)``, and right multiplication by s_j changes it by one
Cartan row:

    mu_k  <-  mu_k - cartan[j][k] * mu_j.

That vector answers everything the evaluation path asks of a prefix u
(Bjorner-Brenti, *Combinatorics of Coxeter Groups*, section 4.2):

  * appending letter j is length-increasing  iff  ``mu_j > 0``, and j is a
    right descent of u iff ``mu_j < 0``;
  * when it is, the inversion root added has height ``mu_j``;
  * two words spell the same element iff their vectors are equal, because
    rho-coroot is regular.

``_walk`` is the one loop along a word, behind ``is_reduced``.
``_reduced_walk``, the one validator, rejects a word that is not reduced
and otherwise hands that walk back, so a caller checks a word and gets
its inversion heights and its vector in one pass.

The APIs that hand back roots, ``element_matrix`` (the images of the
simple roots), ``inversion_root`` and ``inversion_roots``, are built on
``act``, which applies the reflections of a word to a root one by one.
They share no code with the height-vector walk, so each route can be
tested against the other.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import Rejected
from .rootsys import Root, RootSystem, is_positive_root, reflect

Word = tuple[int, ...]

# Element matrix: column j (0-based) is the image of alpha_{j+1}.
Matrix = tuple[Root, ...]

# Height vector: entry k (0-based) is the height of the image of alpha_{k+1}.
Vector = tuple[int, ...]

REDUCED_WORD_LIMIT = 10**6
_COUNT_MEMO_CAP = 300_000


def _check_word(rs: RootSystem, word: Sequence[int]) -> Word:
    word = tuple(word)
    for j in word:
        rs.check_index(j)
    return word


def _step(rs: RootSystem, mu: Vector, j: int) -> Vector:
    """Height vector of u*s_j from that of u (1-based j): one Cartan row."""
    h = mu[j - 1]
    return tuple([m - c * h for m, c in zip(mu, rs.cartan[j - 1])])


def _walk(rs: RootSystem, word: Sequence[int]) -> tuple[Word, list[int], Vector]:
    """The word as a tuple, ``mu_j`` before each letter j, and the final vector."""
    word = _check_word(rs, word)
    mu = (1,) * rs.rank
    heights: list[int] = []
    for j in word:
        heights.append(mu[j - 1])
        mu = _step(rs, mu, j)
    return word, heights, mu


def _reduced_walk(
    rs: RootSystem, word: Sequence[int], what: str
) -> tuple[Word, list[int], Vector]:
    """``_walk`` of a reduced word, rejected as ``what`` if it is not.

    >>> from peterschub.rootsys import build_root_system
    >>> _reduced_walk(build_root_system("A2"), [1, 2, 1], "word")
    ((1, 2, 1), [1, 2, 1], (-1, -1))
    """
    word, heights, mu = _walk(rs, word)
    if not all(h > 0 for h in heights):
        raise Rejected(f"{what} {word} is not reduced")
    return word, heights, mu


def element_matrix(rs: RootSystem, word: Sequence[int]) -> Matrix:
    """The matrix of the group element spelled by ``word``.

    >>> from peterschub.rootsys import build_root_system
    >>> rs = build_root_system("A2")
    >>> element_matrix(rs, (1, 2, 1)) == element_matrix(rs, (2, 1, 2))
    True
    """
    return tuple(act(rs, word, rs.simple_root(j)) for j in range(1, rs.rank + 1))


def act(rs: RootSystem, word: Sequence[int], root: Root) -> Root:
    """Apply the element of ``word`` to a root; the empty word is the identity.

    >>> from peterschub.rootsys import build_root_system
    >>> rs = build_root_system("A2")
    >>> act(rs, (1, 2), (1, 0))
    (0, 1)
    """
    word = _check_word(rs, word)
    for j in reversed(word):
        root = reflect(rs, j, root)
    return root


def inversion_root(rs: RootSystem, word: Sequence[int], i: int) -> Root:
    """The i-th inversion root of a reduced word (1-based position).

    For ``word = (j_1, ..., j_l)`` this is
    ``s_{j_1} ... s_{j_{i-1}} (alpha_{j_i})``, a positive root whenever the
    word is reduced.  A negative result proves the word was not reduced and
    is rejected.

    >>> from peterschub.rootsys import build_root_system
    >>> rs = build_root_system("A2")
    >>> inversion_root(rs, (1, 2, 1), 2)
    (1, 1)
    """
    word = _check_word(rs, word)
    if not (1 <= i <= len(word)):
        raise Rejected(f"position {i} out of range 1..{len(word)}")
    root = act(rs, word[: i - 1], rs.simple_root(word[i - 1]))
    if not is_positive_root(root):
        raise Rejected(
            f"inversion root at position {i} is negative: word {word} is not reduced"
        )
    return root


def inversion_roots(rs: RootSystem, word: Sequence[int]) -> list[Root]:
    """All inversion roots of a reduced word, in position order.

    Rejects non-reduced words (some inversion root would be negative).
    """
    return [inversion_root(rs, word, pos) for pos in range(1, len(word) + 1)]


def is_reduced(rs: RootSystem, word: Sequence[int]) -> bool:
    """Whether each letter of ``word`` extends the prefix length-increasingly.

    Equivalently: all inversion roots are positive.

    >>> from peterschub.rootsys import build_root_system
    >>> rs = build_root_system("A2")
    >>> is_reduced(rs, (1, 1)), is_reduced(rs, (1, 2, 1)), is_reduced(rs, (1, 2, 1, 2))
    (False, True, False)
    """
    return all(h > 0 for h in _walk(rs, word)[1])


def _normalize_subset(rs: RootSystem, subset: Iterable[int]) -> frozenset[int]:
    out = frozenset(subset)
    for j in out:
        rs.check_index(j)
    return out


def longest_element_word(rs: RootSystem, subset: Iterable[int]) -> Word:
    """Canonical reduced word for the longest element of a parabolic subgroup.

    Greedy: starting from the identity, repeatedly append the smallest
    index in ``subset`` whose appending is length-increasing.  The result
    has length equal to the number of positive roots supported on the
    subset, and every index of the subset is a descent of it.

    >>> from peterschub.rootsys import build_root_system
    >>> longest_element_word(build_root_system("A2"), {1, 2})
    (1, 2, 1)
    """
    return _longest_walk(rs, subset)[0]


def _longest_walk(rs: RootSystem, subset: Iterable[int]) -> tuple[Word, tuple[int, ...]]:
    """``longest_element_word`` with the ``mu_j`` recorded at each append.

    Each recorded entry is the height of that position's inversion root,
    so the word's inversion heights come out of the same walk.
    """
    order = sorted(_normalize_subset(rs, subset))
    mu = (1,) * rs.rank
    word: list[int] = []
    heights: list[int] = []
    while True:
        for j in order:
            h = mu[j - 1]
            if h > 0:
                word.append(j)
                heights.append(h)
                mu = _step(rs, mu, j)
                break
        else:
            return tuple(word), tuple(heights)


def _descent_graph(
    rs: RootSystem, target: Vector, limit: float
) -> dict[Vector, list[tuple[int, Vector]]]:
    """The weak-order ideal below ``target``, as right-descent edges.

    Maps each element to its pairs ``(j, element * s_j)`` over right
    descents j, for ``reduced_words`` and ``billey_eval_dp``.  Reduced
    words are counted on the way, with an explicit stack so that long
    elements cannot exhaust the interpreter's recursion depth, and the
    walk rejects when the count passes ``limit`` (``inf`` for no limit)
    or the ideal passes ``_COUNT_MEMO_CAP`` elements.
    """
    identity = (1,) * rs.rank
    below: dict[Vector, list[tuple[int, Vector]]] = {identity: []}
    counts: dict[Vector, int] = {identity: 1}
    stack = [target]
    while stack:
        mu = stack[-1]
        if mu in counts:
            stack.pop()
            continue
        edges = below.get(mu)
        if edges is None:
            edges = below[mu] = [
                (j, _step(rs, mu, j)) for j, h in enumerate(mu, start=1) if h < 0
            ]
            todo = [child for _, child in edges if child not in counts]
            if todo:
                # Every child is counted before this element is seen again.
                stack.extend(todo)
                continue
        stack.pop()
        total = sum(counts[child] for _, child in edges)
        if total > limit:
            raise Rejected(
                f"element has more than {limit} reduced words; refusing to enumerate"
            )
        if len(counts) > _COUNT_MEMO_CAP:
            raise Rejected(
                "the weak-order ideal below the element passes the cap of "
                f"{_COUNT_MEMO_CAP} elements (_COUNT_MEMO_CAP)"
            )
        counts[mu] = total
    return below


def reduced_words(rs: RootSystem, word: Sequence[int]) -> list[Word]:
    """All reduced words of the element spelled by a reduced word.

    Enumerates by stripping right descents and returns the complete set
    in lexicographic order.  Rejects non-reduced input and elements with
    more than ``REDUCED_WORD_LIMIT`` reduced words.

    >>> from peterschub.rootsys import build_root_system
    >>> rs = build_root_system("A2")
    >>> reduced_words(rs, (1, 2, 1))
    [(1, 2, 1), (2, 1, 2)]
    """
    target = _reduced_walk(rs, word, "word")[2]
    below = _descent_graph(rs, target, REDUCED_WORD_LIMIT)

    out: list[Word] = []
    stack: list[tuple[Vector, Word]] = [(target, ())]
    while stack:
        mu, suffix = stack.pop()
        edges = below[mu]
        if not edges:
            out.append(suffix)
        for j, child in edges:
            stack.append((child, (j,) + suffix))
    out.sort()
    return out


def braid_variant(rs: RootSystem, word: Sequence[int]) -> Word | None:
    """A different reduced word of the same element, or None if unique.

    Applies the first available commutation (swap adjacent letters whose
    generators commute) or, failing that, the first short braid move
    aba -> bab between generators joined by a single bond.  Words related
    by such moves spell the same element, so the result is again reduced.

    >>> from peterschub.rootsys import build_root_system
    >>> braid_variant(build_root_system("A2"), (1, 2, 1))
    (2, 1, 2)
    >>> braid_variant(build_root_system("A2"), (1, 2)) is None
    True
    """
    word = _check_word(rs, word)
    cartan = rs.cartan
    for k in range(len(word) - 1):
        a, b = word[k], word[k + 1]
        if a != b and cartan[a - 1][b - 1] == 0:
            return word[:k] + (b, a) + word[k + 2 :]
    for k in range(len(word) - 2):
        a, b, c = word[k], word[k + 1], word[k + 2]
        if a == c and a != b and cartan[a - 1][b - 1] * cartan[b - 1][a - 1] == 1:
            return word[:k] + (b, a, b) + word[k + 3 :]
    return None


def element_words(
    rs: RootSystem,
    max_length: int | None = None,
    limit: int = 10**6,
) -> list[Word]:
    """One canonical reduced word for every group element, shortest first.

    Breadth-first walk of the right weak order.  Within each length the
    elements appear by lexicographic word, and each element's recorded
    word is the lexicographically smallest among its reduced words of
    minimal length (i.e. the lex-smallest reduced word).  A
    ``max_length`` bound truncates the walk; the element count is capped
    at ``limit`` since several types are astronomically large.

    >>> from peterschub.rootsys import build_root_system
    >>> element_words(build_root_system("A2"))
    [(), (1,), (2,), (1, 2), (2, 1), (1, 2, 1)]
    """
    identity = (1,) * rs.rank
    seen: set[Vector] = {identity}
    out: list[Word] = [()]
    frontier: list[tuple[Word, Vector]] = [((), identity)]
    length = 0
    while frontier and (max_length is None or length < max_length):
        nxt: list[tuple[Word, Vector]] = []
        for word, mu in frontier:
            for j, h in enumerate(mu, start=1):
                if h > 0:
                    m2 = _step(rs, mu, j)
                    if m2 not in seen:
                        seen.add(m2)
                        nxt.append((word + (j,), m2))
                        if len(seen) > limit:
                            raise Rejected(
                                f"more than {limit} elements; refusing to enumerate"
                            )
        nxt.sort(key=lambda pair: pair[0])
        out.extend(word for word, _ in nxt)
        frontier = nxt
        length += 1
    return out
