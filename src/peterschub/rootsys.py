"""Finite crystallographic root systems in simple-root coordinates.

A root is a tuple of integer coefficients over the simple roots
``alpha_1 .. alpha_n``; it is positive when all coefficients are >= 0 and
at least one is nonzero.  The height of a positive root is the sum of its
coefficients, which equals its rank in the root poset plus one.

The Cartan matrix is stored with the convention

    cartan[i][j] = <alpha_j, alpha_i-coroot>

so the simple reflection acts by

    sigma_i(beta) = beta - (sum_j cartan[i][j] * beta_j) * alpha_i.

Node numbering follows Bourbaki throughout: the B_n short root is
``alpha_n``, the C_n long root is ``alpha_n``, and in the E family node 2
attaches to node 4 of the chain 1-3-4-5-6(-7)(-8).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import Rejected

# A root in simple-root coordinates.
Root = tuple[int, ...]

_FAMILIES = "ABCDEFG"

# Largest positive-root count build_root_system accepts, checked before any
# work for every job.  Building a system costs only its Cartan matrix; the
# closure and every longest-word walk grow with this count, and only the jobs
# that read the roots (roots, poset, report, verify) pay for the closure.
# A99 (4950 roots) still closes in seconds, about five times the largest
# types in use (A45: 1035 roots).
MAX_POSITIVE_ROOTS = 5000


def _rank_ok(family: str, rank: int) -> bool:
    if family == "A":
        return rank >= 1
    if family in ("B", "C"):
        return rank >= 2
    if family == "D":
        return rank >= 3
    if family == "E":
        return rank in (6, 7, 8)
    if family == "F":
        return rank == 4
    if family == "G":
        return rank == 2
    return False


@dataclass(frozen=True)
class LieTypeLabel:
    """A family letter plus rank, e.g. E8 or A3.

    Any admissible rank parses; ``build_root_system`` refuses labels with
    more than ``MAX_POSITIVE_ROOTS`` positive roots.
    """

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise Rejected(
                f"unknown family {self.family!r}: expected one of {_FAMILIES}"
            )
        if not _rank_ok(self.family, self.rank):
            raise Rejected(
                f"rank {self.rank} is not admissible for family {self.family} "
                "(A: n>=1; B,C: n>=2; D: n>=3; E: n in 6..8; F: n=4; G: n=2)"
            )

    @classmethod
    def parse(cls, text: str) -> "LieTypeLabel":
        """Parse a label like ``"E8"`` or ``"a2"``.

        >>> LieTypeLabel.parse("G2")
        LieTypeLabel(family='G', rank=2)
        """
        text = text.strip().upper()
        if len(text) < 2 or not text[1:].isdigit():
            raise Rejected(f"cannot parse Lie type label {text!r}: want e.g. A3, E8")
        return cls(text[0], int(text[1:]))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def _edges(label: LieTypeLabel) -> list[tuple[int, int]]:
    """Dynkin diagram edges as 1-based node pairs (Bourbaki numbering)."""
    n = label.rank
    if label.family == "D":
        return [(i, i + 1) for i in range(1, n - 1)] + [(n - 2, n)]
    if label.family == "E":
        return [(1, 3), (3, 4), (4, 5), (2, 4)] + [(i, i + 1) for i in range(5, n)]
    return [(i, i + 1) for i in range(1, n)]  # A, B, C, F and G2's single edge


def _cartan_matrix(label: LieTypeLabel) -> tuple[Root, ...]:
    n = label.rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in _edges(label):
        a[i - 1][j - 1] = -1
        a[j - 1][i - 1] = -1
    # Multiple bonds: row i holds pairings against the alpha_i coroot, so the
    # -2/-3 entry sits in the SHORT root's row.
    if label.family == "B":
        a[n - 1][n - 2] = -2
    elif label.family == "C":
        a[n - 2][n - 1] = -2
    elif label.family == "F":
        a[2][1] = -2  # alpha_3 short, alpha_2 long
    elif label.family == "G":
        a[0][1] = -3  # alpha_1 short, alpha_2 long
    return tuple(tuple(row) for row in a)


def is_positive_root(root: Root) -> bool:
    """All coefficients >= 0 and not all zero."""
    return all(c >= 0 for c in root) and any(c != 0 for c in root)


def is_negative_root(root: Root) -> bool:
    return all(c <= 0 for c in root) and any(c != 0 for c in root)


def height(root: Root) -> int:
    """Coefficient sum of a positive root.

    >>> height((1, 1, 0))
    2
    """
    if not is_positive_root(root):
        raise Rejected(f"height is defined for positive roots only, got {root}")
    return sum(root)


@dataclass(frozen=True, eq=False)
class RootSystem:
    """An immutable root system: label, Cartan matrix and positive roots.

    ``positives`` is computed by reflection closure on its first read and
    kept: starting from the simple roots, apply every simple reflection
    that raises the root's coefficient at its node, until nothing new
    appears.  A raised image of a positive root is positive, and every
    positive root is reached so: a non-simple one is the raised image of a
    lower one (Humphreys, *Introduction to Lie Algebras and Representation
    Theory*, §10.2), so no image needs a sign check.  It is sorted by
    (height, coefficients), so output involving it is deterministic.  Jobs
    that read only the Cartan matrix (``constants``, ``monk``,
    ``giambelli``, ``longest``, ``lists``) never run the closure; ``roots``,
    ``poset``, ``report`` and ``verify`` do.  Two systems are equal, and
    hash alike, exactly when their labels are equal.
    """

    label: LieTypeLabel
    cartan: tuple[Root, ...]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RootSystem):
            return NotImplemented
        return self.label == other.label

    def __hash__(self) -> int:
        return self._hash

    @property
    def rank(self) -> int:
        return self.label.rank

    def simple_root(self, i: int) -> Root:
        """The i-th simple root (1-based)."""
        self.check_index(i)
        return tuple(1 if j == i - 1 else 0 for j in range(self.rank))

    def check_index(self, i: int) -> None:
        if not (isinstance(i, int) and 1 <= i <= self.rank):
            raise Rejected(
                f"generator index {i} out of range 1..{self.rank} for {self.label}"
            )

    @cached_property
    def _hash(self) -> int:
        # Systems compare by label, so the label's hash is theirs.  Computing
        # it once keeps cache lookups keyed by a system from rehashing the
        # label dataclass on every call.
        return hash(self.label)

    @cached_property
    def positives(self) -> tuple[Root, ...]:
        nodes = range(1, self.rank + 1)
        frontier = {self.simple_root(i) for i in nodes}
        found = set(frontier)
        while frontier:
            frontier = {
                gamma
                for beta in frontier
                for i in nodes
                if (gamma := reflect(self, i, beta))[i - 1] > beta[i - 1] and gamma not in found
            }
            found |= frontier
        return tuple(sorted(found, key=lambda r: (sum(r), r)))

    @cached_property
    def _positive_set(self) -> frozenset[Root]:
        return frozenset(self.positives)

    def is_positive(self, root: Root) -> bool:
        return root in self._positive_set

    def is_root(self, root: Root) -> bool:
        if root in self._positive_set:
            return True
        return tuple(-c for c in root) in self._positive_set


def build_root_system(label: LieTypeLabel | str) -> RootSystem:
    """Construct the root system of the given type.

    Only the label and the Cartan matrix are built here; the positive roots
    come from the reflection closure on the first read of ``positives``.
    Results are cached per label, so repeated calls hand back the identical
    object (and its closure, once run).  Types with more than
    ``MAX_POSITIVE_ROOTS`` positive roots are rejected before any work.

    >>> rs = build_root_system("A2")
    >>> rs.positives
    ((0, 1), (1, 0), (1, 1))
    """
    if isinstance(label, str):
        label = LieTypeLabel.parse(label)
    count = positive_count_formula(label)
    if count > MAX_POSITIVE_ROOTS:
        raise Rejected(
            f"{label} has {count} positive roots, above the cap of "
            f"{MAX_POSITIVE_ROOTS} (MAX_POSITIVE_ROOTS)"
        )
    return _build_cached(label)


@lru_cache(maxsize=None)
def _build_cached(label: LieTypeLabel) -> RootSystem:
    return RootSystem(label=label, cartan=_cartan_matrix(label))


def reflect(rs: RootSystem, i: int, root: Root) -> Root:
    """Apply the simple reflection sigma_i to a root, coordinate-wise.

    >>> rs = build_root_system("A2")
    >>> reflect(rs, 1, (0, 1))
    (1, 1)
    """
    rs.check_index(i)
    row = rs.cartan[i - 1]
    pairing = sum(row[j] * root[j] for j in range(rs.rank))
    image = list(root)
    image[i - 1] -= pairing
    return tuple(image)


def root_poset_covers(rs: RootSystem) -> set[tuple[Root, Root]]:
    """All pairs (lower, upper) of positive roots with upper - lower simple.

    These are exactly the covering relations of the root poset; every cover
    raises height by one.
    """
    covers: set[tuple[Root, Root]] = set()
    for upper in rs.positives:
        for i in range(rs.rank):
            lower = tuple(
                c - 1 if j == i else c for j, c in enumerate(upper)
            )
            if rs.is_positive(lower):
                covers.add((lower, upper))
    return covers


def highest_root(rs: RootSystem) -> Root:
    """The unique positive root of maximal height."""
    return rs.positives[-1]


def positive_count_formula(label: LieTypeLabel) -> int:
    """Classical count of positive roots, independent of the closure run."""
    n = label.rank
    if label.family == "A":
        return n * (n + 1) // 2
    if label.family in ("B", "C"):
        return n * n
    if label.family == "D":
        return n * (n - 1)
    if label.family == "E":
        return {6: 36, 7: 63, 8: 120}[n]
    if label.family == "F":
        return 24
    return 6  # G2
