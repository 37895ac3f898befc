"""Root system generation, labels, heights, and the root poset."""

import pytest

from peterschub.errors import Rejected
from peterschub.peterson import monk_structure_constants
from peterschub.rootsys import (
    LieTypeLabel,
    RootSystem,
    _cartan_matrix,
    build_root_system,
    height,
    highest_root,
    is_negative_root,
    is_positive_root,
    positive_count_formula,
    reflect,
    root_poset_covers,
)

# Counts and maximal heights frozen from the classical data: |Phi+| is
# n(n+1)/2, n^2, n^2, n(n-1), 36, 63, 120, 24, 6 across the families, and
# the highest root's height is one less than the Coxeter number.
CLASSICAL = {
    "A1": (1, 1),
    "A2": (3, 2),
    "A3": (6, 3),
    "A8": (36, 8),
    "B2": (4, 3),
    "B3": (9, 5),
    "C3": (9, 5),
    "C4": (16, 7),
    "D4": (12, 5),
    "D5": (20, 7),
    "E6": (36, 11),
    "E7": (63, 17),
    "E8": (120, 29),
    "F4": (24, 11),
    "G2": (6, 5),
}


def test_label_parse_and_str():
    label = LieTypeLabel.parse("e8")
    assert label == LieTypeLabel("E", 8)
    assert str(label) == "E8"
    assert LieTypeLabel.parse(" a12 ") == LieTypeLabel("A", 12)


@pytest.mark.parametrize("bad", ["", "X", "Z3", "A", "Ax", "8A", "E9", "E5", "F5", "G3", "B1", "D2"])
def test_label_rejects_malformed(bad):
    with pytest.raises(Rejected):
        LieTypeLabel.parse(bad)


def test_counts_and_max_heights():
    for name, (count, maxht) in CLASSICAL.items():
        rs = build_root_system(name)
        assert len(rs.positives) == count, name
        assert height(rs.positives[-1]) == maxht, name
        assert positive_count_formula(rs.label) == count, name


def test_build_accepts_label_or_string():
    assert build_root_system("G2") is build_root_system(LieTypeLabel("G", 2))


def test_simple_roots_and_index_checks():
    rs = build_root_system("A3")
    assert rs.rank == 3
    assert rs.simple_root(1) == (1, 0, 0)
    assert rs.simple_root(3) == (0, 0, 1)
    for bad in (0, 4, -1):
        with pytest.raises(Rejected):
            rs.check_index(bad)


def test_positive_membership():
    rs = build_root_system("A2")
    assert set(rs.positives) == {(1, 0), (0, 1), (1, 1)}
    assert rs.is_positive((1, 1))
    assert not rs.is_positive((2, 1))
    assert rs.is_root((-1, -1))
    assert not rs.is_root((1, -1))


def test_predicates_and_height():
    assert is_positive_root((0, 1, 0))
    assert not is_positive_root((0, 0, 0))
    assert not is_positive_root((1, -1, 0))
    assert is_negative_root((-1, 0, -2))
    assert height((1, 2, 3)) == 6
    with pytest.raises(Rejected):
        height((1, -1))
    with pytest.raises(Rejected):
        height((0, 0))


def test_cartan_conventions():
    # The multiple-bond entry sits in the short root's row.
    b2 = build_root_system("B2")
    assert b2.cartan == ((2, -1), (-2, 2))
    assert reflect(b2, 2, (1, 0)) == (1, 2)  # sigma_2(alpha_1) = alpha_1 + 2 alpha_2
    c3 = build_root_system("C3")
    assert c3.cartan == ((2, -1, 0), (-1, 2, -2), (0, -1, 2))
    assert reflect(c3, 2, (0, 0, 1)) == (0, 2, 1)  # sigma_2(alpha_3) = alpha_3 + 2 alpha_2
    g2 = build_root_system("G2")
    assert g2.cartan == ((2, -3), (-1, 2))
    f4 = build_root_system("F4")
    assert f4.cartan[2][1] == -2 and f4.cartan[1][2] == -1


def test_e8_bourbaki_edges():
    rs = build_root_system("E8")
    edges = {
        (i, j)
        for i in range(1, 9)
        for j in range(i + 1, 9)
        if rs.cartan[i - 1][j - 1] == -1
    }
    assert edges == {(1, 3), (3, 4), (2, 4), (4, 5), (5, 6), (6, 7), (7, 8)}


def test_highest_roots():
    assert highest_root(build_root_system("A2")) == (1, 1)
    assert highest_root(build_root_system("G2")) == (3, 2)
    assert highest_root(build_root_system("E8")) == (2, 3, 4, 6, 5, 4, 3, 2)
    assert highest_root(build_root_system("F4")) == (2, 3, 4, 2)


def test_reflect_is_involution():
    rs = build_root_system("F4")
    for i in (1, 2, 3, 4):
        for r in rs.positives:
            assert reflect(rs, i, reflect(rs, i, r)) == r


def test_poset_covers_raise_height_by_one():
    rs = build_root_system("B3")
    covers = root_poset_covers(rs)
    for lo, up in covers:
        assert height(up) == height(lo) + 1
        diff = tuple(u - l for u, l in zip(up, lo))
        assert diff in {rs.simple_root(i) for i in (1, 2, 3)}


def test_poset_cover_counts_small():
    assert len(root_poset_covers(build_root_system("A2"))) == 2
    # G2 positive roots form a chain of 6 with a doubled step at height 3:
    # covers (1,0)<(1,1)<(2,1)<(3,1)<(3,2) plus (0,1)<(1,1).
    assert len(root_poset_covers(build_root_system("G2"))) == 5


def test_height_sum_values():
    # Frozen via the exponent identity sum e(e+1)/2: A3 exponents 1,2,3;
    # B3 exponents 1,3,5; G2 exponents 1,5; E8 exponents 1,7,...,29.
    sums = {"A3": 10, "B3": 22, "G2": 16, "E8": 1240}
    for name, expected in sums.items():
        rs = build_root_system(name)
        assert sum(height(r) for r in rs.positives) == expected


def test_positives_sorted_by_height_then_coeffs():
    rs = build_root_system("D4")
    keys = [(height(r), r) for r in rs.positives]
    assert keys == sorted(keys)


def test_e8_exponent_histogram():
    # The dual partition of the height histogram lists the exponents.
    rs = build_root_system("E8")
    hist: dict[int, int] = {}
    for r in rs.positives:
        hist[height(r)] = hist.get(height(r), 0) + 1
    exponents = sorted(
        max(h for h, c in hist.items() if c >= level)
        for level in range(1, hist[1] + 1)
    )
    assert exponents == [1, 7, 11, 13, 17, 19, 23, 29]


# --- the closure runs on the first read of positives -------------------------

CLOSURE_TYPES = (
    [f"A{n}" for n in range(1, 13)] + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


def _eager_closure(cartan):
    """Positive roots by a worklist of single reflections, sorted as in rootsys."""
    n = len(cartan)
    seen = {tuple(int(i == j) for j in range(n)) for i in range(n)}
    todo = list(seen)
    while todo:
        beta = todo.pop()
        for i, row in enumerate(cartan):
            gamma = list(beta)
            gamma[i] -= sum(a * b for a, b in zip(row, beta))
            gamma = tuple(gamma)
            if min(gamma) >= 0 and gamma not in seen:
                seen.add(gamma)
                todo.append(gamma)
    return tuple(sorted(seen, key=lambda r: (sum(r), r)))


def test_building_a_system_runs_no_closure():
    rs = build_root_system("A99")
    assert "positives" not in vars(rs)
    assert rs.cartan[0][:2] == (2, -1)


def test_monk_constants_read_no_root():
    rs = build_root_system("A64")
    assert monk_structure_constants(rs, 1, {1}) == {
        frozenset({1}): (1, 1), frozenset({1, 2}): (1, 0),
    }
    assert "positives" not in vars(rs)


@pytest.mark.parametrize("name", CLOSURE_TYPES)
def test_first_read_of_positives_is_the_eager_closure(name):
    label = LieTypeLabel.parse(name)
    rs = RootSystem(label=label, cartan=_cartan_matrix(label))
    assert "positives" not in vars(rs)
    expected = _eager_closure(rs.cartan)
    assert rs.positives == expected
    assert vars(rs)["positives"] is rs.positives
    assert len(expected) == positive_count_formula(label)


def test_systems_are_cached_and_compare_by_label():
    assert build_root_system("E7") is build_root_system("e7")
    label = LieTypeLabel.parse("B4")
    fresh = RootSystem(label=label, cartan=_cartan_matrix(label))
    cached = build_root_system(label)
    assert fresh is not cached
    assert fresh == cached and hash(fresh) == hash(cached) == hash(label)
    assert build_root_system("B4") != build_root_system("C4")
    assert fresh != label
    assert len({fresh, cached, build_root_system("C4")}) == 2
