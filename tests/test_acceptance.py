"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with -s, or in the
captured output on failure) in addition to its pytest verdict, so a run
of this file reads as a checklist.  All numeric targets here were fixed
by independent derivations before the implementation existed: closed
formulas, exponent identities, or hand evaluations in small ranks.

Invariants that the registry in ``peterschub.checks`` asserts (run by
``tests/test_checks.py`` at both levels) are not restated here: this file
keeps the timing gates, the CLI round-trips and the types and values the
registry does not cover.
"""

import functools
import json
import time
from fractions import Fraction
from itertools import combinations

from peterschub import cli
from peterschub.peterson import expansion_residuals, monk_eval, monk_structure_constants
from peterschub.rootsys import _build_cached, build_root_system, height
from peterschub.weyl import braid_variant, inversion_roots, longest_element_word

from test_monk_rule import full_residuals

CATALOG = ("A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8",
           "G2", "F4", "E6", "E7", "E8")
EXPECTED_COUNTS = {"G2": 6, "F4": 24, "E6": 36, "E7": 63, "E8": 120}
EXPECTED_COUNTS.update({f"A{n}": n * (n + 1) // 2 for n in range(1, 9)})


def criterion(name):
    """Print one PASS/FAIL line for the wrapped test."""

    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                print(f"FAIL {name}: {exc}")
                raise
            print(f"PASS {name}" + (f" ({detail})" if detail else ""))

        return inner

    return wrap


@criterion("root-counts")
def test_root_counts_match_formulas_within_a_second():
    worst = 0.0
    for label in CATALOG:
        _build_cached.cache_clear()
        start = time.perf_counter()
        rs = build_root_system(label)
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        assert len(rs.positives) == EXPECTED_COUNTS[label], label
        assert elapsed < 1.0, f"{label} took {elapsed:.2f}s"
    return f"{len(CATALOG)} types, slowest build {worst * 1000:.0f}ms"


@criterion("longest-element-inversions")
def test_longest_words_invert_exactly_the_positive_roots():
    # The other catalog types are in the longest_word_inversions check.
    for label in ("A5", "A6", "A7", "A8"):
        rs = build_root_system(label)
        w0 = longest_element_word(rs, range(1, rs.rank + 1))
        assert len(w0) == len(rs.positives), label
        assert sorted(inversion_roots(rs, w0)) == sorted(rs.positives), label
    return "A5-A8"


@criterion("height-sum-identity")
def test_monk_coefficients_sum_to_the_total_height():
    # The other catalog types are in the monk_summation_identity check.
    for label in ("A1", "A4", "A5", "A6", "A7", "A8"):
        rs = build_root_system(label)
        total = sum(monk_eval(rs, i).coeff for i in range(1, rs.rank + 1))
        assert total == sum(height(r) for r in rs.positives), label
    e8 = build_root_system("E8")
    total = sum(monk_eval(e8, i).coeff for i in range(1, 9))
    exponents = (1, 7, 11, 13, 17, 19, 23, 29)
    assert total == 1240 == sum(e * (e + 1) // 2 for e in exponents)
    return "A1, A4-A8; E8 total 1240 = exponent sum"


@criterion("word-independence")
def test_seed_word_flag_reproduces_canonical_evaluations(capsys):
    def grab(*argv):
        assert cli.main(["--format", "json", *argv]) == 0
        return json.loads(capsys.readouterr().out)

    for label in ("A3", "E6"):
        rs = build_root_system(label)
        w0 = longest_element_word(rs, range(1, rs.rank + 1))
        alt = braid_variant(rs, w0)
        assert alt is not None and alt != w0
        seed = ",".join(map(str, alt))
        base_monk = grab("monk", "--type", label)
        seed_monk = grab("monk", "--type", label, "--seed-word", seed)
        assert base_monk["monk"] == seed_monk["monk"]
        base_g = grab("giambelli", "--type", label)
        seed_g = grab("giambelli", "--type", label, "--seed-word", seed)
        assert (base_g["coeff"], base_g["degree"]) == (seed_g["coeff"], seed_g["degree"])
    return "A3 and E6, monk + giambelli via --seed-word"


@criterion("report-performance")
def test_reports_are_fast_and_carry_the_oracle_comparison():
    start = time.perf_counter()
    e8 = cli.build_report(build_root_system("E8"))
    elapsed = time.perf_counter() - start
    assert elapsed < 10, f"E8 report took {elapsed:.1f}s"
    assert e8["oracle"] is None  # 120 letters is past the oracle cap
    for label in ("E6", "E7"):
        payload = cli.build_report(build_root_system(label))
        assert payload["oracle"] is not None and payload["oracle"]["agrees"], label
        assert "oracle" in payload["timings"], label
    return f"E8 report {elapsed * 1000:.0f}ms; E6/E7 include timed oracle"


@criterion("structure-constant-residuals")
def test_expansions_reproduce_the_product_at_every_fixed_point():
    # The other rank <= 4 types are in the structure_constants_residual check.
    solves = 0
    for label in ("C2", "D3"):
        rs = build_root_system(label)
        indices = range(1, rs.rank + 1)
        for i in indices:
            for size in range(1, rs.rank + 1):
                for K in combinations(indices, size):
                    constants = monk_structure_constants(rs, i, K)
                    residuals = expansion_residuals(rs, i, K, constants)
                    assert residuals == {}, (label, i, K)
                    assert not any(full_residuals(rs, i, K, constants).values())
                    solves += 1
    e6 = build_root_system("E6")
    constants = monk_structure_constants(e6, 1, (1, 3))
    assert {tuple(sorted(k)): v for k, v in constants.items()} == {
        (1, 3): (Fraction(2), 1),
        (1, 3, 4): (Fraction(1), 0),
    }
    assert expansion_residuals(e6, 1, (1, 3), constants) == {}
    assert not any(full_residuals(e6, 1, (1, 3), constants).values())
    return f"{solves} expansions in C2 and D3, plus an E6 spot-check"
