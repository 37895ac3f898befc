"""End-to-end tests of the command-line frontend.

Everything goes through cli.main(argv) so the exit-code contract and the
three output formats are exercised exactly as a shell user would see them.
"""

import json

import pytest

from peterschub import cli
from peterschub.billey import LocalizationValue
from peterschub.rootsys import build_root_system
from peterschub.weyl import braid_variant, longest_element_word


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# --- roots / poset -----------------------------------------------------------


def test_roots_text(capsys):
    code, out, err = run(capsys, "roots", "--type", "A2")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "A2: 3 positive roots"
    assert "1 1  ht 2" in lines


def test_roots_json_round_trip(capsys):
    code, out, _ = run(capsys, "roots", "--type", "A3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 6
    assert json.dumps(payload, indent=2) + "\n" == out


def test_roots_csv(capsys):
    code, out, _ = run(capsys, "roots", "--type", "A2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "quantity,index,value"
    assert "count,,3" in lines
    # one coeffs row and one height row per root
    assert sum(l.startswith("roots.coeffs,") for l in lines) == 3
    assert sum(l.startswith("roots.height,") for l in lines) == 3


def test_global_flag_works_before_or_after_subcommand(capsys):
    _, before, _ = run(capsys, "--format", "json", "roots", "--type", "B2")
    _, after, _ = run(capsys, "roots", "--type", "B2", "--format", "json")
    assert before == after


def test_poset_covers(capsys):
    code, out, _ = run(capsys, "poset", "--type", "A2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 2
    uppers = {tuple(c["upper"]) for c in payload["covers"]}
    assert uppers == {(1, 1)}


# --- longest / lists ---------------------------------------------------------


def test_longest_full_and_parabolic(capsys):
    code, out, _ = run(capsys, "longest", "--type", "A3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["length"] == 6
    assert payload["word"] == [1, 2, 1, 3, 2, 1]

    code, out, _ = run(
        capsys, "longest", "--type", "A3", "--subset", "1,3", "--format", "json"
    )
    assert json.loads(out)["word"] == [1, 3]


def test_lists_heights(capsys):
    code, out, _ = run(capsys, "lists", "--type", "B2")
    assert code == 0
    assert "heights: 1 2 3 1" in out


# --- monk / giambelli / constants --------------------------------------------


def test_monk_all_generators(capsys):
    code, out, _ = run(capsys, "monk", "--type", "A2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["monk"] == {"1": 2, "2": 2}
    assert payload["total"] == 4


def test_monk_single_generator_text(capsys):
    code, out, _ = run(capsys, "monk", "--type", "A2", "-i", "1")
    assert code == 0
    assert out == "p_s1 = 2*t\n"


def test_monk_respects_seed_word(capsys):
    _, canonical, _ = run(capsys, "monk", "--type", "A2", "--format", "json")
    _, seeded, _ = run(
        capsys, "monk", "--type", "A2", "--seed-word", "2,1,2", "--format", "json"
    )
    assert json.loads(canonical)["monk"] == json.loads(seeded)["monk"]


def test_giambelli_plain(capsys):
    code, out, _ = run(capsys, "giambelli", "--type", "A2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["coeff"], payload["degree"]) == (2, 2)
    assert "oracle" not in payload


def test_giambelli_with_backtrack_oracle(capsys):
    code, out, _ = run(
        capsys, "giambelli", "--type", "A3", "--oracle", "backtrack",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["oracle"]["agrees"] is True
    assert payload["oracle"]["coeff"] == payload["coeff"]
    assert payload["oracle"]["window"] == 6


def test_giambelli_narrowed_window(capsys):
    # v = (1,2) embeds into (1,2,1) only within the first two letters
    code, out, _ = run(
        capsys, "giambelli", "--type", "A2", "--oracle", "backtrack",
        "--window", "2",
    )
    assert code == 0
    assert "window 2" in out and "agreement: yes" in out


def test_giambelli_unsound_window_is_rejected(capsys):
    code, _, err = run(
        capsys, "giambelli", "--type", "A2", "--oracle", "backtrack",
        "--window", "1",
    )
    assert code == 2
    assert err.startswith("rejected:")
    assert "earliest sound window is 2" in err


def test_giambelli_window_requires_oracle(capsys):
    code, _, err = run(capsys, "giambelli", "--type", "A2", "--window", "2")
    assert code == 2 and "rejected:" in err


def test_giambelli_subset_scan_warning(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_SUBSET_SCAN_WARN", 1)
    code, out, err = run(
        capsys, "giambelli", "--type", "A2", "--oracle", "subsets"
    )
    assert code == 0
    assert "agreement: yes" in out
    assert err.startswith("warning: subset scan")


def test_giambelli_oracle_disagreement_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "billey_eval_bruteforce",
        lambda rs, v, w, **kw: LocalizationValue(999, len(v)),
    )
    code, _, err = run(
        capsys, "giambelli", "--type", "A2", "--oracle", "backtrack"
    )
    assert code == 3
    assert err.startswith("invariant violation:")


def test_constants_match_library(capsys):
    code, out, _ = run(
        capsys, "constants", "--type", "A1", "-i", "1", "--subset", "1",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["constants"] == [
        {"subset": [1], "numerator": 1, "denominator": 1, "exponent": 1}
    ]


def test_constants_text_shows_t_powers(capsys):
    code, out, _ = run(capsys, "constants", "--type", "A2", "-i", "1",
                       "--subset", "1")
    assert code == 0
    assert "expands as:" in out
    assert "* t" in out


# --- report ------------------------------------------------------------------


def test_report_b3_payload(capsys):
    code, out, _ = run(capsys, "report", "--type", "B3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["longest_word"]) == 9
    assert sum(payload["monk"].values()) == 22
    assert payload["oracle"]["agrees"] is True
    assert payload["ratio"] == {"numerator": 6, "denominator": 1}
    assert set(payload["timings"]) >= {"longest", "monk", "giambelli", "total"}
    assert json.dumps(payload, indent=2) + "\n" == out


def test_report_deterministic_modulo_timings(capsys):
    _, first, _ = run(capsys, "report", "--type", "A3", "--format", "json")
    _, second, _ = run(capsys, "report", "--type", "A3", "--format", "json")
    a, b = json.loads(first), json.loads(second)
    del a["timings"], b["timings"]
    assert a == b


def test_report_seed_word_changes_word_not_values(capsys):
    rs = build_root_system("A3")
    w0 = longest_element_word(rs, (1, 2, 3))
    alt = braid_variant(rs, w0)
    assert alt is not None and alt != w0
    _, base, _ = run(capsys, "report", "--type", "A3", "--format", "json")
    _, seeded, _ = run(
        capsys, "report", "--type", "A3",
        "--seed-word", ",".join(map(str, alt)), "--format", "json",
    )
    a, b = json.loads(base), json.loads(seeded)
    assert b["longest_word"] == list(alt)
    for key in ("monk", "giambelli", "ratio", "reduced_word_count_vk"):
        assert a[key] == b[key]


# --- verify ------------------------------------------------------------------


def test_verify_quick_passes(capsys):
    code, out, _ = run(capsys, "verify", "--level", "quick", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["failed"] == 0
    assert payload["passed"] == len(payload["checks"]) == len(cli._CHECKS)
    assert all(c["ok"] for c in payload["checks"])


def test_verify_text_has_one_line_per_check(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == len(cli._CHECKS) + 1
    assert all(l.startswith("ok   ") for l in lines[:-1])
    assert lines[-1].endswith("level quick")


# --- usage errors ------------------------------------------------------------


def test_no_arguments_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 1


def test_unknown_type_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["roots", "--type", "Z9"])
    assert exc.value.code == 1
    assert "error" in capsys.readouterr().err


def test_type_above_root_cap_is_rejected_before_the_closure(capsys, monkeypatch):
    import peterschub.rootsys as rootsys

    def no_closure(label):
        raise AssertionError(f"closure started for {label}")

    monkeypatch.setattr(rootsys, "_build_cached", no_closure)
    code, out, err = run(capsys, "report", "--type", "A100000")
    assert code == 2 and out == ""
    assert str(rootsys.MAX_POSITIVE_ROOTS) in err and "MAX_POSITIVE_ROOTS" in err


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 1


def test_missing_required_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["constants", "--type", "A2", "-i", "1"])
    assert exc.value.code == 1


def test_bad_verify_level_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--level", "extreme"])
    assert exc.value.code == 1


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["-h"])
    assert exc.value.code == 0
    assert "roots" in capsys.readouterr().out


def test_bad_seed_word_is_rejected(capsys):
    code, _, err = run(capsys, "lists", "--type", "A2", "--seed-word", "1,1")
    assert code == 2
    assert "not reduced" in err
