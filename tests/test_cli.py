"""End-to-end tests of the command-line frontend.

Everything goes through cli.main(argv) so the exit-code contract and the
three output formats are exercised exactly as a shell user would see them.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import peterschub.billey as billey
import peterschub.weyl as weyl
from peterschub import checks, cli
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


def test_giambelli_of_ten_commuting_letters(capsys):
    # v_K has 10! reduced words; the class is summed without listing them.
    subset = ",".join(map(str, range(1, 20, 2)))
    code, out, err = run(
        capsys, "giambelli", "--type", "A20", "--subset", subset, "--format", "json"
    )
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert (payload["coeff"], payload["degree"]) == (1, 10)


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
    with pytest.raises(SystemExit) as exc:
        cli.main(["giambelli", "--type", "A2", "--window", "2"])
    assert exc.value.code == 1
    assert "--window only applies to an --oracle run" in capsys.readouterr().err


def test_giambelli_subset_scan_cap(capsys, monkeypatch):
    monkeypatch.setattr(billey, "_SUBSET_SCAN_CAP", 2)
    # A2's word has 3 letters and v two: C(3, 2) = 3 subsets.
    code, out, err = run(
        capsys, "giambelli", "--type", "A2", "--oracle", "subsets"
    )
    assert code == 2 and out == ""
    assert err.startswith("rejected: subset scan would test about 3 index subsets")
    assert "the cap of 2" in err
    monkeypatch.setattr(billey, "_SUBSET_SCAN_CAP", 3)
    code, out, _ = run(capsys, "giambelli", "--type", "A2", "--oracle", "subsets")
    assert code == 0 and "agreement: yes" in out


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


def test_constants_answers_a64_and_a12(capsys):
    # 2^63 fixed points of A64 contain {1}; the solve evaluates 64 of them
    # and certifies the rest, so no fixed-point cap applies.
    code, out, err = run(capsys, "constants", "--type", "A64", "-i", "1", "--subset", "1")
    assert code == 0 and err == ""
    assert out.splitlines()[1:] == ["  {1}: 1 * t", "  {1,2}: 1"]
    code, out, _ = run(capsys, "constants", "--type", "A12", "-i", "1", "--subset", "1")
    assert code == 0 and "expands as:" in out


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
    assert payload["passed"] == len(payload["checks"]) == len(checks.CHECKS)
    assert all(c["ok"] for c in payload["checks"])


def test_verify_text_has_one_line_per_check(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == len(checks.CHECKS) + 1
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


@pytest.mark.parametrize("before", (True, False), ids=("before", "after"))
@pytest.mark.parametrize("argv", (
    ["roots", "--type", "A2"],
    ["poset", "--type", "A2"],
    ["longest", "--type", "A2"],
    ["constants", "--type", "A2", "-i", "1", "--subset", "1"],
    ["verify"],
), ids=lambda argv: argv[0])
def test_seed_word_on_a_command_that_ignores_it_is_usage_error(capsys, argv, before):
    flag = ["--seed-word", "2,1,2"]
    with pytest.raises(SystemExit) as exc:
        cli.main(flag + argv if before else argv + flag)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"--seed-word does not apply to {argv[0]}" in err
    assert "lists, monk, giambelli, report" in err


def count_walks(monkeypatch):
    """Record the word of every call of the one walk loop in ``weyl``."""
    calls = []
    original = weyl._walk

    def counting(rs, word):
        calls.append(tuple(word))
        return original(rs, word)

    monkeypatch.setattr(weyl, "_walk", counting)
    return calls


def test_giambelli_validates_the_seed_word_once(capsys, monkeypatch):
    calls = count_walks(monkeypatch)
    code, out, _ = run(
        capsys, "giambelli", "--type", "A3", "--seed-word", "1,2,3,1,2,1",
        "--oracle", "backtrack",
    )
    assert code == 0 and "agreement: yes" in out
    # One walk checks the seed word and gives the dp its heights; the oracle
    # walks it once more.  A seed word is checked by its length, so w_J's
    # canonical word is never walked.
    assert calls.count((1, 2, 3, 1, 2, 1)) == 2
    assert calls.count((1, 2, 1, 3, 2, 1)) == 0


def test_giambelli_with_a_window_walks_each_word_few_times(capsys, monkeypatch):
    calls = count_walks(monkeypatch)
    code, out, _ = run(
        capsys, "giambelli", "--type", "A2", "--seed-word", "2,1,2",
        "--oracle", "backtrack", "--window", "3",
    )
    assert code == 0 and "agreement: yes" in out
    # The window check reads v's descents from the walk that checked v.
    assert len(calls) <= 4
    assert calls.count((2, 1, 2)) <= 2


def test_negative_window_for_the_subset_scan_is_rejected(capsys):
    code, _, err = run(
        capsys, "giambelli", "--type", "A2", "--oracle", "subsets", "--window", "-1"
    )
    assert code == 2
    assert "earliest sound window is 2" in err


# --- fuzzed argv -------------------------------------------------------------

FUZZ_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
              "D3", "D4", "F4", "G2", "a3")
MALFORMED_TYPES = ("Z3", "A0", "B1", "E9", "A", "")


def fuzz_options(rank):
    """Values for each option; indices run one past the rank on either side."""
    index = st.integers(min_value=-1, max_value=rank + 1)

    def index_list(size):
        items = st.lists(index, min_size=1, max_size=size)
        return items.map(lambda xs: ",".join(map(str, xs)))

    return {
        "--subset": index_list(5),
        "-i": index.map(str),
        "--seed-word": index_list(8),
        "--window": st.integers(min_value=-1, max_value=12).map(str),
        "--oracle": st.sampled_from(("backtrack", "subsets")),
        "--format": st.sampled_from(("text", "json", "csv")),
    }


# The options each subcommand takes besides --format; others get in rarely.
ACCEPTS = {
    "roots": (), "poset": (), "longest": ("--subset",), "lists": ("--seed-word",),
    "monk": ("-i", "--seed-word"),
    "giambelli": ("--subset", "--oracle", "--window", "--seed-word"),
    "constants": ("-i", "--subset"), "report": ("--seed-word",), "verify": (),
}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(tuple(ACCEPTS)))
    argv = [command]
    rank = 4
    if command == "verify":
        argv += ["--level", "quick"]
    elif draw(st.integers(min_value=0, max_value=4)):
        label = draw(st.sampled_from(FUZZ_TYPES))
        argv += ["--type", label]
        rank = int(label[1:])
    else:
        argv += ["--type", draw(st.sampled_from(MALFORMED_TYPES))]
    options = fuzz_options(rank)
    # constants has two required options; the others are drawn at random.
    flags = [f for f in ACCEPTS[command] + ("--format",)
             if command == "constants" or draw(st.booleans())]
    stray = draw(st.sampled_from((None,) * 18 + tuple(options)))
    for flag in flags + ([stray] if stray else []):
        # "--flag=value" keeps a value such as "-1,2" from reading as an option.
        value = draw(options[flag])
        argv += [flag, value] if flag == "-i" else [f"{flag}={value}"]
    return argv


@given(cli_argv())
@settings(deadline=None, max_examples=120,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_argv_ends_with_a_documented_exit_code(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    capsys.readouterr()
    assert code in (0, 1, 2, 3), argv
