"""The invariant registry, run check by check at both levels.

``verify`` renders these same checks; calling each one directly here lets
a failure show pytest's assertion message instead of a FAIL line.
"""

import pytest

from peterschub import checks, cli
from peterschub.checks import CHECKS, CheckResult, run_checks
from peterschub.errors import Rejected


@pytest.mark.parametrize("level", ("quick", "full"))
@pytest.mark.parametrize("name, check", CHECKS, ids=[name for name, _ in CHECKS])
def test_check(name, check, level):
    detail = check(level)
    assert isinstance(detail, str) and detail


def test_failures_become_results_and_verify_exits_3(monkeypatch, capsys):
    def fails(level):
        if level == "quick":
            raise AssertionError("boom")
        return "fine"

    def rejects(level):
        raise Rejected("no")

    monkeypatch.setattr(checks, "CHECKS", [("a", fails), ("b", rejects)])
    assert run_checks("quick") == [
        CheckResult("a", False, "boom"),
        CheckResult("b", False, "Rejected: no"),
    ]
    assert cli.main(["verify", "--level", "full"]) == 3
    assert capsys.readouterr().out == (
        "ok   a  (fine)\nFAIL b  (Rejected: no)\npassed 1/2, level full\n"
    )


def test_unknown_level_is_rejected():
    with pytest.raises(Rejected, match="unknown level"):
        run_checks("extreme")
