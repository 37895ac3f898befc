"""Command-line frontend.

Subcommands expose each layer (roots, poset, longest, lists, monk,
giambelli, constants), `report` renders the whole evaluation pipeline
for one type (`peterson.build_report`), and `verify` renders the
invariant suite (`checks.run_checks`).

Formats: text (default), json (the fidelity format; parsing and
re-serializing the output is byte-identical), csv (rows of
quantity,index,value).  Exit codes: 0 success, 1 usage error,
2 precondition rejection, 3 internal invariant failure (also used for
failed verify runs).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from typing import Any, Callable, Sequence

from .billey import LocalizationValue, billey_eval_bruteforce
from .errors import InvariantViolation, Rejected
from .peterson import (
    _coxeter_sum,
    _fixed_point,
    build_report,
    coxeter_word,
    full_subset,
    monk_coefficients,
    monk_eval,
    monk_structure_constants,
)
from .rootsys import LieTypeLabel, build_root_system, height, root_poset_covers
from .weyl import Word, longest_element_word

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REJECTED = 2
EXIT_INVARIANT = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this frontend reserves 2 for
    precondition rejections, so remap usage failures to exit 1."""

    def error(self, message: str) -> Any:
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _type_arg(text: str) -> LieTypeLabel:
    try:
        return LieTypeLabel.parse(text)
    except Rejected as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _int_list(text: str, what: str, example: str) -> list[int]:
    """The ints of a comma list; errors name the argument as ``what``."""
    try:
        parts = [int(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"cannot parse {what} {text!r}: want e.g. {example}"
        ) from exc
    if not parts:
        raise argparse.ArgumentTypeError(f"{what} is empty")
    return parts


def _subset_arg(text: str) -> tuple[int, ...]:
    return tuple(sorted(set(_int_list(text, "index list", "1,2,5"))))


def _word_arg(text: str) -> Word:
    return tuple(_int_list(text, "word", "1,2,1"))


def _build_parser() -> _Parser:
    parser = _Parser(prog="peterschub", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--format", choices=("text", "json", "csv"), default="text",
        help="output format (default text)",
    )
    parser.add_argument(
        "--seed-word", type=_word_arg, default=None, metavar="J1,J2,...",
        help="alternative reduced word to evaluate at instead of the "
        "canonical longest word (must spell the same element); "
        "lists, monk, giambelli and report only",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name: str, help_text: str, *, typed: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        if typed:
            p.add_argument("--type", type=_type_arg, required=True, metavar="Xn",
                           help="Lie type label, e.g. A3, E8")
        p.add_argument("--format", choices=("text", "json", "csv"),
                       default=argparse.SUPPRESS, help=argparse.SUPPRESS)
        p.add_argument("--seed-word", type=_word_arg,
                       default=argparse.SUPPRESS, help=argparse.SUPPRESS)
        return p

    add("roots", "positive roots with heights")
    add("poset", "cover pairs of the root poset")
    p = add("longest", "canonical reduced word of a parabolic longest element")
    p.add_argument("--subset", type=_subset_arg, default=None, metavar="I1,I2,...")
    add("lists", "longest word and its inversion heights, side by side")
    p = add("monk", "degree-one class evaluations at the longest fixed point")
    p.add_argument("-i", type=int, default=None, metavar="K", help="single generator index")
    p = add("giambelli", "Coxeter class self-evaluation, optionally with an oracle")
    p.add_argument("--subset", type=_subset_arg, default=None, metavar="I1,I2,...")
    p.add_argument("--oracle", choices=("backtrack", "subsets"), default=None)
    p.add_argument("--window", type=int, default=None, metavar="N")
    p = add("constants", "expansion constants of a degree-one times a Coxeter class")
    p.add_argument("-i", type=int, required=True, metavar="K")
    p.add_argument("--subset", type=_subset_arg, required=True, metavar="I1,I2,...")
    add("report", "full pipeline for one type, with stage timings")
    p = add("verify", "run the invariant suite", typed=False)
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    return parser


# ---------------------------------------------------------------------------
# rendering


def _atom(x: Any) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if x is None:
        return ""
    if isinstance(x, list):
        return " ".join(_atom(i) for i in x)
    if isinstance(x, dict):
        return ";".join(f"{k}={_atom(v)}" for k, v in x.items())
    return str(x)


def _csv_rows(payload: dict[str, Any]) -> list[tuple[str, str, str]]:
    rows: list[tuple[str, str, str]] = []
    for key, val in payload.items():
        if isinstance(val, list):
            for idx, item in enumerate(val, 1):
                if isinstance(item, dict):
                    for k2, v2 in item.items():
                        rows.append((f"{key}.{k2}", str(idx), _atom(v2)))
                else:
                    rows.append((key, str(idx), _atom(item)))
        elif isinstance(val, dict):
            for k2, v2 in val.items():
                rows.append((key, str(k2), _atom(v2)))
        else:
            rows.append((key, "", _atom(val)))
    return rows


def _emit(payload: dict[str, Any], lines: list[str], fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("quantity", "index", "value"))
        writer.writerows(_csv_rows(payload))
        sys.stdout.write(buf.getvalue())
    else:
        sys.stdout.write("\n".join(lines) + "\n")


def _fraction_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_roots(ns: argparse.Namespace) -> tuple[dict, list[str], int]:
    rs = build_root_system(ns.type)
    payload = {
        "type": str(rs.label),
        "count": len(rs.positives),
        "roots": [
            {"coeffs": list(r), "height": height(r)} for r in rs.positives
        ],
    }
    lines = [f"{rs.label}: {len(rs.positives)} positive roots"]
    lines += [f"{' '.join(map(str, r))}  ht {height(r)}" for r in rs.positives]
    return payload, lines, EXIT_OK


def _cmd_poset(ns: argparse.Namespace) -> tuple[dict, list[str], int]:
    rs = build_root_system(ns.type)
    covers = sorted(root_poset_covers(rs), key=lambda c: (height(c[1]), c[1], c[0]))
    payload = {
        "type": str(rs.label),
        "count": len(covers),
        "covers": [{"lower": list(lo), "upper": list(up)} for lo, up in covers],
    }
    lines = [f"{rs.label}: {len(covers)} cover pairs"]
    lines += [
        f"{' '.join(map(str, lo))} < {' '.join(map(str, up))}" for lo, up in covers
    ]
    return payload, lines, EXIT_OK


def _cmd_longest(ns: argparse.Namespace) -> tuple[dict, list[str], int]:
    rs = build_root_system(ns.type)
    subset = ns.subset if ns.subset is not None else tuple(range(1, rs.rank + 1))
    word = longest_element_word(rs, subset)
    payload = {
        "type": str(rs.label),
        "subset": list(subset),
        "word": list(word),
        "length": len(word),
    }
    lines = [
        f"type:   {rs.label}",
        f"subset: {' '.join(map(str, subset))}",
        f"word:   {' '.join(map(str, word))}",
        f"length: {len(word)}",
    ]
    return payload, lines, EXIT_OK


def _cmd_lists(ns: argparse.Namespace) -> tuple[dict, list[str], int]:
    rs = build_root_system(ns.type)
    word, heights = _fixed_point(rs, full_subset(rs), ns.seed_word)
    payload = {
        "type": str(rs.label),
        "word": list(word),
        "heights": list(heights),
        "length": len(word),
    }
    lines = [
        f"word:    {' '.join(map(str, word))}",
        f"heights: {' '.join(map(str, heights))}",
    ]
    return payload, lines, EXIT_OK


def _cmd_monk(ns: argparse.Namespace) -> tuple[dict, list[str], int]:
    rs = build_root_system(ns.type)
    if ns.i is not None:
        val = monk_eval(rs, ns.i, word=ns.seed_word)
        payload = {
            "type": str(rs.label),
            "i": ns.i,
            "coeff": val.coeff,
            "degree": val.degree,
        }
        return payload, [f"p_s{ns.i} = {val}"], EXIT_OK
    coeffs = monk_coefficients(*_fixed_point(rs, full_subset(rs), ns.seed_word), rs.rank)
    payload = {
        "type": str(rs.label),
        "monk": {str(i): c for i, c in coeffs.items()},
        "total": sum(coeffs.values()),
        "degree": 1,
    }
    lines = [f"p_s{i} = {LocalizationValue(c, 1)}" for i, c in coeffs.items()]
    lines.append(f"total coeff: {payload['total']}")
    return payload, lines, EXIT_OK


def _cmd_giambelli(ns: argparse.Namespace) -> tuple[dict, list[str], int]:
    rs = build_root_system(ns.type)
    subset = ns.subset if ns.subset is not None else tuple(range(1, rs.rank + 1))
    K = frozenset(subset)
    # The seed word is checked against w_J once, for the dp and the oracle alike.
    word, heights = _fixed_point(rs, K, ns.seed_word)
    v = coxeter_word(subset)
    val = LocalizationValue(_coxeter_sum(rs, K, word, heights), len(v))
    payload: dict[str, Any] = {
        "type": str(rs.label),
        "subset": list(subset),
        "coeff": val.coeff,
        "degree": val.degree,
    }
    lines = [f"p_v(w) = {val}  (dp)"]
    if ns.oracle is not None:
        window = ns.window if ns.window is not None else len(word)
        oracle_val = billey_eval_bruteforce(
            rs, v, word,
            window=ns.window,
            full_subset_scan=(ns.oracle == "subsets"),
        )
        payload["oracle"] = {
            "method": ns.oracle,
            "window": window,
            "coeff": oracle_val.coeff,
            "agrees": oracle_val == val,
        }
        lines.append(f"p_v(w) = {oracle_val}  (oracle: {ns.oracle}, window {window})")
        lines.append("agreement: " + ("yes" if oracle_val == val else "NO"))
        if oracle_val != val:
            raise InvariantViolation(
                f"oracle {oracle_val} disagrees with dp {val}"
            )
    return payload, lines, EXIT_OK


def _cmd_constants(ns: argparse.Namespace) -> tuple[dict, list[str], int]:
    rs = build_root_system(ns.type)
    constants = monk_structure_constants(rs, ns.i, ns.subset)
    ordered = sorted(constants.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
    payload = {
        "type": str(rs.label),
        "i": ns.i,
        "subset": list(ns.subset),
        "constants": [
            {
                "subset": sorted(kp),
                "numerator": c.numerator,
                "denominator": c.denominator,
                "exponent": e,
            }
            for kp, (c, e) in ordered
        ],
    }
    lines = [f"p_s{ns.i} * p_v{{{','.join(map(str, ns.subset))}}} expands as:"]
    for kp, (c, e) in ordered:
        t_part = "" if e == 0 else (" * t" if e == 1 else f" * t^{e}")
        lines.append(f"  {{{','.join(map(str, sorted(kp)))}}}: {_fraction_text(c)}{t_part}")
    if not ordered:
        lines.append("  (zero)")
    return payload, lines, EXIT_OK


def _cmd_report(ns: argparse.Namespace) -> tuple[dict, list[str], int]:
    rs = build_root_system(ns.type)
    payload = build_report(rs, ns.seed_word)
    monk, oracle = payload["monk"], payload["oracle"]
    monk_text = " ".join(f"{i}:{c}" for i, c in monk.items())
    if oracle is None:
        oracle_text = "skipped (longest word exceeds the oracle length cap)"
    else:
        oracle_text = (
            f"{oracle['method']} coeff {oracle['coeff']}, "
            + ("agrees" if oracle["agrees"] else "DISAGREES")
        )
    lines = [
        f"type:               {payload['type_label']}",
        f"longest word:       {' '.join(map(str, payload['longest_word']))}",
        f"inversion heights:  {' '.join(map(str, payload['inversion_heights']))}",
        f"monk coeffs:        {monk_text}  (total {sum(monk.values())})",
        f"giambelli coeff:    {payload['giambelli']}",
        f"ratio:              {_fraction_text(Fraction(**payload['ratio']))}",
        f"reduced words of v: {payload['reduced_word_count_vk']}",
        f"oracle:             {oracle_text}",
        "timings ms:         "
        + " ".join(f"{k}={v}" for k, v in payload["timings"].items()),
    ]
    return payload, lines, EXIT_OK


def _cmd_verify(ns: argparse.Namespace) -> tuple[dict, list[str], int]:
    # Only verify needs the registry, so it stays off every other startup.
    from .checks import run_checks

    results = run_checks(ns.level)
    failed = [r for r in results if not r.ok]
    payload = {
        "level": ns.level,
        "passed": len(results) - len(failed),
        "failed": len(failed),
        "checks": [
            {"name": r.name, "ok": r.ok, "detail": r.detail} for r in results
        ],
    }
    lines = [
        ("ok   " if r.ok else "FAIL ") + f"{r.name}  ({r.detail})" for r in results
    ]
    lines.append(f"passed {payload['passed']}/{len(results)}, level {ns.level}")
    return payload, lines, EXIT_OK if not failed else EXIT_INVARIANT


_COMMANDS: dict[str, Callable[[argparse.Namespace], tuple[dict, list[str], int]]] = {
    "roots": _cmd_roots,
    "poset": _cmd_poset,
    "longest": _cmd_longest,
    "lists": _cmd_lists,
    "monk": _cmd_monk,
    "giambelli": _cmd_giambelli,
    "constants": _cmd_constants,
    "report": _cmd_report,
    "verify": _cmd_verify,
}


# The subcommands that evaluate at a fixed point and so can take --seed-word.
_SEED_WORD_COMMANDS = ("lists", "monk", "giambelli", "report")


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.seed_word is not None and ns.command not in _SEED_WORD_COMMANDS:
        parser.error(
            f"--seed-word does not apply to {ns.command}; "
            f"it applies to {', '.join(_SEED_WORD_COMMANDS)}"
        )
    if ns.command == "giambelli" and ns.window is not None and ns.oracle is None:
        parser.error("--window only applies to an --oracle run")
    try:
        payload, lines, code = _COMMANDS[ns.command](ns)
    except Rejected as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    _emit(payload, lines, ns.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
