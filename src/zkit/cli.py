"""Command-line front end: run a script file, print a table or JSON.

Exit codes: 0 when every statement is ok, 1 when any statement is
refuted, 2 when any statement errors (errors win over refutations).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .dsl import parse
from .errors import ScriptSyntaxError
from .interp import Options, run_script


def _render_table(report) -> str:
    lines = []
    header = f"{'STATUS':<8} {'MS':>9}  COMMAND"
    lines.append(header)
    lines.append("-" * len(header))
    for r in report.results:
        lines.append(f"{r.status:<8} {r.ms:>9.1f}  {r.cmd}")
        summary = json.dumps(r.result, default=str)
        if len(summary) > 100:
            summary = summary[:97] + "..."
        lines.append(f"{'':<8} {'':>9}  -> {summary}")
    return "\n".join(lines)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zkit",
        description="Run zkit scripts: ring declarations, lattice and "
                    "localization decision procedures, covers and gluing, "
                    "with machine-checkable certificates.")
    parser.add_argument("script", help="script file ('-' for stdin)")
    parser.add_argument("--json", action="store_true",
                        help="emit the JSON report instead of a table")
    parser.add_argument("--seed", type=int,
                        default=os.environ.get("ZKIT_SEED", "0"),
                        help="seed for sampling commands (default: "
                             "ZKIT_SEED or 0)")
    parser.add_argument("--max-pairs", type=int, default=None,
                        help="cap on Groebner S-pairs reduced per basis "
                             "(pairs the Gebauer-Moeller criteria skip do "
                             "not count)")
    parser.add_argument("--max-exp", type=int, default=None,
                        help="cap on witness exponents (also in verify)")
    parser.add_argument("--fail-fast", action="store_true",
                        help="stop at the first non-ok statement")
    parser.add_argument("--timeout-ms", type=int, default=None,
                        help="per-statement time limit")
    return parser


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    path = Path(args.script)
    try:
        source = (sys.stdin.read() if args.script == "-"
                  else path.read_text())
    except (OSError, UnicodeDecodeError) as exc:
        print(f"zkit: cannot read {args.script}: {exc}", file=sys.stderr)
        return 2
    base_dir = Path.cwd() if args.script == "-" else path.parent
    try:
        script = parse(source)
    except ScriptSyntaxError as exc:
        print(f"zkit: syntax error: {exc}", file=sys.stderr)
        return 2
    options = Options(seed=args.seed, fail_fast=args.fail_fast,
                      max_pairs=args.max_pairs, max_exponent=args.max_exp,
                      timeout_ms=args.timeout_ms, base_dir=base_dir)
    report = run_script(script, options)
    try:
        print(json.dumps(report.to_json(), indent=2, default=str)
              if args.json else _render_table(report), flush=True)
    except BrokenPipeError:  # `zkit ... | head`: keep the exit flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
