"""Run the repo lint: ``python -m tools.lint [paths ...]``.

Exit code 0 when clean, 1 when any violation is found (the CI gate),
2 on usage errors.  ``--list-rules`` prints the catalog; ``--rule``
restricts the run to specific rule ids.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from tools.lint.framework import REPO_ROOT, default_rules, run_lint


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.lint",
        description="repo-invariant lint (seeded RNG, wall clock, "
        "unordered iteration, event-kind order, "
        "the Emulator service contract)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="ID",
        help="run only this rule id (repeatable), e.g. --rule REPRO003",
    )
    parser.add_argument(
        "--root", default=None, help="repo root (default: autodetected)"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog"
    )
    args = parser.parse_args(argv)

    rules = default_rules()
    if args.list_rules:
        for rule in rules:
            print(f"{rule.id}  {rule.title}")
            print(f"         scope: {', '.join(rule.scopes)}")
        return 0
    if args.rule:
        wanted = set(args.rule)
        known = {r.id for r in rules}
        unknown = wanted - known
        if unknown:
            print(f"unknown rule id(s): {sorted(unknown)}", file=sys.stderr)
            return 2
        rules = [r for r in rules if r.id in wanted]

    root = Path(args.root).resolve() if args.root else REPO_ROOT
    violations = run_lint(root, paths=args.paths or None, rules=rules)
    for v in violations:
        print(v.format())
    if violations:
        print(f"\n{len(violations)} violation(s)")
        return 1
    print("lint clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
