#!/usr/bin/env python3
"""Documentation consistency checks (run by the CI docs job and the tests).

Five invariants:

1. **Links** — every relative markdown link in README.md and docs/*.md
   must point at a file that exists in the repository.
2. **Flags** — every ``--flag`` mentioned in docs/cli.md must exist in
   the ``python -m repro.experiments`` argparse definition, and every
   user-facing parser flag must be documented in docs/cli.md.  Combined
   with the CI step that runs each subcommand's ``--help``, documented
   flags cannot drift from the implementation.
3. **Metrics** — every metric in the engine's catalogue
   (``repro.engine.metrics.CATALOG``) must be documented in
   docs/observability.md with its exact type and label names, every
   ``repro_*`` name the doc mentions must exist in the catalogue, and
   every label value the catalogue enumerates must appear in the doc.
4. **Citations** — every ``*.md`` file a docstring under ``src/`` cites
   (as a path relative to the repository root, e.g. ``docs/cli.md``)
   must exist.
5. **Names** — every backticked dotted ``repro.…`` name in README.md and
   docs/*.md (e.g. ``repro.engine.costs``) must resolve by import: a
   module, or an attribute path inside one.

Exits non-zero with one line per violation.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FLAG_PATTERN = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def markdown_files(root: Path = ROOT) -> list[Path]:
    files = [root / "README.md"]
    files.extend(sorted((root / "docs").glob("*.md")))
    return [path for path in files if path.is_file()]


def check_links() -> list[str]:
    errors: list[str] = []
    for path in markdown_files():
        for line_number, line in enumerate(path.read_text().splitlines(), 1):
            for target in LINK_PATTERN.findall(line):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                relative = target.split("#", 1)[0]
                if not relative:
                    continue
                resolved = (path.parent / relative).resolve()
                if not resolved.exists():
                    errors.append(
                        f"{path.relative_to(ROOT)}:{line_number}: "
                        f"broken link -> {target}"
                    )
    return errors


def parser_flags() -> set[str]:
    from repro.experiments.runner import build_parser

    flags: set[str] = set()

    def walk(parser: argparse.ArgumentParser) -> None:
        for action in parser._actions:
            for option in action.option_strings:
                if option.startswith("--"):
                    flags.add(option)
            if isinstance(action, argparse._SubParsersAction):
                seen = set()
                for subparser in action.choices.values():
                    if id(subparser) not in seen:
                        seen.add(id(subparser))
                        walk(subparser)

    walk(build_parser())
    flags.discard("--help")
    return flags


def check_flags() -> list[str]:
    cli_doc = ROOT / "docs" / "cli.md"
    if not cli_doc.is_file():
        return [f"missing {cli_doc.relative_to(ROOT)}"]
    documented = set(FLAG_PATTERN.findall(cli_doc.read_text()))
    documented.discard("--help")
    actual = parser_flags()
    errors = []
    for flag in sorted(documented - actual):
        errors.append(f"docs/cli.md documents {flag}, which the CLI does not define")
    for flag in sorted(actual - documented):
        errors.append(f"CLI defines {flag}, which docs/cli.md does not document")
    return errors


METRIC_NAME_PATTERN = re.compile(r"\brepro_[a-z0-9_]+\b")

_METRIC_SUFFIXES = ("_bucket", "_sum", "_count")


def check_metrics_docs() -> list[str]:
    """docs/observability.md must match the code's metric catalogue."""
    from repro.engine.metrics import CATALOG

    doc = ROOT / "docs" / "observability.md"
    if not doc.is_file():
        return [f"missing {doc.relative_to(ROOT)}"]
    text = doc.read_text()
    mentioned = set(METRIC_NAME_PATTERN.findall(text))
    catalogued = {entry["name"] for entry in CATALOG}
    # Exposition-format examples legitimately mention derived histogram
    # series (repro_..._bucket/_sum/_count); fold them onto their family.
    normalized = set()
    for name in mentioned:
        for suffix in _METRIC_SUFFIXES:
            base = name.removesuffix(suffix)
            if base != name and base in catalogued:
                name = base
                break
        normalized.add(name)
    errors = []
    for name in sorted(normalized - catalogued):
        errors.append(
            f"docs/observability.md mentions {name}, which the metric "
            "catalogue (repro.engine.metrics.CATALOG) does not define"
        )
    for name in sorted(catalogued - normalized):
        errors.append(
            f"metric {name} is in the catalogue but not documented in "
            "docs/observability.md"
        )
    for entry in CATALOG:
        if entry["name"] not in normalized:
            continue  # already reported as undocumented
        if entry["type"] not in text:
            errors.append(
                f"docs/observability.md does not state that "
                f"{entry['name']} is a {entry['type']}"
            )
        for label, values in entry["labels"].items():
            if f"`{label}`" not in text and f'{label}="' not in text:
                errors.append(
                    f"docs/observability.md does not document label "
                    f"{label!r} of {entry['name']}"
                )
            for value in values:
                if value not in text:
                    errors.append(
                        f"docs/observability.md does not mention label "
                        f"value {value!r} of {entry['name']}{{{label}}}"
                    )
    return errors


DOC_CITATION_PATTERN = re.compile(r"(?<![\w./-])[\w./-]*\w\.md\b")
_DOCSTRING_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def check_docstring_citations(root: Path = ROOT) -> list[str]:
    """Every ``*.md`` file cited in a ``src/`` docstring must exist."""
    errors = []
    for path in sorted((root / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, _DOCSTRING_OWNERS):
                continue
            docstring = ast.get_docstring(node, clean=False)
            if docstring is None:
                continue
            first_line = node.body[0].lineno
            for match in DOC_CITATION_PATTERN.finditer(docstring):
                if (root / match.group()).is_file():
                    continue
                line = first_line + docstring.count("\n", 0, match.start())
                errors.append(
                    f"{path.relative_to(root)}:{line}: docstring cites "
                    f"{match.group()}, which does not exist"
                )
    return errors


DOTTED_NAME_PATTERN = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)`")


def resolves(name: str) -> bool:
    """Whether ``name`` imports: its longest importable module prefix,
    then attribute lookups for the rest."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attribute in parts[cut:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def check_dotted_names(root: Path = ROOT) -> list[str]:
    """Every backticked ``repro.…`` name in the docs must resolve by import."""
    errors = []
    for path in markdown_files(root):
        for line_number, line in enumerate(path.read_text().splitlines(), 1):
            for name in DOTTED_NAME_PATTERN.findall(line):
                if not resolves(name):
                    errors.append(
                        f"{path.relative_to(root)}:{line_number}: "
                        f"`{name}` does not resolve by import"
                    )
    return errors


def main() -> int:
    errors = (
        check_links()
        + check_flags()
        + check_metrics_docs()
        + check_docstring_citations()
        + check_dotted_names()
    )
    for error in errors:
        print(error, file=sys.stderr)
    if errors:
        print(f"{len(errors)} documentation problem(s)", file=sys.stderr)
        return 1
    from repro.engine.metrics import CATALOG

    print(
        f"docs ok: {len(markdown_files())} markdown files, "
        f"{len(parser_flags())} CLI flags and {len(CATALOG)} metrics "
        "cross-checked"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
