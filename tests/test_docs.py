"""The documentation stays consistent with the code (links, CLI flags,
citations, dotted names).

Runs ``scripts/check_docs.py`` — the same check CI's docs job executes —
so a flag added to argparse without a docs/cli.md entry (or vice versa)
fails the tier-1 suite, not just CI.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_check_docs_passes():
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "check_docs.py")],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert result.returncode == 0, (
        f"docs check failed:\n{result.stderr}\n{result.stdout}"
    )
    assert "docs ok" in result.stdout


def test_docs_exist():
    for name in ("architecture.md", "cli.md", "reproducing.md"):
        assert (REPO_ROOT / "docs" / name).is_file(), f"docs/{name} missing"


def _check_docs_module():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "scripts" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docstring_citations_flag_missing_markdown(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "present.md").write_text("# present\n")
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        '"""Module.\n\nSee docs/present.md and DESIGN.md.\n"""\n\n\n'
        'def f():\n    """Cites docs/absent.md §2."""\n'
    )
    errors = _check_docs_module().check_docstring_citations(tmp_path)
    assert errors == [
        f"{Path('src/pkg/mod.py')}:3: docstring cites DESIGN.md, which does not exist",
        f"{Path('src/pkg/mod.py')}:8: docstring cites docs/absent.md, which does not exist",
    ]


def test_dotted_names_flag_what_does_not_import(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text(
        "Costs live in `repro.engine.costs`; see `repro.engine.costs.order_tasks`.\n"
        "Run `repro.experiments all` for everything.\n"
    )
    (tmp_path / "docs" / "guide.md").write_text(
        "# Guide\n\n`repro.engine.costs.order_cell_tasks` and `repro.no_such_module`.\n"
    )
    errors = _check_docs_module().check_dotted_names(tmp_path)
    guide = Path("docs/guide.md")
    assert errors == [
        f"{guide}:3: `repro.engine.costs.order_cell_tasks` does not resolve by import",
        f"{guide}:3: `repro.no_such_module` does not resolve by import",
    ]
