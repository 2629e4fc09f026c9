"""CI wiring: the tree must stay lint-clean.

Runs the repro.analysis linter over ``src/``, ``examples/`` and
``benchmarks/`` as part of the tier-1 suite, so a new HL violation
fails pytest the same way a unit-test regression would.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro.analysis.lint import lint_paths, main
from repro.analysis.report import format_text

SRC = Path(repro.__file__).resolve().parent          # src/repro
REPO_ROOT = SRC.parents[1]                           # repo root


def _tree_paths():
    paths = [SRC]
    for extra in ("examples", "benchmarks"):
        p = REPO_ROOT / extra
        if p.is_dir():
            paths.append(p)
    return paths


#: Rule ids of the suppression audit (stale / unknown suppressions).
AUDIT_RULES = {"HLS01", "HLS02"}


@pytest.fixture(scope="module")
def tree_lint():
    """One timed ``--check-suppressions`` lint of the whole tree, shared
    by the clean, audit and runtime-budget checks."""
    import time

    start = time.perf_counter()
    findings = lint_paths(_tree_paths(), check_suppressions=True)
    return findings, time.perf_counter() - start


def test_tree_is_lint_clean(tree_lint):
    findings = [f for f in tree_lint[0] if f.rule not in AUDIT_RULES]
    assert findings == [], "\n" + format_text(findings)


def test_tree_suppressions_are_all_live(tree_lint):
    """--check-suppressions finds no stale or unknown suppressions."""
    findings = [f for f in tree_lint[0] if f.rule in AUDIT_RULES]
    assert findings == [], "\n" + format_text(findings)


def test_tree_lint_is_byte_identical_across_runs():
    from repro.analysis.report import format_json

    first, second = (format_json(lint_paths(_tree_paths())) for _ in range(2))
    assert first == second


def test_tree_lint_stays_within_runtime_budget(tree_lint):
    """Whole-tree lint must stay fast: no pass re-walking every subtree,
    no superlinear blow-up such as summaries recomputed per call site.

    Budget: 3 s.  Under pytest on a 2-vCPU x86-64 container the lint
    takes 1.4-2.1 s with the run-scoped walk memo; without it (each
    rule, summary and call-graph pass re-walking its subtrees, about
    twenty visits per node) it took 4.5-5.7 s there.
    """
    elapsed = tree_lint[1]
    assert elapsed < 3.0, f"whole-tree lint took {elapsed:.2f}s (budget 3s)"


def test_cli_exit_codes(tmp_path, capsys):
    clean = tmp_path / "ok.py"
    clean.write_text("x = 1\n")
    assert main([str(clean)]) == 0
    assert "clean" in capsys.readouterr().out

    dirty = tmp_path / "bad.py"
    dirty.write_text("def f(b):\n    return b._data\n")
    assert main([str(dirty)]) == 1
    out = capsys.readouterr().out
    assert "HL001" in out


def test_cli_json_format(tmp_path, capsys):
    import json

    dirty = tmp_path / "bad.py"
    dirty.write_text("import threading\nt = threading.Thread()\n")
    assert main([str(dirty), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["errors"] >= 1
    assert payload["findings"][0]["rule"] == "HL005"


def test_cli_rejects_unknown_rule_id(tmp_path, capsys):
    p = tmp_path / "ok.py"
    p.write_text("x = 1\n")
    assert main([str(p), "--select", "HL999"]) == 2
    assert "unknown rule id" in capsys.readouterr().out


def test_cli_rejects_missing_path(capsys):
    assert main(["/no/such/path"]) == 2
    assert "no such path" in capsys.readouterr().out


@pytest.mark.parametrize("module", ["lint", "sanitize"])
def test_repro_main_exposes_subcommands(module):
    from repro.__main__ import _build_parser

    parser = _build_parser()
    # Will raise SystemExit(2) if the subcommand is unknown.
    args = parser.parse_args([module] if module == "lint" else [module, "x"])
    assert args.command == module
