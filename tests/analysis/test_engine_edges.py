"""Edge cases of the two-pass rule engine: parse errors, discovery
pruning, suppression parsing, the serial parse pass, and the run-scoped
state (project, walk memo) rules see."""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.engine import (
    Finding,
    Rule,
    Severity,
    iter_python_files,
    parse_file,
    parse_files,
    parse_suppressions,
    run_rules,
    run_rules_detailed,
)
from repro.analysis.lint import lint_paths
from repro.analysis.rules import NondeterministicDecisionRule, default_rules

FIXTURES = Path(__file__).parent / "fixtures"


class TestParseErrors:
    def test_non_utf8_file_reported_not_raised(self, tmp_path):
        p = tmp_path / "latin.py"
        p.write_bytes(b"x = '\xff\xfe'\n")
        result = parse_file(p)
        assert isinstance(result, Finding)
        assert result.rule == "HL000"
        assert result.severity is Severity.ERROR
        assert result.details_dict["error"] == "decode"

    def test_syntax_error_carries_location_and_kind(self, tmp_path):
        p = tmp_path / "broken.py"
        p.write_text("def f(:\n")
        result = parse_file(p)
        assert isinstance(result, Finding)
        assert result.details_dict["error"] == "syntax"
        assert result.line == 1

    def test_run_rules_surfaces_parse_errors_with_findings(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        (tmp_path / "dirty.py").write_text("def f(b):\n    return b._data\n")
        findings = run_rules([tmp_path], default_rules())
        assert {f.rule for f in findings} == {"HL000", "HL001"}


class TestDiscovery:
    def test_skip_dirs_and_egg_info_are_pruned(self, tmp_path):
        bad = "def f(b):\n    return b._data\n"
        (tmp_path / "good.py").write_text("x = 1\n")
        for skipped in ("__pycache__", ".venv", "node_modules",
                        "repro.egg-info"):
            d = tmp_path / skipped
            d.mkdir()
            (d / "bad.py").write_text(bad)
        files = list(iter_python_files([tmp_path]))
        assert [f.name for f in files] == ["good.py"]
        assert lint_paths([tmp_path]) == []

    def test_duplicate_paths_are_deduped(self, tmp_path):
        p = tmp_path / "one.py"
        p.write_text("x = 1\n")
        files = list(iter_python_files([p, p, tmp_path]))
        assert files == [p]


class TestSuppressionParsing:
    def test_disable_all_is_case_insensitive(self, tmp_path):
        for variant in ("all", "ALL", "All"):
            p = tmp_path / f"m_{variant}.py"
            p.write_text(
                f"def f(b):\n    return b.data  # lint: disable={variant}\n"
            )
            assert lint_paths([p]) == []

    def test_rule_ids_are_case_insensitive(self, tmp_path):
        p = tmp_path / "m.py"
        p.write_text("def f(b):\n    return b.data  # lint: disable=hl001\n")
        assert lint_paths([p]) == []

    def test_string_embedded_disable_text_is_not_a_suppression(self):
        source = (
            "def f(b):\n"
            "    return b.data, '# lint: disable=HL001'\n"
        )
        assert parse_suppressions(source) == {}

    def test_docstring_disable_text_is_not_a_suppression(self):
        source = (
            'HINT = """suppress with\n'
            "# lint: disable=HL001\n"
            'when deliberate"""\n'
        )
        assert parse_suppressions(source) == {}

    def test_real_comment_still_counts(self):
        source = "x = 1  # lint: disable=HL001,HL005\n"
        assert parse_suppressions(source) == {1: {"HL001", "HL005"}}


class TestParsePass:
    def test_parse_files_keeps_discovery_order(self, tmp_path):
        """Contexts come back in discovery order; a broken file becomes
        an HL000 error finding instead of a context."""
        for i in range(12):
            (tmp_path / f"m{i:02d}.py").write_text(f"x = {i}\n")
        (tmp_path / "broken.py").write_text("def f(:\n")
        contexts, errors = parse_files([tmp_path])
        assert [c.path for c in contexts] == [
            p for p in iter_python_files([tmp_path]) if p.name != "broken.py"
        ]
        assert [(e.rule, Path(e.path).name, e.details_dict["error"])
                for e in errors] == [("HL000", "broken.py", "syntax")]


_DECIDER = (
    "import time\n"
    "from repro.control.governors import Decision\n"
    "\n"
    "def decide(x):\n"
    "    return Decision(x, time.time())\n"
)


class TestRunScopedState:
    def test_project_rule_does_not_keep_a_previous_runs_project(
        self, tmp_path
    ):
        """A rule instance reused after a run must not judge a file
        against that run's project, which has no module for it."""
        decider = tmp_path / "decider.py"
        decider.write_text(_DECIDER)
        other = tmp_path / "other.py"
        other.write_text("x = 1\n")
        rule = NondeterministicDecisionRule()
        ctx = parse_file(decider)
        assert [f.rule for f in rule.check(ctx)] == ["HL010"]
        assert run_rules([other], [rule]) == []
        assert [f.rule for f in rule.check(ctx)] == ["HL010"]

    def test_run_releases_project_and_walk_memo(self, tmp_path):
        class Spy(Rule):
            id = "HL999"
            uses_project = True

            def check(self, ctx):
                self.seen = (ctx.project, ctx.walk())
                return iter(())

        (tmp_path / "decider.py").write_text(_DECIDER)
        spy = Spy()
        (result,), _errors = run_rules_detailed([tmp_path], [spy])
        project, walked = spy.seen
        assert project is not None
        assert result.ctx.project is None
        # The run's list was dropped: a new walk builds a new one.
        assert result.ctx.walk() == walked
        assert result.ctx.walk() is not walked

    def test_walk_is_memoized_in_ast_walk_order(self, tmp_path):
        p = tmp_path / "m.py"
        p.write_text(_DECIDER)
        ctx = parse_file(p)
        fn = ctx.tree.body[-1]
        assert ctx.walk(fn) == list(ast.walk(fn))
        assert ctx.walk(fn) is ctx.walk(fn)
        assert ctx.walk() == list(ast.walk(ctx.tree))
        assert ctx.nodes(ast.Call) == [
            n for n in ast.walk(ctx.tree) if isinstance(n, ast.Call)
        ]


class TestWalkBudget:
    def test_lint_visits_each_node_a_bounded_number_of_times(
        self, monkeypatch
    ):
        """Rules, index and summaries share one walk per subtree: a
        whole lint run expands each node at most three times (nested
        function bodies and return values are walked on their own)."""
        nodes = sum(
            len(list(ast.walk(ast.parse(p.read_text()))))
            for p in iter_python_files([FIXTURES])
        )
        visits = 0
        children = ast.iter_child_nodes

        def counting(node):
            nonlocal visits
            visits += 1
            return children(node)

        monkeypatch.setattr(ast, "iter_child_nodes", counting)
        findings = lint_paths([FIXTURES], check_suppressions=True)
        monkeypatch.undo()
        assert findings
        assert visits <= 3 * nodes, (
            f"{visits} node visits for {nodes} nodes "
            f"({visits / nodes:.1f} per node)"
        )
