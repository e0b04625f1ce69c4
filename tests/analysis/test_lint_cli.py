"""Suppressions, JSON report, CLI behaviour — and the tree-is-clean gate."""

from __future__ import annotations

import json
import os
import textwrap

import pytest

from repro.analysis.findings import parse_suppressions
from repro.analysis.lint import iter_python_files, lint_source, main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

BAD_LOCK = textwrap.dedent("""
    class PlanCache:
        def peek(self, key):
            return self._plans.get(key)
""")


class TestSuppressions:
    def test_trailing_directive_suppresses_own_line(self):
        src = BAD_LOCK.replace(
            "return self._plans.get(key)",
            "return self._plans.get(key)  "
            "# repro-lint: disable=lock-guard -- benign snapshot",
        )
        findings = lint_source("x.py", src)
        assert [f.rule for f in findings if not f.suppressed] == []
        sup = [f for f in findings if f.suppressed]
        assert len(sup) == 1
        assert sup[0].suppress_reason == "benign snapshot"

    def test_standalone_directive_guards_next_line(self):
        src = BAD_LOCK.replace(
            "        return self._plans.get(key)",
            "        # repro-lint: disable=lock-guard -- benign snapshot\n"
            "        return self._plans.get(key)",
        )
        assert [f for f in lint_source("x.py", src) if not f.suppressed] == []

    def test_file_level_directive(self):
        src = ("# repro-lint: disable-file=lock-guard -- fixture file\n"
               + BAD_LOCK)
        assert [f for f in lint_source("x.py", src) if not f.suppressed] == []

    def test_reason_is_mandatory(self):
        src = BAD_LOCK.replace(
            "return self._plans.get(key)",
            "return self._plans.get(key)  # repro-lint: disable=lock-guard",
        )
        findings = lint_source("x.py", src)
        active = {f.rule for f in findings if not f.suppressed}
        # The undocumented directive does NOT suppress, and is itself
        # reported — both the original finding and bad-suppression stay.
        assert active == {"lock-guard", "bad-suppression"}

    def test_multi_rule_directive(self):
        sup = parse_suppressions(
            "# repro-lint: disable=lock-guard,frozen-plan -- fixture\n")
        assert sup.lookup("lock-guard", 2) == "fixture"
        assert sup.lookup("frozen-plan", 2) == "fixture"
        assert sup.lookup("determinism", 2) is None


class TestCli:
    def test_bad_tree_exits_nonzero_and_writes_json(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(BAD_LOCK)
        report_path = tmp_path / "report.json"
        rc = main([str(tmp_path), "--json", str(report_path)])
        assert rc == 1
        report = json.loads(report_path.read_text())
        assert report["tool"] == "repro-lint"
        assert report["files_checked"] == 1
        assert report["summary"]["findings"] == 1
        assert report["summary"]["by_rule"] == {"lock-guard": 1}
        (finding,) = report["findings"]
        assert finding["rule"] == "lock-guard"
        assert finding["symbol"] == "PlanCache._plans"
        out = capsys.readouterr().out
        assert "lock-guard" in out

    def test_clean_tree_exits_zero(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main([str(tmp_path), "--quiet"]) == 0

    def test_rule_selection(self, tmp_path):
        (tmp_path / "mod.py").write_text(BAD_LOCK)
        assert main([str(tmp_path), "--rules", "determinism",
                     "--quiet"]) == 0
        assert main([str(tmp_path), "--rules", "lock-guard",
                     "--quiet"]) == 1

    def test_unknown_rule_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([str(tmp_path), "--rules", "no-such-rule"])
        assert exc.value.code == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        rules = ("frozen-plan", "lock-guard", "determinism",
                 "no-swallowed-futures")
        for rule in rules:
            assert rule in out
        assert len(out.strip().splitlines()) == len(rules)

    def test_syntax_error_is_reported_not_crashed(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        assert main([str(tmp_path), "--quiet"]) == 1

    def test_iter_python_files_is_deterministic(self, tmp_path):
        for name in ("b.py", "a.py", "c.txt"):
            (tmp_path / name).write_text("")
        sub = tmp_path / "pkg"
        sub.mkdir()
        (sub / "z.py").write_text("")
        files = [os.path.basename(p)
                 for p in iter_python_files([str(tmp_path)])]
        assert files == ["a.py", "b.py", "z.py"]


class TestTreeIsClean:
    def test_src_tree_has_no_active_findings(self):
        """The acceptance gate: the shipped tree lints clean."""
        assert main([os.path.join(REPO_ROOT, "src"), "--quiet"]) == 0
