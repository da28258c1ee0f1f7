"""Tests for the CI benchmark-regression gate's input handling."""

import pytest

from benchmarks.check_regression import (
    DEFAULT_TOLERANCE,
    parse_tolerance,
    render_step_summary,
    write_step_summary,
)


class TestParseTolerance:
    def test_unset_uses_default(self):
        assert parse_tolerance(None) == DEFAULT_TOLERANCE

    def test_valid_fraction(self):
        assert parse_tolerance("0.5") == 0.5
        assert parse_tolerance("0") == 0.0

    def test_malformed_value_exits_with_clear_error(self):
        # Regression: a junk env var used to crash with a bare ValueError
        # traceback; now it exits with an actionable message.
        with pytest.raises(SystemExit, match="REPRO_BENCH_TOLERANCE"):
            parse_tolerance("thirty percent")

    @pytest.mark.parametrize("raw", ["-0.1", "1.0", "2.5"])
    def test_out_of_range_rejected(self, raw):
        with pytest.raises(SystemExit, match="lie in"):
            parse_tolerance(raw)


ROWS = [
    ("BENCH_E12.json", "rounds_per_sec", "123.4", "120.0", "ok"),
    ("BENCH_E13.json", "speedup_n256", "8.1", "12.0", "REGRESSED"),
    ("BENCH_E21.json", "new_series", "55", "—", "only in current"),
]


class TestStepSummary:
    def test_render_is_a_markdown_table(self):
        text = render_step_summary(ROWS, 0.3, failed=True)
        assert "## Benchmark-regression gate" in text
        assert "Tolerance 30%" in text
        assert "regressions detected" in text
        assert "| benchmark | metric | current | baseline | status |" in text
        for _, metric, *_ in ROWS:
            assert metric in text

    def test_render_reports_success(self):
        assert "no regressions" in render_step_summary(ROWS[:1], 0.3, failed=False)

    def test_write_appends_to_github_step_summary(self, tmp_path, monkeypatch):
        summary = tmp_path / "summary.md"
        summary.write_text("existing content\n")
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        write_step_summary(ROWS, 0.3, failed=False)
        text = summary.read_text()
        assert text.startswith("existing content\n")
        assert "| BENCH_E12.json | rounds_per_sec | 123.4 | 120.0 | ok |" in text

    def test_write_is_a_no_op_outside_actions(self, monkeypatch):
        monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
        write_step_summary(ROWS, 0.3, failed=False)  # must not raise
