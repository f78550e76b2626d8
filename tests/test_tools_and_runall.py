"""Tests for the API-doc generator tool and the runall driver plumbing."""

import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import gen_api_docs  # noqa: E402  (path injection above)

from repro.experiments.runall import _parse_args  # noqa: E402


class TestApiDocGenerator:
    def test_render_covers_every_module(self):
        text = gen_api_docs.render()
        import pkgutil

        import repro

        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            if info.name.endswith("__main__"):
                continue
            assert f"## `{info.name}`" in text, info.name

    def test_first_paragraph(self):
        doc = "Lead line\ncontinues here.\n\nSecond paragraph."
        assert gen_api_docs.first_paragraph(doc) == "Lead line continues here."
        assert gen_api_docs.first_paragraph("") == ""

    def test_main_writes_file(self, tmp_path):
        target = tmp_path / "api.md"
        assert gen_api_docs.main([str(target)]) == 0
        assert target.exists()
        assert "# API Reference" in target.read_text()

    def test_cli_invocation(self, tmp_path):
        target = tmp_path / "api.md"
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "gen_api_docs.py"),
             str(target)],
            capture_output=True, text=True, cwd=REPO_ROOT,
        )
        assert result.returncode == 0, result.stderr
        assert target.exists()

    def test_help_prints_usage_and_writes_nothing(self, tmp_path):
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "gen_api_docs.py"),
             "--help"],
            capture_output=True, text=True, cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        assert "usage:" in result.stdout
        assert list(tmp_path.iterdir()) == []

    def test_checked_in_reference_is_current(self):
        """API_REFERENCE.md must be regenerated when the API changes."""
        checked_in = (REPO_ROOT / "API_REFERENCE.md").read_text()
        assert checked_in == gen_api_docs.render()


class TestRunallArgs:
    def test_no_args(self):
        assert _parse_args([]) == (None, None, 1, 1, False, False, {})

    def test_output_only(self):
        out, figs, jobs, lanes, no_cache, profile, overrides = _parse_args(
            ["report.md"])
        assert out == Path("report.md") and figs is None and jobs == 1
        assert lanes == 1 and not no_cache and not profile
        assert overrides == {}

    def test_figures_flag(self):
        out, figs, jobs, *_ = _parse_args(
            ["report.md", "--figures", "figs"])
        assert out == Path("report.md") and figs == Path("figs")
        assert jobs == 1

    def test_jobs_flag(self):
        out, figs, jobs, *_ = _parse_args(["--jobs", "4", "report.md"])
        assert out == Path("report.md") and figs is None and jobs == 4

    def test_cache_and_profile_flags(self):
        out, figs, jobs, lanes, no_cache, profile, _ = _parse_args(
            ["--no-cache", "--profile", "report.md"])
        assert out == Path("report.md") and no_cache and profile

    def test_lanes_flag(self):
        _, _, jobs, lanes, *_ = _parse_args(
            ["--jobs", "2", "--lanes", "8", "report.md"])
        assert jobs == 2 and lanes == 8

    def test_lanes_missing_value(self):
        with pytest.raises(SystemExit):
            _parse_args(["--lanes"])

    def test_stream_scale_overrides(self):
        *_, overrides = _parse_args(
            ["--stream-functions", "50", "--stream-invocations", "9000"])
        assert overrides == {"stream_functions": 50,
                             "stream_invocations": 9000}

    def test_figures_missing_value(self):
        with pytest.raises(SystemExit):
            _parse_args(["--figures"])

    def test_jobs_missing_value(self):
        with pytest.raises(SystemExit):
            _parse_args(["--jobs"])

    def test_stream_functions_missing_value(self):
        with pytest.raises(SystemExit):
            _parse_args(["--stream-functions"])
