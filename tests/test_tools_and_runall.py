"""Tests for the API-doc generator tool and the experiment registry plumbing."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import gen_api_docs  # noqa: E402  (path injection above)

from repro.cli import build_parser  # noqa: E402
from repro.experiments.runall import SECTIONS  # noqa: E402

#: Modules of ``repro.experiments`` that are shared plumbing, not sections.
INFRASTRUCTURE = {"common", "cache", "parallel", "figures", "runall"}


def _parse_all(argv):
    """Parse ``repro experiment all <argv>`` (what ``runall`` delegates)."""
    return build_parser().parse_args(["experiment", "all", *argv])


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
        args = _parse_all([])
        assert (args.output, args.figures, args.jobs, args.lanes,
                args.no_cache, args.profile) == (None, None, 1, 1, False,
                                                 False)
        assert args.stream_functions is None
        assert args.stream_invocations is None

    def test_output_only(self):
        args = _parse_all(["report.md"])
        assert args.output == Path("report.md") and args.figures is None
        assert args.jobs == 1 and args.lanes == 1
        assert not args.no_cache and not args.profile

    def test_figures_flag(self):
        args = _parse_all(["report.md", "--figures", "figs"])
        assert args.output == Path("report.md")
        assert args.figures == Path("figs") and args.jobs == 1

    def test_jobs_flag(self):
        args = _parse_all(["--jobs", "4", "report.md"])
        assert args.output == Path("report.md") and args.figures is None
        assert args.jobs == 4

    def test_cache_and_profile_flags(self):
        args = _parse_all(["--no-cache", "--profile", "report.md"])
        assert args.output == Path("report.md")
        assert args.no_cache and args.profile

    def test_lanes_flag(self):
        args = _parse_all(["--jobs", "2", "--lanes", "8", "report.md"])
        assert args.jobs == 2 and args.lanes == 8

    def test_flags_and_output_in_any_order(self):
        args = build_parser().parse_args(
            ["experiment", "--lanes", "8", "all", "--figures", "figs",
             "report.md", "--jobs", "2"])
        assert args.id == "all" and args.output == Path("report.md")
        assert args.figures == Path("figs")
        assert args.jobs == 2 and args.lanes == 8

    def test_lanes_missing_value(self):
        with pytest.raises(SystemExit):
            _parse_all(["--lanes"])

    def test_stream_scale_overrides(self):
        args = _parse_all(
            ["--stream-functions", "50", "--stream-invocations", "9000"])
        assert args.stream_functions == 50
        assert args.stream_invocations == 9000

    def test_figures_missing_value(self):
        with pytest.raises(SystemExit):
            _parse_all(["--figures"])

    def test_jobs_missing_value(self):
        with pytest.raises(SystemExit):
            _parse_all(["--jobs"])

    def test_jobs_not_a_number_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            _parse_all(["--jobs", "x"])

    def test_stream_functions_missing_value(self):
        with pytest.raises(SystemExit):
            _parse_all(["--stream-functions"])

    def test_second_output_path_rejected(self):
        with pytest.raises(SystemExit):
            _parse_all(["a.md", "b.md"])

    def test_module_delegates_to_the_cli(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "repro.experiments.runall", "--help"],
            capture_output=True, text=True, cwd=tmp_path,
            env={**os.environ,
                 "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert result.returncode == 0, result.stderr
        assert "usage: repro experiment" in result.stdout


class TestSectionRegistry:
    def test_keys_are_unique(self):
        keys = [s.key for s in SECTIONS]
        assert len(keys) == len(set(keys))
        assert "all" not in keys

    def test_every_experiment_module_backs_a_section(self):
        """A new experiment module cannot be left out of the table."""
        import pkgutil

        import repro.experiments

        modules = {
            info.name for info in pkgutil.iter_modules(
                repro.experiments.__path__)
        } - INFRASTRUCTURE
        # Each experiment module renders its own section's report.
        backing = {
            section.report.__module__.rsplit(".", 1)[-1]
            for section in SECTIONS
        }
        assert modules <= backing, sorted(modules - backing)
