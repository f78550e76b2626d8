"""Run every paper experiment and write a combined report.

Used to regenerate the data section of EXPERIMENTS.md::

    python -m repro.experiments.runall [output.md] [--figures DIR]
        [--jobs N] [--lanes L] [--no-cache] [--profile]
        [--stream-functions N] [--stream-invocations N]

Honors ``REPRO_SCALE``.  The MLCR training cache is shared across
experiments, so fig8/fig9/fig10 train each pool size once.  With
``--figures`` the fig8/9/10/11 results are additionally rendered as SVG
files into the given directory.  ``--jobs N`` fans the baseline grid
section over N worker processes and ``--lanes L`` puts L of its cells in
one lane kernel (the report text is identical for any N and L).

Section bodies are deterministic (no timestamps; every seed fixed), so
each is additionally served from the content-addressed experiment cache
(:mod:`repro.experiments.cache`): a warm-cache re-run skips every
simulation and re-training and just re-assembles the report, byte-for-byte
equal to the cold run's (wall-clock timings go to stdout only, never into
the report).  ``--no-cache`` (or
``REPRO_CACHE=off``) forces fresh runs; ``--figures`` bypasses the section
cache too, because rendering needs the in-memory result objects a cached
body no longer carries.  ``--profile`` runs everything under cProfile and
prints the top-25 cumulative-time entries.

``--stream-functions`` / ``--stream-invocations`` override the streaming
replay section's trace size (defaults come from ``REPRO_SCALE``: 300 x 30k
fast, 20k x 10M full).  The overrides flow through the scale fields the
section cache is keyed on, so a resized section never serves a stale body.
"""

from __future__ import annotations

import sys
import time
from dataclasses import asdict, replace
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from repro.experiments import (
    ablations,
    ext_stream_replay,
    fig1_breakdown,
    fig2_motivation,
    fig3_dockerhub,
    fig8_overall,
    fig9_trajectory,
    fig10_memory,
    fig11_benchmarks,
    overhead,
    parallel,
    queueing,
    tab2_functions,
)
from repro.experiments.cache import ExperimentCache
from repro.experiments.common import ExperimentScale


def _experiments(
    scale: ExperimentScale, collected: dict, jobs: int = 1,
    cache: Optional[ExperimentCache] = None, lanes: int = 1,
) -> List[Tuple[str, str, Callable[[], str]]]:
    def keep(key: str, result):
        collected[key] = result
        return result

    return [
        ("fig1", "Fig 1 - startup breakdown (C vs W)",
         lambda: fig1_breakdown.report(fig1_breakdown.run())),
        ("fig2", "Fig 2 - greedy vs planned reuse",
         lambda: fig2_motivation.report(fig2_motivation.run())),
        ("fig3", "Fig 3 - Docker Hub popularity",
         lambda: fig3_dockerhub.report(fig3_dockerhub.run())),
        ("tab2", "Table II - FStartBench functions",
         lambda: tab2_functions.report(tab2_functions.run())),
        ("fig8", "Fig 8 - overall latency & cold starts",
         lambda: fig8_overall.report(keep("fig8", fig8_overall.run(scale)))),
        ("fig9", "Fig 9 - cumulative trajectories",
         lambda: fig9_trajectory.report(
             keep("fig9", fig9_trajectory.run(scale)))),
        ("fig10", "Fig 10 - warm resource consumption",
         lambda: fig10_memory.report(
             keep("fig10", fig10_memory.run(scale)))),
        ("fig11a", "Fig 11a - function similarity",
         lambda: fig11_benchmarks.report(keep(
             "fig11a",
             fig11_benchmarks.run_subfigure("a:similarity", scale)))),
        ("fig11b", "Fig 11b - package size variance",
         lambda: fig11_benchmarks.report(keep(
             "fig11b",
             fig11_benchmarks.run_subfigure("b:variance", scale)))),
        ("fig11c", "Fig 11c - arrival patterns",
         lambda: fig11_benchmarks.report(keep(
             "fig11c",
             fig11_benchmarks.run_subfigure("c:arrival", scale)))),
        ("overhead", "Section VI-D - scheduler overhead",
         lambda: overhead.report(overhead.run(scale))),
        ("ablations", "Ablations",
         lambda: ablations.report(ablations.run(scale))),
        ("queueing", "Extension - worker concurrency & queueing",
         lambda: queueing.report(queueing.run(scale))),
        ("grid", "Baseline grid (parallel runner)",
         lambda: parallel.run_default_grid(scale, jobs=jobs, cache=cache,
                                           lanes=lanes).report()),
        ("stream", "Extension - streaming Azure-like replay",
         lambda: ext_stream_replay.report(
             ext_stream_replay.run(scale, jobs=jobs))),
    ]


def run_all(
    output: Path | None = None,
    scale: ExperimentScale | None = None,
    figures_dir: Path | None = None,
    jobs: int = 1,
    cache: Optional[ExperimentCache] = None,
    lanes: int = 1,
) -> str:
    """Run every experiment; returns (and optionally writes) the report.

    ``jobs`` only parallelizes the grid section and ``lanes`` only sets
    how many of its cells share one lane kernel; the report text does not
    depend on either.  With ``cache`` given, section bodies are
    served content-addressed (except when ``figures_dir`` is set, which
    needs the in-memory results); a warm cache turns the whole run into
    file reads.
    """
    scale = scale or ExperimentScale.from_env()
    collected: dict = {}
    scale_fields = asdict(scale)
    # Figure rendering needs the result objects the section runners feed
    # into ``collected``; a cached body cannot provide them.
    use_section_cache = (
        cache is not None and cache.enabled and figures_dir is None
    )
    sections: List[str] = [
        "# MLCR reproduction - full experiment run",
        f"scale: repeats={scale.repeats}, "
        f"train_episodes={scale.train_episodes}, restarts={scale.restarts}",
    ]
    for key, title, runner in _experiments(scale, collected, jobs, cache,
                                            lanes):
        start = time.time()
        cached_body = (
            cache.get_section(key, scale_fields)
            if use_section_cache else None
        )
        if cached_body is not None:
            print(f"cached: {title}", flush=True)
            body = cached_body
        else:
            print(f"running: {title} ...", flush=True)
            try:
                body = runner()
            except Exception as exc:  # pragma: no cover - surfaced, not hidden
                body = f"FAILED: {exc!r}"
            else:
                if use_section_cache:
                    cache.put_section(key, scale_fields, body)
        elapsed = time.time() - start
        # Wall-clock goes to stdout only: the report itself must be
        # byte-identical across jobs counts and cache states.
        sections.append(f"\n## {title}\n\n```\n{body}\n```")
        print(f"  done in {elapsed:.1f}s", flush=True)
    if figures_dir is not None:
        from repro.experiments.figures import save_figures

        written = save_figures(collected, figures_dir)
        sections.append(
            "\n## Figures\n\n" + "\n".join(f"* `{p}`" for p in written)
        )
        print(f"wrote {len(written)} figure files to {figures_dir}")
    text = "\n".join(sections)
    if output is not None:
        Path(output).write_text(text)
        print(f"wrote {output}")
    return text


def _parse_args(
    argv: List[str],
) -> Tuple[Path | None, Path | None, int, int, bool, bool, dict]:
    output: Path | None = None
    figures: Path | None = None
    jobs = 1
    lanes = 1
    no_cache = False
    profile = False
    scale_overrides: dict = {}
    rest = list(argv)
    while rest:
        arg = rest.pop(0)
        if arg == "--figures":
            if not rest:
                raise SystemExit("--figures needs a directory")
            figures = Path(rest.pop(0))
        elif arg == "--jobs":
            if not rest:
                raise SystemExit("--jobs needs a worker count")
            jobs = int(rest.pop(0))
        elif arg == "--lanes":
            if not rest:
                raise SystemExit("--lanes needs a lane count")
            lanes = int(rest.pop(0))
        elif arg == "--stream-functions":
            if not rest:
                raise SystemExit("--stream-functions needs a count")
            scale_overrides["stream_functions"] = int(rest.pop(0))
        elif arg == "--stream-invocations":
            if not rest:
                raise SystemExit("--stream-invocations needs a count")
            scale_overrides["stream_invocations"] = int(rest.pop(0))
        elif arg == "--no-cache":
            no_cache = True
        elif arg == "--profile":
            profile = True
        else:
            output = Path(arg)
    return output, figures, jobs, lanes, no_cache, profile, scale_overrides


if __name__ == "__main__":  # pragma: no cover - CLI convenience
    (out, figs, n_jobs, n_lanes, no_cache, profile,
     overrides) = _parse_args(sys.argv[1:])
    run_cache = ExperimentCache(enabled=False if no_cache else None)
    run_scale = ExperimentScale.from_env()
    if overrides:
        run_scale = replace(run_scale, **overrides)

    def _main() -> str:
        return run_all(out, scale=run_scale, figures_dir=figs, jobs=n_jobs,
                       cache=run_cache, lanes=n_lanes)

    if profile:
        from repro.profiling import profile_call

        profile_call(_main)
    else:
        _main()
