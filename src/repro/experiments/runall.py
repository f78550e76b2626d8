"""Every paper experiment in one table, and the driver that runs them all.

:data:`SECTIONS` is the one list of experiments: each entry holds a
section's key, its report title, how it runs and how it reports.  Both
front ends read it::

    python -m repro experiment <key>|all [output.md] [--figures DIR]
        [--jobs N] [--lanes L] [--no-cache] [--profile]
        [--stream-functions N] [--stream-invocations N]
    python -m repro.experiments.runall [output.md] [flags as above]

A single key prints that section's report body; ``all`` (and
``runall``, which delegates to it) runs :func:`run_all` and regenerates the
data section of EXPERIMENTS.md.

Honors ``REPRO_SCALE``.  The MLCR training cache is shared across
experiments, so fig8/fig9/fig10 train each pool size once.  With
``--figures`` the fig8/9/10/11 results are additionally rendered as SVG
files into the given directory.  ``--jobs N`` fans the simulated cells
of the grid, Fig 8, Fig 10, Fig 11 and ablation sections (baselines and
trained MLCR policies alike) over N worker processes, and ``--lanes L``
puts L of a section's cells in one lane kernel; ``--jobs`` and ``--lanes``
also reach the streaming replay section.  The report text is identical
for any N and L.

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
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

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
    sharding,
    tab2_functions,
)
from repro.experiments.cache import ExperimentCache
from repro.experiments.common import ExperimentScale


@dataclass(frozen=True)
class Section:
    """One experiment: its key, report title, runner and report renderer.

    ``runner(scale, **options)`` returns the result ``report`` renders;
    ``options`` names which of ``jobs``, ``cache`` and ``lanes`` it takes.
    """

    key: str
    title: str
    runner: Callable[..., object]
    report: Callable[[object], str]
    options: Tuple[str, ...] = ()

    def run(self, scale: ExperimentScale, jobs: int = 1,
            cache: Optional[ExperimentCache] = None, lanes: int = 1):
        """Run the section at ``scale`` with the options its runner takes."""
        given = {"jobs": jobs, "cache": cache, "lanes": lanes}
        return self.runner(scale, **{name: given[name]
                                     for name in self.options})


#: What every run_grid-backed section takes.
_GRID = ("jobs", "cache", "lanes")

#: Every experiment, in report order.
SECTIONS: Tuple[Section, ...] = (
    Section("fig1", "Fig 1 - startup breakdown (C vs W)",
            lambda scale: fig1_breakdown.run(), fig1_breakdown.report),
    Section("fig2", "Fig 2 - greedy vs planned reuse",
            lambda scale: fig2_motivation.run(), fig2_motivation.report),
    Section("fig3", "Fig 3 - Docker Hub popularity",
            lambda scale: fig3_dockerhub.run(), fig3_dockerhub.report),
    Section("tab2", "Table II - FStartBench functions",
            lambda scale: tab2_functions.run(), tab2_functions.report),
    Section("fig8", "Fig 8 - overall latency & cold starts",
            fig8_overall.run, fig8_overall.report, _GRID),
    Section("fig9", "Fig 9 - cumulative trajectories",
            fig9_trajectory.run, fig9_trajectory.report),
    Section("fig10", "Fig 10 - warm resource consumption",
            fig10_memory.run, fig10_memory.report, _GRID),
    Section("fig11a", "Fig 11a - function similarity",
            partial(fig11_benchmarks.run_subfigure, "a:similarity"),
            fig11_benchmarks.report, _GRID),
    Section("fig11b", "Fig 11b - package size variance",
            partial(fig11_benchmarks.run_subfigure, "b:variance"),
            fig11_benchmarks.report, _GRID),
    Section("fig11c", "Fig 11c - arrival patterns",
            partial(fig11_benchmarks.run_subfigure, "c:arrival"),
            fig11_benchmarks.report, _GRID),
    Section("overhead", "Section VI-D - scheduler overhead",
            overhead.run, overhead.report),
    Section("ablations", "Ablations", ablations.run, ablations.report, _GRID),
    Section("queueing", "Extension - worker concurrency & queueing",
            queueing.run, queueing.report),
    Section("grid", "Baseline grid (parallel runner)",
            parallel.run_default_grid, parallel.GridResult.report, _GRID),
    Section("stream", "Extension - streaming Azure-like replay",
            ext_stream_replay.run, ext_stream_replay.report,
            ("jobs", "lanes")),
    Section("sharding", "Extension - global vs per-worker warm pools",
            sharding.run, sharding.report),
)


def run_all(
    output: Path | None = None,
    scale: ExperimentScale | None = None,
    figures_dir: Path | None = None,
    jobs: int = 1,
    cache: Optional[ExperimentCache] = None,
    lanes: int = 1,
) -> str:
    """Run every section of :data:`SECTIONS`; returns (and optionally
    writes) the report.

    ``jobs`` fans the cells of the ``run_grid``-backed sections (grid,
    Fig 8, Fig 10, Fig 11, ablations) and the streaming replay over worker
    processes, and ``lanes`` sets how many of a section's cells share one
    lane kernel; the report text does not depend on either.  With ``cache`` given, section bodies are
    served content-addressed (except when ``figures_dir`` is set, which
    needs the in-memory results); a warm cache turns the whole run into
    file reads.
    """
    scale = scale or ExperimentScale.from_env()
    results: Dict[str, object] = {}
    scale_fields = asdict(scale)
    # Figure rendering needs the result objects a cached body cannot
    # provide.
    use_section_cache = (
        cache is not None and cache.enabled and figures_dir is None
    )
    sections: List[str] = [
        "# MLCR reproduction - full experiment run",
        f"scale: repeats={scale.repeats}, "
        f"train_episodes={scale.train_episodes}, restarts={scale.restarts}",
    ]
    for section in SECTIONS:
        start = time.time()
        cached_body = (
            cache.get_section(section.key, scale_fields)
            if use_section_cache else None
        )
        if cached_body is not None:
            print(f"cached: {section.title}", flush=True)
            body = cached_body
        else:
            print(f"running: {section.title} ...", flush=True)
            try:
                result = section.run(scale, jobs=jobs, cache=cache,
                                     lanes=lanes)
                body = section.report(result)
            except Exception as exc:  # pragma: no cover - surfaced, not hidden
                body = f"FAILED: {exc!r}"
            else:
                results[section.key] = result
                if use_section_cache:
                    cache.put_section(section.key, scale_fields, body)
        elapsed = time.time() - start
        # Wall-clock goes to stdout only: the report itself must be
        # byte-identical across jobs counts and cache states.
        sections.append(f"\n## {section.title}\n\n```\n{body}\n```")
        print(f"  done in {elapsed:.1f}s", flush=True)
    if figures_dir is not None:
        from repro.experiments.figures import save_figures

        written = save_figures(results, figures_dir)
        sections.append(
            "\n## Figures\n\n" + "\n".join(f"* `{p}`" for p in written)
        )
        print(f"wrote {len(written)} figure files to {figures_dir}")
    text = "\n".join(sections)
    if output is not None:
        Path(output).write_text(text)
        print(f"wrote {output}")
    return text


if __name__ == "__main__":  # pragma: no cover - ``repro experiment all``
    from repro.cli import main

    sys.exit(main(["experiment", "all", *sys.argv[1:]]))
