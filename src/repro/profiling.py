"""In-process profiling for the CLI (``--profile``).

Hot-path regressions in the simulator or the experiment grid should be
diagnosable without external tooling: ``repro simulate --profile`` and
``repro experiment <key>|all --profile`` run their workload under
:mod:`cProfile` and print the top cumulative-time entries before the
normal output.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import sys
from typing import Callable, TextIO, TypeVar

T = TypeVar("T")

#: How many entries ``--profile`` prints, sorted by cumulative time.
PROFILE_TOP_N = 25


def profile_call(
    fn: Callable[[], T],
    top: int = PROFILE_TOP_N,
    stream: TextIO = None,
) -> T:
    """Run ``fn`` under cProfile, print the top-``top`` cumulative entries.

    Returns ``fn``'s result; the profile table goes to ``stream``
    (default stdout) so it lands next to the command's regular output.
    """
    profiler = cProfile.Profile()
    result = profiler.runcall(fn)
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    (stream or sys.stdout).write(buffer.getvalue())
    return result
