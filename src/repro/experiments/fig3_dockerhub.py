"""Figure 3: pull-count popularity of the top-1000 Docker Hub images.

The design-rationale measurement behind multi-level reuse: a few base (OS)
and language images dominate pulls -- the top-4 base images account for ~77 %
of base-image pulls.  Reproduced over the synthetic Zipf-calibrated registry
(Docker Hub is not reachable offline; see DESIGN.md substitutions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.report import ascii_bar_chart
from repro.packages.package import PackageLevel
from repro.packages.registry import SyntheticRegistry


@dataclass(frozen=True)
class Fig3Result:
    """Top images per level and the headline concentration statistics."""

    top_base_images: List[Tuple[str, int]]
    top_language_images: List[Tuple[str, int]]
    top4_base_share: float
    top4_language_share: float


def run(registry: SyntheticRegistry | None = None, top_k: int = 8) -> Fig3Result:
    """Run the experiment; returns its result dataclass."""
    reg = registry or SyntheticRegistry()
    base = [(im.name, im.pull_count)
            for im in reg.images_at_level(PackageLevel.OS)[:top_k]]
    lang = [(im.name, im.pull_count)
            for im in reg.images_at_level(PackageLevel.LANGUAGE)[:top_k]]
    return Fig3Result(
        top_base_images=base,
        top_language_images=lang,
        top4_base_share=reg.top_k_share(PackageLevel.OS, 4),
        top4_language_share=reg.top_k_share(PackageLevel.LANGUAGE, 4),
    )


def report(result: Fig3Result) -> str:
    """Render the result as the paper-style ASCII report."""
    def chart(title: str, items: List[Tuple[str, int]]) -> str:
        labels = [name for name, _ in items]
        values = [count / 1e9 for _, count in items]
        return ascii_bar_chart(labels, values, unit="B pulls", title=title)

    return "\n".join(
        [
            "Fig 3: top-1000 Docker Hub image popularity (synthetic registry)",
            "",
            chart("base (OS) images:", result.top_base_images),
            "",
            chart("language images:", result.top_language_images),
            "",
            f"top-4 base-image pull share:     {result.top4_base_share:.1%}"
            "  (paper: ~77%)",
            f"top-4 language-image pull share: {result.top4_language_share:.1%}",
        ]
    )
