#!/usr/bin/env python
"""Generate API_REFERENCE.md from the library's docstrings.

Walks every module under ``repro``, extracts public classes/functions and
their (first-paragraph) docstrings, and emits a single markdown reference.
Run from the repository root::

    python tools/gen_api_docs.py [output.md]

The doc-coverage test guarantees every listed item has a docstring, so the
generated reference is always complete.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path
from typing import Iterator, List, Tuple


def walk_modules():
    """Yield every repro module in deterministic order."""
    import repro

    yield repro
    infos = sorted(
        pkgutil.walk_packages(repro.__path__, prefix="repro."),
        key=lambda i: i.name,
    )
    for info in infos:
        if info.name.endswith("__main__"):
            continue
        yield importlib.import_module(info.name)


def first_paragraph(doc: str) -> str:
    """The docstring's lead paragraph, joined to one line."""
    lines: List[str] = []
    for line in (doc or "").strip().splitlines():
        if not line.strip():
            break
        lines.append(line.strip())
    return " ".join(lines)


def public_members(module) -> Iterator[Tuple[str, object]]:
    """Public classes/functions defined (not re-exported) in ``module``."""
    for name in sorted(vars(module)):
        obj = vars(module)[name]
        if name.startswith("_"):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj) or inspect.isfunction(obj):
            yield name, obj


def signature_of(obj) -> str:
    """Best-effort signature rendering."""
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):  # pragma: no cover - builtins
        return "(...)"


def render() -> str:
    """Render the full API reference as markdown."""
    out: List[str] = [
        "# API Reference",
        "",
        "_Generated from docstrings by `tools/gen_api_docs.py`;"
        " regenerate after API changes._",
    ]
    for module in walk_modules():
        members = list(public_members(module))
        out.append(f"\n## `{module.__name__}`\n")
        out.append(first_paragraph(module.__doc__))
        for name, obj in members:
            kind = "class" if inspect.isclass(obj) else "def"
            out.append(f"\n### `{kind} {name}{signature_of(obj)}`\n")
            out.append(first_paragraph(obj.__doc__))
            if inspect.isclass(obj):
                for attr_name in sorted(vars(obj)):
                    attr = vars(obj)[attr_name]
                    if attr_name.startswith("_"):
                        continue
                    if inspect.isfunction(attr):
                        out.append(
                            f"- `{attr_name}{signature_of(attr)}` — "
                            f"{first_paragraph(attr.__doc__)}"
                        )
                    elif isinstance(attr, property):
                        out.append(
                            f"- `{attr_name}` (property) — "
                            f"{first_paragraph(attr.fget.__doc__ or '')}"
                        )
    return "\n".join(out) + "\n"


def main(argv: List[str]) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        description="Generate the API reference from the docstrings."
    )
    parser.add_argument(
        "output", nargs="?", type=Path, default=Path("API_REFERENCE.md"),
        help="markdown file to write (default: API_REFERENCE.md)",
    )
    target = parser.parse_args(argv).output
    target.write_text(render())
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
