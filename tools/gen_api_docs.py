"""Generate docs/api.md from the package's public surface.

Introspects the installed ``repro`` package: every name re-exported by
the top-level package and by ``repro.flashsim`` / ``repro.core`` /
``repro.analysis`` / ``repro.obs``, with its signature and the first
paragraph of its docstring.  Run after API changes:

    python tools/gen_api_docs.py
"""

from __future__ import annotations

import argparse
import ast
import importlib
import inspect
from pathlib import Path

PACKAGES = ("repro", "repro.flashsim", "repro.core", "repro.analysis", "repro.obs")
TOOLS_DIR = Path(__file__).parent
OUT = Path(__file__).parent.parent / "docs" / "api.md"


def first_paragraph(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    return doc.split("\n\n")[0].replace("\n", " ").strip()


def describe(name: str, obj) -> str:
    if inspect.isclass(obj):
        kind = "class"
        try:
            signature = str(inspect.signature(obj))
        except (TypeError, ValueError):
            signature = ""
    elif inspect.isfunction(obj):
        kind = "function"
        try:
            signature = str(inspect.signature(obj))
        except (TypeError, ValueError):
            signature = "(...)"
    else:
        kind = "constant"
        signature = ""
    lines = [f"### `{name}{signature}`", ""]
    if kind == "constant":
        lines = [f"### `{name}`  *(constant)*", ""]
    summary = first_paragraph(obj)
    if summary:
        lines.append(summary)
        lines.append("")
    return "\n".join(lines)


def render_package(module_name: str) -> str:
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        exported = [n for n in dir(module) if not n.startswith("_")]
    lines = [f"## `{module_name}`", ""]
    summary = first_paragraph(module)
    if summary:
        lines.append(summary)
        lines.append("")
    for name in exported:
        obj = getattr(module, name)
        if inspect.ismodule(obj):
            continue
        lines.append(describe(name, obj))
    return "\n".join(lines)


def render_tools() -> str:
    """Describe the command-line scripts in ``tools/`` (module docstring
    first paragraphs, read without importing — the scripts touch
    ``sys.path`` at import time)."""
    lines = ["## Command-line tools (`tools/`)", ""]
    for script in sorted(TOOLS_DIR.glob("*.py")):
        doc = ast.get_docstring(ast.parse(script.read_text())) or ""
        summary = doc.split("\n\n")[0].replace("\n", " ").strip()
        lines.append(f"### `tools/{script.name}`")
        lines.append("")
        if summary:
            lines.append(summary)
            lines.append("")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> None:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    parts = [
        "# API reference",
        "",
        "*Generated by `tools/gen_api_docs.py` — do not edit by hand.*",
        "",
        "The public surface, as re-exported by the package inits. Full",
        "parameter documentation lives in the docstrings (`help(obj)`).",
        "",
    ]
    for package in PACKAGES:
        parts.append(render_package(package))
        parts.append("")
    parts.append(render_tools())
    parts.append("")
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text("\n".join(parts))
    print(f"wrote {OUT} ({OUT.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
