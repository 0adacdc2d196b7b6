#!/usr/bin/env python
"""Dump the frozen v2 public API surface of :mod:`repro`.

Emits one line per public name in ``repro.__all__``::

    repro.CrowdRTSE class
    repro.CrowdRTSE.answer_query method (self, queried, slot, budget, *, market=?, ...)
    repro.propagate function (network, slot_params, correlations, probes, *, config=?)

The output is the *contract*: ``docs/api_surface_v2.txt`` holds the
golden copy and CI diffs a fresh dump against it, so any accidental
rename, removal, or signature change fails loudly while additions are
an explicit, reviewed edit to the golden file.

Deliberately version-stable:

* parameter *names* and kinds only — defaults are collapsed to ``=?``
  (repr of a default can differ across numpy/python versions);
* no annotations (evaluated annotations render differently across
  Python minors);
* class members sorted, dunder members skipped, inherited members
  skipped (only what the class itself declares is its surface).

Usage::

    PYTHONPATH=src python tools/dump_api.py             # print to stdout
    PYTHONPATH=src python tools/dump_api.py --check     # diff vs golden
    PYTHONPATH=src python tools/dump_api.py --update    # rewrite golden
"""

from __future__ import annotations

import argparse
import difflib
import enum
import inspect
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent.parent / "docs" / "api_surface_v2.txt"


def _format_params(obj) -> str:
    """Render a signature as stable parameter names, defaults as ``=?``."""
    try:
        signature = inspect.signature(obj)
    except (TypeError, ValueError):
        return "(...)"
    parts = []
    seen_star = False
    for param in signature.parameters.values():
        name = param.name
        if param.kind is inspect.Parameter.VAR_POSITIONAL:
            name = "*" + name
            seen_star = True
        elif param.kind is inspect.Parameter.VAR_KEYWORD:
            name = "**" + name
        elif param.default is not inspect.Parameter.empty:
            name = name + "=?"
        if param.kind is inspect.Parameter.KEYWORD_ONLY and not seen_star:
            parts.append("*")
            seen_star = True
        parts.append(name)
    return "(" + ", ".join(parts) + ")"


def _class_members(cls, qualname: str):
    """Yield surface lines for a class's own public members."""
    for name, member in sorted(vars(cls).items()):
        if name.startswith("_"):
            continue
        entry = f"{qualname}.{name}"
        if isinstance(member, staticmethod):
            yield f"{entry} staticmethod {_format_params(member.__func__)}"
        elif isinstance(member, classmethod):
            yield f"{entry} classmethod {_format_params(member.__func__)}"
        elif isinstance(member, property):
            yield f"{entry} property"
        elif inspect.isfunction(member):
            yield f"{entry} method {_format_params(member)}"
        elif isinstance(member, type):
            yield f"{entry} class"
        # plain class attributes (dataclass fields show via __init__) are
        # covered by the class line's __init__ signature below.


def dump_surface() -> list:
    """The full surface as sorted lines."""
    import repro

    lines = []
    for name in sorted(set(repro.__all__)):
        obj = getattr(repro, name)
        qualname = f"repro.{name}"
        if name == "__version__":
            lines.append(f"{qualname} str")
        elif isinstance(obj, type):
            if issubclass(obj, BaseException):
                bases = ",".join(
                    b.__name__ for b in obj.__bases__ if b is not object
                )
                lines.append(f"{qualname} exception({bases})")
                lines.extend(_class_members(obj, qualname))
            elif issubclass(obj, enum.Enum):
                # EnumMeta's call signature varies across Python minors;
                # the member names are the stable surface.
                members = ",".join(m.name for m in obj)
                lines.append(f"{qualname} enum({members})")
            else:
                lines.append(f"{qualname} class {_format_params(obj)}")
                lines.extend(_class_members(obj, qualname))
        elif callable(obj):
            lines.append(f"{qualname} function {_format_params(obj)}")
        else:
            lines.append(f"{qualname} constant")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--check", action="store_true",
        help=f"diff the live surface against {GOLDEN.name}; exit 1 on drift",
    )
    mode.add_argument(
        "--update", action="store_true",
        help=f"rewrite {GOLDEN.name} from the live surface",
    )
    args = parser.parse_args(argv)

    lines = dump_surface()
    text = "\n".join(lines) + "\n"

    if args.update:
        GOLDEN.write_text(text)
        print(f"wrote {len(lines)} surface entries to {GOLDEN}")
        return 0
    if args.check:
        if not GOLDEN.exists():
            print(f"golden file {GOLDEN} missing — run with --update", file=sys.stderr)
            return 1
        golden = GOLDEN.read_text().splitlines()
        if golden == lines:
            print(f"API surface matches {GOLDEN.name} ({len(lines)} entries)")
            return 0
        diff = difflib.unified_diff(
            golden, lines, fromfile=str(GOLDEN), tofile="live API", lineterm=""
        )
        print("\n".join(diff), file=sys.stderr)
        print(
            "\nAPI surface drift detected. If intentional, regenerate with:\n"
            "  PYTHONPATH=src python tools/dump_api.py --update",
            file=sys.stderr,
        )
        return 1
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
