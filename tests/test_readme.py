"""The README's library layout indexes every module under ``src/mlcap/``, one short row each."""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def layout_rows():
    """``(module name, contents)`` of each ``mlcap.<name>`` row of the README's "Library layout" table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library layout\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `mlcap\.(\w+)` \|(.*)\|$", section, flags=re.M)


def test_every_module_has_one_row_and_every_row_a_module():
    modules = sorted(p.stem for p in (ROOT / "src" / "mlcap").glob("*.py") if p.stem != "__init__")
    assert sorted(name for name, _ in layout_rows()) == modules


def test_rows_stay_short():
    # the module's docstring holds its description; a row longer than an index line restates it
    assert [name for name, contents in layout_rows() if 1 + len(contents.split()) > 30] == []


def test_every_named_identifier_is_in_its_module():
    # a name deleted from a module cannot stay in its row
    missing = [
        (name, ident)
        for name, contents in layout_rows()
        for ident in re.findall(r"`([A-Za-z_]\w*)`", contents)
        if not hasattr(importlib.import_module(f"mlcap.{name}"), ident)
    ]
    assert missing == []
