"""The README's library layout indexes every module under ``src/mlcap/``, one short row each."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def layout_rows():
    """``(module name, word count)`` of each ``mlcap.<name>`` row of the README's "Library layout" table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library layout\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `mlcap\.(\w+)` \|(.*)\|$", section, flags=re.M)
    return [(name, 1 + len(contents.split())) for name, contents in rows]


def test_every_module_has_one_row_and_every_row_a_module():
    modules = sorted(p.stem for p in (ROOT / "src" / "mlcap").glob("*.py") if p.stem != "__init__")
    assert sorted(name for name, _ in layout_rows()) == modules


def test_rows_stay_short():
    # the module's docstring holds its description; a row longer than an index line restates it
    assert [(name, words) for name, words in layout_rows() if words > 30] == []
