"""Every ``from repro... import ...`` in the examples and the docs resolves.

Scans ``examples/*.py`` and the fenced ``python`` blocks of
``README.md``, ``DESIGN.md`` and ``docs/*.md``, so renaming or deleting
a public name breaks this test instead of a reader's copy-paste.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_FENCE = re.compile(r"^```python[^\n]*\n(.*?)^```", re.M | re.S)
_IMPORT = re.compile(
    r"^[ \t]*from\s+(repro(?:\.\w+)*)\s+import\s+(\([^)]*\)|[^\n]*)", re.M
)


def _sources():
    docs = [ROOT / "README.md", ROOT / "DESIGN.md"]
    docs += sorted((ROOT / "docs").glob("*.md"))
    for path in docs:
        yield path, "\n".join(_FENCE.findall(path.read_text()))
    for path in sorted((ROOT / "examples").glob("*.py")):
        yield path, path.read_text()


def _imports(text):
    """``(module, name)`` for every name a ``from repro...`` line imports."""
    for match in _IMPORT.finditer(text):
        names = re.sub(r"#[^\n]*", "", match.group(2)).strip("()")
        for item in names.replace("\\", "").replace("\n", ",").split(","):
            name = item.split(" as ")[0].strip()
            if name:
                yield match.group(1), name


IMPORTS = {
    path.relative_to(ROOT).as_posix(): sorted(set(_imports(text)))
    for path, text in _sources()
}


def _resolves(module, name):
    owner = importlib.import_module(module)
    if hasattr(owner, name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_scanner_sees_the_docs_and_examples():
    assert len(IMPORTS["docs/TUTORIAL.md"]) > 5
    assert ("repro.topologies", "xpander") in IMPORTS[
        "examples/failure_resilience.py"
    ]


@pytest.mark.parametrize(
    "source", sorted(s for s, found in IMPORTS.items() if found)
)
def test_imports_resolve(source):
    broken = [
        f"from {module} import {name}"
        for module, name in IMPORTS[source]
        if not _resolves(module, name)
    ]
    assert broken == []
