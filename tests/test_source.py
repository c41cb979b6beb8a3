"""Guards over the package source itself."""

import ast
from pathlib import Path

import reglab

SOURCES = sorted(Path(reglab.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    """Soundness checks raise ``SoundnessError``: ``python -O`` strips every ``assert``."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) > 1
    assert found == []
