"""Every name a filexlab module imports is used in that module.

An import kept on purpose carries `# noqa: F401` on its line, as
`cli.execute_sweep` does for the benchmark tracer.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "filexlab"


def unused_imports(source: str) -> list[str]:
    """Names bound by the source's imports that nothing else in it reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # bound name -> line number
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {lineno})" for name, lineno in imported.items() if name not in used]


def test_checker_finds_unused_and_honours_noqa():
    source = (
        "import os\n"
        "import numpy as np\n"
        "from .a import b, c\n"
        "from .d import e  # noqa: F401\n"
        "x: c = np.zeros(1)\n"
    )
    assert unused_imports(source) == ["os (line 1)", "b (line 3)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
