"""The documented API runs: README's Python examples and the package exports."""

import re
from pathlib import Path

import pytest

import cuoco

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from cuoco import *", namespace)
    assert [name for name in cuoco.__all__ if name not in namespace] == []
