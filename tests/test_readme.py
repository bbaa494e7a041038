"""The README's "Library use" block runs, as written, against the installed API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_use_block() -> str:
    section = README.read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1, "the Library use section holds one python block"
    return blocks[0]


def test_the_readme_library_use_block_runs():
    exec(compile(_library_use_block(), f"{README.name} (Library use)", "exec"), {})
