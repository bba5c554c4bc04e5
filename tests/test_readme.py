"""The README's library example runs as written."""

import os
import re

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def test_readme_library_example_runs():
    with open(README, encoding="utf-8") as f:
        text = f.read()
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
