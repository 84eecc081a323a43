"""The README's Python snippets run, in order, and print what their
comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text):
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


def test_snippets_print_their_comments():
    blocks = python_blocks(README.read_text())
    assert len(blocks) == 2
    namespace: dict = {}
    expected, printed = [], []
    for block in blocks:
        # "print(x)   # 16 rules" promises "16"; "# None: complete" "None"
        expected += re.findall(r"^print\(.*\)\s+#\s*([^\s:]+)", block, re.MULTILINE)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), namespace)
        printed += out.getvalue().splitlines()
    assert expected == ["16", "8", "18", "None", "62"]
    assert printed == expected
