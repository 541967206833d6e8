"""The ``>>>`` examples of README.md print what the library prints.

Each fenced python block runs as one doctest, in a fresh namespace.  The
blocks are cut at their fences first: read as one document, the closing
fence would count as expected output of the example before it.
"""

import doctest
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def _python_blocks():
    text = README.read_text()
    return [(text.count("\n", 0, m.start()) + 2, m.group(1))
            for m in _BLOCK.finditer(text)]


def test_readme_has_python_examples():
    blocks = _python_blocks()
    assert len(blocks) >= 3
    assert all(">>>" in body for _, body in blocks)


# ids by ordinal, not by line: an edit above a block keeps its test's name
@pytest.mark.parametrize("lineno,body", [
    pytest.param(*block, id=f"example{i}")
    for i, block in enumerate(_python_blocks(), 1)])
def test_readme_examples(lineno, body):
    test = doctest.DocTestParser().get_doctest(
        body, {}, f"README.md:{lineno}", str(README), lineno - 1)
    runner = doctest.DocTestRunner(verbose=False)
    runner.run(test, out=lambda s: pytest.fail(s, pytrace=False))
    assert runner.failures == 0 and runner.tries > 0
