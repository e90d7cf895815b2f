"""Run the doctests embedded in the core modules and the README."""

import doctest
import re
from pathlib import Path

import f1kit.cli
import f1kit.counting
import f1kit.linalg
import f1kit.monoids
import f1kit.reductive
import f1kit.schemes
import f1kit.spectrum


MODULES = (
    f1kit.linalg,
    f1kit.monoids,
    f1kit.spectrum,
    f1kit.counting,
    f1kit.schemes,
    f1kit.reductive,
    f1kit.cli,
)


def test_doctests_pass():
    for mod in MODULES:
        result = doctest.testmod(mod, verbose=False)
        assert result.failed == 0, f"{mod.__name__}: {result.failed} doctest failures"
        assert result.attempted > 0 or mod is f1kit.cli, mod.__name__


def test_readme_python_blocks_pass():
    # each fenced python block is one doctest; the closing fence would
    # otherwise be read as expected output
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    results = [runner.run(parser.get_doctest(block, {}, f"README.md block {i}", "README.md", 0))
               for i, block in enumerate(blocks, start=1)]
    assert sum(r.attempted for r in results) > 0
    assert sum(r.failed for r in results) == 0
