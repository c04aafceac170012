"""README's library examples import only names the package has.

Every ``from geotag_facade... import`` in a ``python`` code block of
README.md must name something its module defines, so an example cannot
keep a name the package has dropped or renamed.
"""
import ast
import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_imports():
    """(module, name) of every package import in README's python blocks."""
    found = []
    for block in re.findall(r"^```python\n(.*?)^```", README.read_text(),
                            re.S | re.M):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and \
                    node.module.split(".")[0] == "geotag_facade":
                found += [(node.module, a.name) for a in node.names]
    return found


def test_readme_examples_import_names_the_package_has():
    found = readme_imports()
    assert len(found) >= 10  # every example block was parsed
    missing = [f"{m}.{n}" for m, n in found
               if not hasattr(importlib.import_module(m), n)]
    assert missing == []
