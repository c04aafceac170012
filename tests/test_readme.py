"""README's library examples import only names the package has, and run.

Every ``from geotag_facade... import`` in a ``python`` code block of
README.md must name something its module defines, so an example cannot
keep a name the package has dropped or renamed; and the blocks, run in
order in one namespace on a ``synth`` scene, raise nothing.
"""
import ast
import importlib
import re
import shutil
from pathlib import Path

from geotag_facade.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def python_blocks():
    """README's python code blocks, in order."""
    return re.findall(r"^```python\n(.*?)^```", README.read_text(),
                      re.S | re.M)


def readme_imports():
    """(module, name) of every package import in README's python blocks."""
    found = []
    for block in python_blocks():
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


def test_readme_examples_run_in_order(tmp_path, monkeypatch):
    # a later block uses names an earlier one defines (``footprints``,
    # ``panos``, ``RunConfig``), as a reader running them in turn would
    assert main(["synth", "--seed", "5", "--n-buildings", "8",
                 "--n-cameras", "3", "--out", str(tmp_path)]) == 0
    (tmp_path / "configs").mkdir()
    shutil.copy(ROOT / "configs" / "new_york.json", tmp_path / "configs")
    # the examples map labels with the New York config: give the scene
    # its codes, C1 to C5, for synth's cat_1 to cat_5
    geojson = tmp_path / "footprints.geojson"
    geojson.write_text(re.sub(r'"cat_(\d)"', r'"C\1"', geojson.read_text()))
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for k, block in enumerate(python_blocks()):
        exec(compile(block, f"README.md python block {k}", "exec"), namespace)
    assert len(namespace["annotations"]) > 0
    assert len(namespace["table"].owner) > 0
