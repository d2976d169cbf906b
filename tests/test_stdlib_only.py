"""The package imports nothing but the standard library and itself."""
import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "swipesim"


def _imported_modules(path: Path):
    """The top-level name of every module that ``path`` imports absolutely,
    at any depth of its syntax tree; a relative import is the package's own."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_package_imports_only_the_standard_library():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    foreign = {(path.name, name) for path in files for name in _imported_modules(path)
               if name != "swipesim" and name not in sys.stdlib_module_names}
    assert not foreign


def test_the_walk_sees_every_import_form(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os.path, json\nfrom collections import abc\n"
                      "from . import core\ndef f():\n    import numpy\n"
                      "try:\n    from hypothesis import given\nexcept ImportError:\n"
                      "    pass\n")
    assert sorted(_imported_modules(module)) == [
        "collections", "hypothesis", "json", "numpy", "os"]
