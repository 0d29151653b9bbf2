"""The benchmark imports names from the package; a name it imports must
not disappear from the module it is imported from."""
import ast
import importlib
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_every_name_the_benchmark_imports_exists():
    imported = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("regnear."):
                imported += [(path.name, node.module, a.name) for a in node.names]
    assert any(mod == "regnear.transform" for _, mod, _ in imported)
    missing = [(f, mod, name) for f, mod, name in imported
               if not hasattr(importlib.import_module(mod), name)]
    assert not missing
