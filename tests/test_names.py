"""Every exported name resolves, and so does every function perfbench traces.

perfbench/calltree.py wraps the functions listed in its TARGETS by name; a
rename in latcount would otherwise break only the traced benchmark run.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import latcount

CALLTREE = Path(__file__).resolve().parents[1] / "perfbench" / "calltree.py"


def test_every_exported_name_resolves():
    missing = [name for name in latcount.__all__ if not hasattr(latcount, name)]
    for info in pkgutil.iter_modules(latcount.__path__):
        module = importlib.import_module(f"latcount.{info.name}")
        missing += [f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert missing == []


def test_traced_functions_exist():
    tree = ast.parse(CALLTREE.read_text())
    (targets,) = [ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)]
    assert targets
    missing = [f"{module}.{name}" for module, names in targets.items() for name in names
               if not callable(getattr(importlib.import_module(f"latcount.{module}"), name, None))]
    assert missing == []
