"""README.md names only what catcost defines."""
import importlib
import pkgutil
import re
from pathlib import Path

import catcost

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = {m.name for m in pkgutil.iter_modules(catcost.__path__)}


def module_names():
    """(module, attribute path) of every `module.name` in a README code span.

    Only names whose first part is a catcost module count, with or without
    a ``catcost.`` prefix; a file path such as ``catcost/cli.py`` does not.
    """
    for span in re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8")):
        for match in re.finditer(r"(?<![\w/.])(?:catcost\.)?(\w+)((?:\.\w+)+)", span):
            if match.group(1) in MODULES:
                yield match.group(1), match.group(2)[1:].split(".")


def test_every_module_name_in_the_readme_resolves():
    names = list(module_names())
    assert ("measures", ["IsotropicCopies"]) in names
    unresolved = []
    for module, path in names:
        obj = importlib.import_module(f"catcost.{module}")
        for attr in path:
            if not hasattr(obj, attr):
                unresolved.append(".".join([module, *path]))
                break
            obj = getattr(obj, attr)
    assert unresolved == []
