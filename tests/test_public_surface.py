"""The ``parma`` namespace exports exactly the ``__all__`` names of its modules."""

import importlib
import types

import parma

#: modules whose names ``parma`` re-exports; ``parma.cli`` and ``parma.modelio``
#: are reached as submodules
REEXPORTED = ("model", "greens", "solution", "forecast", "moments", "vsform", "sim")


def test_every_all_name_exists():
    for name in REEXPORTED + ("modelio", "cli"):
        module = importlib.import_module(f"parma.{name}")
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], name


def test_namespace_equals_union_of_module_all():
    exported = {name for name, value in vars(parma).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    declared = set().union(*(importlib.import_module(f"parma.{m}").__all__ for m in REEXPORTED))
    assert sorted(exported - declared) == []  # no stale export
    assert sorted(declared - exported) == []  # none missing
