"""Every function, method and class in the package has a caller in the package.

Library surface that only tests call gets deleted; its tests keep a
test-local reference instead. A definition counts as called when its name
appears as a ``Name``, an ``Attribute`` or an import alias in a module of the
package other than ``__init__.py``, which only re-exports. Dunder methods are
called by Python itself and are not checked.
"""

import ast
from pathlib import Path

import contagion

PACKAGE = Path(contagion.__file__).parent

_PAPER_API = "models.py's paper API: the acceptance criteria evaluate the model through it"

# Definitions kept without a caller in the package, each with its reason.
ALLOWED = {
    "visibility_all": _PAPER_API,
    "visibility_first": _PAPER_API,
    "visibility_exactly": _PAPER_API,
    "response_probability": _PAPER_API,
    "effective_enhancement": _PAPER_API,
    "twitter_probability": _PAPER_API,
    "digg_probability": _PAPER_API,
    "exposure_response_curve": _PAPER_API,
    "forecast_window": "the scalar reference a block forecasting pass is checked against",
    "log_likelihood": "the evidence bounds on enhancement factors are to call it",
    "synthetic_trf": "perfbench and the tests build ground truths with it",
}


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def _definitions():
    """(module, line, name) of every function, method and class, nested ones included."""
    return [
        (module, node.lineno, node.name)
        for module, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def _used_names() -> set[str]:
    used = set()
    for module, tree in _modules():
        if module == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update(n for n in (node.name, node.asname) if n)
    return used


def test_every_definition_has_a_caller_in_the_package():
    used = _used_names()
    uncalled = [
        f"{module}:{line} {name}"
        for module, line, name in _definitions()
        if name not in used and name not in ALLOWED
    ]
    assert not uncalled, "no caller in the package: " + ", ".join(uncalled)


def test_every_allowlist_entry_is_still_needed():
    defined = {name for _, _, name in _definitions()}
    used = _used_names()
    assert sorted(n for n in ALLOWED if n not in defined or n in used) == []
