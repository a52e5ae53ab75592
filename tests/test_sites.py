"""The site table: unknown names are rejected, and no per-site branch lives outside it."""

import ast
import inspect
from pathlib import Path

import pytest

import contagion
from contagion.atrisk import risk_segments
from contagion.errors import ContagionError
from contagion.events import ExposureSeries
from contagion.simulate import synthetic_trf
from contagion.visibility import TrfBundle, interpolate_trf

GRID = 64
T1, T10, T100 = (synthetic_trf(label, GRID) for label in ("T1", "T10", "T100"))
SERIES = ExposureSeries(user="u", item="i", n_f=10, exposure_times=(5, 9), response_time=30)
TRF = {site: TrfBundle(T1, T10, T100, site=site) for site in ("digg", "twitter")}


def test_trf_bundle_rejects_an_unknown_site():
    with pytest.raises(ContagionError, match="unknown site 'myspace'"):
        TrfBundle(T1, T10, T100, site="myspace")
    doc = TRF["digg"].to_json_dict()
    doc["site"] = "myspace"
    with pytest.raises(ContagionError, match="unknown site 'myspace'"):
        TrfBundle.from_json_dict(doc)


@pytest.mark.parametrize("call", [
    lambda site: risk_segments(SERIES, 0.5, T1.density, T1.bin_edges, site, 100),
    lambda site: interpolate_trf(T1, T10, T100, 10, site, 3.0),
], ids=["risk_segments", "interpolate_trf"])
def test_an_unknown_site_name_is_rejected(call):
    for site in ("digg", "twitter"):
        call(site)
    with pytest.raises(ContagionError, match="myspace"):
        call("myspace")


def test_no_public_function_takes_both_a_trf_bundle_and_a_site():
    both = [
        name for name in contagion.__all__
        if inspect.isfunction(getattr(contagion, name))
        and {"trf", "site"} <= inspect.signature(getattr(contagion, name)).parameters.keys()
    ]
    assert both == []


def _subtree(node: ast.AST) -> set[int]:
    return {id(n) for n in ast.walk(node)}


def _allowed(module: str, tree: ast.AST) -> set[int]:
    """Nodes that may name a site: the SITES table, the form codec, the CLI's --site default."""
    out: set[int] = set()
    for node in ast.walk(tree):
        if module == "visibility.py":
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and any(
                isinstance(t, ast.Name) and t.id == "SITES"
                for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
            ):
                out |= _subtree(node.value)
            if isinstance(node, ast.ClassDef) and node.name == "SusceptibilityForm":
                out |= _subtree(node)
        if module == "cli.py" and isinstance(node, ast.Call) and node.args:
            first = node.args[0]
            if isinstance(first, ast.Constant) and first.value == "--site":
                out |= {id(k.value) for k in node.keywords if k.arg == "default"}
    return out


def test_site_names_appear_only_in_the_site_table():
    found = []
    for path in sorted(Path(contagion.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = _allowed(path.name, tree)
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in ("digg", "twitter")
            and id(node) not in allowed
        ]
    assert found == []
