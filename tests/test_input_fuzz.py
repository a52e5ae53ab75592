"""Fuzzing of every input reader: any input ends in success or a typed error.

The event log and graph readers get arbitrary byte lines mixed with
JSON-shaped lines; the model and truth readers get mutated copies of valid
documents and arbitrary bytes. Anything other than ``ContagionError`` or
``OSError`` is a crash that the CLI would print as a traceback.
"""

import copy
import json
import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from contagion.cli import _read_json_doc
from contagion.errors import ContagionError
from contagion.events import KINDS, load_event_log, load_follow_edges
from contagion.models import EnhancementTable, ModelParams
from contagion.simulate import GraphSpec, GroundTruth, Seeding, synthetic_trf
from contagion.visibility import SusceptibilityCurve, SusceptibilityForm, TrfBundle

FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                 max_size=4),
    max_leaves=12,
)


def json_lines(keys):
    fields = {key: json_values for key in keys}
    if "kind" in keys:
        fields["kind"] = st.sampled_from(KINDS) | json_values
    shaped = st.fixed_dictionaries({}, optional=fields).map(lambda d: json.dumps(d).encode())
    lines = st.lists(st.binary(max_size=40) | shaped, max_size=6)
    return lines.map(b"\n".join)


# Nesting deeper than the interpreter's recursion limit makes the JSON decoder raise.
TOO_DEEP = b"[" * 100_000


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        children = ()
    for key, value in children:
        yield from _paths(value, prefix + (key,))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


@st.composite
def mutated(draw, base):
    """A JSON document: ``base`` with one to three values replaced or deleted."""
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(json_values)
        elif draw(st.booleans()):
            _parent(doc, path)[path[-1]] = draw(json_values)
        else:
            del _parent(doc, path)[path[-1]]
    return json.dumps(doc).encode()


def _with(base, path, value):
    """``base`` as JSON bytes, with the value at ``path`` replaced."""
    doc = copy.deepcopy(base)
    _parent(doc, path)[path[-1]] = value
    return json.dumps(doc).encode()


def _model():
    trf = TrfBundle(*(synthetic_trf(label, 64) for label in ("T1", "T10", "T100")), site="digg")
    return ModelParams(
        site="digg",
        p0=2.0,
        log_v_min=-19.0,
        enhancement=EnhancementTable(values={1: 1.0, 2: 1.5}, saturates=True),
        susceptibility=SusceptibilityCurve(
            empirical={1: (3, 40), 2: (1, 9)},
            form=SusceptibilityForm.DIGG,
            params={"A": 7.6e-3, "B": -6.2e-2, "C": 1.7e-3, "D": 3.7, "E": 17.8},
        ),
        trf=trf,
    )


MODEL_DOC = _model().to_json_dict()
TRUTH_DOC = GroundTruth(
    params=_model(),
    graph=GraphSpec(users=40, kind="bands", bands=((10, 1, 2), (5, 9, 11))),
    seeding=Seeding(items=3, posters_per_item=(4, 2), post_time_spread=30),
    horizon=128,
    rng_seed=7,
).to_json_dict()


def _ends_typed(read, path, data):
    path.write_bytes(data)
    try:
        read(path)
    except (ContagionError, OSError):
        pass


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(data=json_lines(("kind", "user", "item", "time", "exposer")))
@example(data=TOO_DEEP)
def test_event_log_reader_ends_typed(fuzz_dir, data):
    _ends_typed(load_event_log, fuzz_dir / "events.jsonl", data)


@FUZZ
@given(data=json_lines(("follower", "friend")))
@example(data=TOO_DEEP)
def test_graph_reader_ends_typed(fuzz_dir, data):
    _ends_typed(load_follow_edges, fuzz_dir / "graph.jsonl", data)


@FUZZ
@given(data=mutated(MODEL_DOC) | st.binary(max_size=60))
@example(data=_with(MODEL_DOC, ("susceptibility", "empirical", "1"), [math.inf, 1]))
@example(data=_with(MODEL_DOC, ("enhancement", "F"), "x"))
@example(data=TOO_DEEP)
def test_model_reader_ends_typed(fuzz_dir, data):
    _ends_typed(lambda p: _read_json_doc(p, ModelParams.from_json_dict),
                fuzz_dir / "model.json", data)


@FUZZ
@given(data=mutated(TRUTH_DOC) | st.binary(max_size=60))
@example(data=_with(TRUTH_DOC, ("seeding", "posters_per_item"), [math.inf]))
@example(data=TOO_DEEP)
def test_truth_reader_ends_typed(fuzz_dir, data):
    _ends_typed(lambda p: _read_json_doc(p, GroundTruth.from_json_dict),
                fuzz_dir / "truth.json", data)


def test_fuzzed_documents_start_valid():
    assert ModelParams.from_json_dict(MODEL_DOC).to_json_dict() == MODEL_DOC
    assert GroundTruth.from_json_dict(TRUTH_DOC).to_json_dict() == TRUTH_DOC
