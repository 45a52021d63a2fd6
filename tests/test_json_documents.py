"""JSON documents: canonical forms round-trip, and a malformed document,
one field mutated, either runs as its canonical form does or exits 2 with
one `error:` line."""

import contextlib
import copy
import io
import json
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandlehom import Chain, Quandle, TriplePoint, TriplePointDataset, cli, dataset_from_json
from quandlehom.pseudocycles import quandle_from_json

from conftest import S4_TABLE

ROUND_TRIP_QUANDLES = [Quandle.dihedral(3), Quandle.dihedral(4), Quandle.from_table(S4_TABLE)]


@st.composite
def datasets(draw):
    q = draw(st.sampled_from(ROUND_TRIP_QUANDLES))
    colors = st.tuples(*[st.integers(0, q.order - 1)] * 3)
    points = draw(st.lists(
        st.tuples(st.text(min_size=1, max_size=4), st.sampled_from((1, -1)), colors),
        max_size=6, unique_by=lambda p: p[0],
    ))
    return TriplePointDataset(q, [TriplePoint(*p) for p in points])


@st.composite
def chains(draw):
    q = draw(st.sampled_from(ROUND_TRIP_QUANDLES))
    degree = draw(st.integers(1, 4))
    tup = st.tuples(*[st.integers(0, q.order - 1)] * degree)
    return Chain(degree, draw(st.lists(st.tuples(tup, st.integers()), max_size=6)))


@settings(max_examples=60, deadline=None, database=None)
@given(datasets())
def test_dataset_round_trips(dataset):
    assert dataset_from_json(dataset.to_json_dict()) == dataset


@settings(max_examples=60, deadline=None, database=None)
@given(chains())
def test_chain_round_trips(chain):
    assert Chain.from_json_dict(chain.to_json_dict()) == chain


# one document of each kind the CLI reads, the command that reads it, and
# its canonical form as the package re-serializes it
DPRIME = resources.files("quandlehom.data").joinpath("yashiro_dprime.json").read_text()
CBAR1 = {"degree": 3, "terms": [
    {"tuple": [2, 0, 2], "coeff": "1"}, {"tuple": [2, 1, 0], "coeff": "1"},
]}

DOCUMENTS = {
    "dataset": (
        json.loads(DPRIME),
        ["pseudo-cycles", "--input", "{path}"],
        lambda obj: dataset_from_json(obj).to_json_dict(),
    ),
    "chain": (
        CBAR1,
        ["eval-cocycle", "--cocycle", "mochizuki:3", "--chain", "{path}"],
        lambda obj: Chain.from_json_dict(obj).to_json_dict(),
    ),
    "table": (
        {"kind": "table", "table": [list(row) for row in Quandle.dihedral(3).table]},
        ["homology", "--quandle", "table:{path}", "--degree", "2"],
        lambda obj: {"kind": "table", "table": [list(r) for r in quandle_from_json(obj).table]},
    ),
}

ODD_VALUES = [
    float("nan"), float("inf"), 10**30, -(10**30), -1, 0, 1, 2, 1.5, True, None,
    "", "1", "\ud800", "a\nb", [], {}, [0, 1, 2], {"kind": "dihedral", "order": 3},
]
ODD_KEYS = ["extra", "\udc00", "a\nb", ""]


def _slots(node):
    """Every (container, key) under node, and every container."""
    slots, containers = [], [node]
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        slots.append((node, key))
        if isinstance(child, (dict, list)):
            more, nested = _slots(child)
            slots += more
            containers += nested
    return slots, containers


@st.composite
def mutations(draw, doc):
    """doc with one field retyped, deleted, inserted or added, or the whole
    document replaced."""
    doc = copy.deepcopy(doc)
    slots, containers = _slots(doc)
    value = draw(st.sampled_from(ODD_VALUES))
    op = draw(st.sampled_from(["retype", "delete", "insert", "extra", "root"]))
    if op == "root":
        return value
    if op in ("retype", "delete"):
        node, key = draw(st.sampled_from(slots))
        if op == "retype":
            node[key] = value
        else:
            del node[key]
    elif op == "insert" and (lists := [c for c in containers if isinstance(c, list)]):
        node = draw(st.sampled_from(lists))
        node.insert(draw(st.integers(0, len(node))), value)
    else:
        node = draw(st.sampled_from([c for c in containers if isinstance(c, dict)]))
        node[draw(st.sampled_from([k for k in ODD_KEYS if k not in node]))] = value
    return doc


def run_document(path, doc, argv):
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([a.format(path=path) for a in argv])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("kind", DOCUMENTS)
def test_mutated_document_runs_canonically_or_exits_2(kind, tmp_path_factory):
    doc, argv, canonical = DOCUMENTS[kind]
    path = tmp_path_factory.mktemp(kind) / "doc.json"

    @settings(max_examples=100, deadline=None, database=None)
    @given(mutations(doc))
    def check(mutated):
        code, out, err = run_document(path, mutated, argv)
        if code == 2:
            assert out == ""
            assert err.startswith("error:") and err.count("\n") == 1, err
            return
        assert code == 0, (code, err)
        results = json.loads(out)["results"]
        code, out, _ = run_document(path, canonical(json.loads(path.read_text())), argv)
        assert code == 0
        assert json.loads(out)["results"] == results

    check()


def test_unknown_key_is_named_on_one_line(tmp_path):
    argv = DOCUMENTS["chain"][1]
    code, out, err = run_document(tmp_path / "doc.json", {**CBAR1, "a\nb": 1}, argv)
    assert (code, out, err) == (2, "", "error: 'a\\nb': unknown field\n")
    code, out, err = run_document(tmp_path / "doc.json", {**CBAR1, "extra": 1}, argv)
    assert (code, out, err) == (2, "", "error: extra: unknown field\n")
