"""Every reader checks what it is handed: a trace JSON and an instance JSON,
mutated field by field, are each refused with an error the CLI names, or
read into an object that writes and audits without a stray exception."""

import copy
import json
import math

import pytest

from stlsbb import (
    QuadraticInstance,
    RunTrace,
    SolverConfig,
    SpectrumSetting,
    StlsbbError,
    audit_trace,
    generate_instance,
    parse_policy,
    rosenbrock2,
    run,
)

_ROS = rosenbrock2()
DOCUMENTS = {
    "trace": (RunTrace, json.loads(
        run(_ROS, _ROS.x0, SolverConfig(max_iter=5), parse_policy("bb1")).to_json())),
    "instance": (QuadraticInstance, generate_instance(5, SpectrumSetting(1, 500.0), 0).to_dict()),
}

# what each field, list entry and row entry is replaced by in turn
VALUES = {"None": None, "True": True, "text": "x", "list": [], "dict": {}, "nested": [[1.0]],
          "-1": -1, "2.5": 2.5, "nan": math.nan}


def _paths(doc):
    # each top-level field, the first entry of each list field but rows,
    # and each field of the first row
    paths = [(key,) for key in doc]
    paths += [(key, 0) for key, value in doc.items() if isinstance(value, list) and key != "rows"]
    if "rows" in doc:
        paths += [("rows", 0, name) for name in doc["rows"][0]]
    return paths


MUTATIONS = [pytest.param(kind, path, value, id=f"{kind}-{'.'.join(map(str, path))}-{label}")
             for kind, (_, doc) in DOCUMENTS.items() for path in _paths(doc)
             for label, value in VALUES.items()]


def test_the_documents_are_mutated_in_243_ways():
    assert len(MUTATIONS) == 243


@pytest.mark.parametrize("kind, path, value", MUTATIONS)
def test_a_mutated_document_is_refused_or_read_whole(kind, path, value):
    cls, doc = DOCUMENTS[kind]
    doc = copy.deepcopy(doc)
    where = doc
    for key in path[:-1]:
        where = where[key]
    where[path[-1]] = copy.deepcopy(value)
    try:
        obj = cls.from_json(json.dumps(doc))
    except (StlsbbError, KeyError, ValueError, TypeError):
        # a package error exits 2; the others are a file cli._parse_file
        # cannot parse, exit 1
        return
    obj.to_json()
    if kind == "trace":
        try:
            audit_trace(obj)
        except StlsbbError:
            pass
