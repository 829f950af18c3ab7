"""RunReport.check: one relation per check, its verdict and signed margin,
and the line a check prints."""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from semiclass_lab.experiments import RunReport


def _check(value, **relation):
    report = RunReport("unit")
    report.check("c", value, **relation)
    return report.checks[0]


@pytest.mark.parametrize("relation, value, passed, margin", [
    ({"lt": 1e-10}, 2e-11, True, 8e-11),
    ({"lt": 1e-10}, 3e-10, False, -2e-10),
    ({"gt": 1.5}, 2.25, True, 0.75),
    ({"gt": 1.5}, 1.25, False, -0.25),
    ({"ge": 3}, 5, True, 2.0),
    ({"ge": 3}, 2, False, -1.0),
    ({"within": (0.35, 0.6)}, 0.4, True, 0.05),  # nearer lo
    ({"within": (0.35, 0.6)}, 0.58, True, 0.02),  # nearer hi
    ({"within": (0.35, 0.6)}, 0.3, False, -0.05),
    ({"within": (0.35, 0.6)}, 0.7, False, -0.1)])
def test_check_verdict_margin_and_bound(relation, value, passed, margin):
    c = _check(value, **relation)
    assert c.passed is passed
    assert c.margin == pytest.approx(margin, rel=1e-12)
    assert c.value == value
    (rel, b), = relation.items()
    assert c.bound == {rel: list(b) if rel == "within" else b}


@pytest.mark.parametrize("relation, passed", [
    ({"lt": 0.5}, False), ({"gt": 0.5}, False), ({"ge": 0.5}, True),
    ({"within": (0.5, 0.75)}, True), ({"within": (0.25, 0.5)}, True)])
def test_value_at_the_bound(relation, passed):
    """lt and gt are strict; ge and both edges of within are closed."""
    c = _check(0.5, **relation)
    assert c.passed is passed and c.margin == 0.0


@pytest.mark.parametrize("relation", [
    {"lt": 1.0}, {"gt": 0.0}, {"ge": 0.0}, {"within": (0.0, 1.0)}])
def test_nan_fails_every_relation(relation):
    c = _check(math.nan, **relation)
    assert c.passed is False and math.isnan(c.margin)


@pytest.mark.parametrize("relation", [
    {}, {"lt": 1.0, "gt": 0.0}, {"ge": 0.0, "within": (0.0, 1.0)},
    {"within": (0.6, 0.35)}])
def test_check_needs_one_relation_and_an_ordered_window(relation):
    report = RunReport("unit")
    with pytest.raises(ValueError):
        report.check("c", 0.5, **relation)
    assert report.checks == []


def test_numpy_bounds_are_stored_as_json_floats():
    """all_interior_cells_visited's form: a numpy count against a numpy count."""
    inside = np.ones(464, bool)
    c = _check(inside.sum(), ge=inside.sum())
    assert json.loads(json.dumps(asdict(c)))["bound"] == {"ge": 464.0}
    c = _check(np.int64(5), within=(np.int64(1), np.int64(9)))
    assert json.loads(json.dumps(asdict(c)))["bound"] == {"within": [1.0, 9.0]}


def test_check_lines():
    """A check prints its value, relation and margin, then its detail; an
    add check, which writes null for bound and margin, its value and detail."""
    report = RunReport("unit")
    report.check("mass", 0.3735, within=(0.35, 0.6))
    report.check("d_mix", 0.5, lt=0.25, detail="d_atom 0.2500")
    report.add("orders", True, 2.0, "orders 2.00, 2.00")
    assert [str(c) for c in report.checks] == [
        "mass = 0.3735 in [0.35, 0.6] (margin 0.0235)",
        "d_mix = 0.5 < 0.25 (margin -0.25) (d_atom 0.2500)",
        "orders = 2 (orders 2.00, 2.00)"]
    assert asdict(report.checks[2])["bound"] is None
    assert asdict(report.checks[2])["margin"] is None
