"""Tests of the benchmark's own parts: generators, checks, percentiles, tracer.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import os
import re
import sys
from itertools import islice
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import pytest  # noqa: E402

from perfbench import inputs  # noqa: E402
from perfbench.stats import (  # noqa: E402
    percentile,
    quartile_spread,
    summarize,
    tail_percentile,
)
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import PER_LAYER, misplaced  # noqa: E402
from repro.corpus.rules import get_rule  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.sql.parser import parse_query  # noqa: E402


def _stream(seed: int, n: int):
    return list(islice(inputs.serve_stream(seed), n))


# -- generators --------------------------------------------------------------


def test_generators_are_deterministic_per_seed():
    assert _stream(7, 300) == _stream(7, 300)
    assert inputs.cluster_stream(7) == inputs.cluster_stream(7)
    assert _stream(7, 300) != _stream(8, 300)
    assert inputs.cluster_stream(7) != inputs.cluster_stream(8)


def test_serve_stream_blocks_hold_fixed_class_counts():
    stream = _stream(3, 4 * inputs.BLOCK)
    for start in range(0, len(stream), inputs.BLOCK):
        block = stream[start:start + inputs.BLOCK]
        counts = {}
        for pair in block:
            counts[pair.klass] = counts.get(pair.klass, 0) + 1
        assert counts == dict(inputs.CLASS_COUNTS)
        novel = {(p.source.split(":")[0], p.expected) for p in block if p.klass == "novel"}
        assert len(novel) == 2 * len(inputs.FAMILIES)


def _parsed(text: str):
    """The AST of ``text``, or the parse error it raises."""
    try:
        return parse_query(text)
    except ReproError as error:
        return type(error).__name__, str(error)


def test_respellings_parse_to_the_source_ast():
    respelled = [p for p in _stream(5, 600) if p.klass == "respell"]
    assert len(respelled) > 50
    for pair in respelled:
        rule = get_rule(pair.source)
        assert pair.left != rule.left and pair.right != rule.right
        # Unsupported rules fail to parse; their respellings fail alike.
        assert _parsed(pair.left) == _parsed(rule.left)
        assert _parsed(pair.right) == _parsed(rule.right)
        assert pair.expected == rule.expectation.value


def test_respelling_touches_only_keyword_case_and_adds_a_comment():
    import random

    sql = "SELECT x.a FROM r x WHERE x.name = 'select' AND x.b = 1"
    out = inputs.respell(sql, random.Random(0), "tag")
    body, comment = out.rsplit(" -- ", 1)
    assert comment == "tag"
    assert body.lower() == sql.lower()
    assert "'select'" in body and "x.name" in body and " r x " in body


def test_swaps_and_repeats_keep_their_rule_expectation():
    for pair in _stream(9, 600):
        if pair.klass not in ("swap", "repeat"):
            continue
        rule = get_rule(pair.source)
        sides = (rule.right, rule.left) if pair.klass == "swap" else (rule.left, rule.right)
        assert (pair.left, pair.right) == sides
        assert pair.expected == rule.expectation.value


def test_cluster_shapes_carry_distinct_constants():
    stream = inputs.cluster_stream(4)
    labels = sorted({label for _, label in stream})
    assert len(labels) == inputs.SHAPES_PER_FAMILY * len(inputs.FAMILIES)
    constants = [c for label in labels for c in label.split(":")[1:]]
    assert len(constants) == len(set(constants))
    for query, label in stream:
        family, c1, c2 = label.split(":")
        numbers = set(re.findall(r"\b\d+\b", query))
        assert c1 in numbers
        assert numbers <= {c1, c2}


def test_cluster_stream_has_distinct_spellings_of_every_shape():
    stream = inputs.cluster_stream(2)
    assert len(stream) == len({q for q, _ in stream})
    per_label = {}
    for _, label in stream:
        per_label[label] = per_label.get(label, 0) + 1
    assert set(per_label.values()) == {inputs.SPELLINGS_PER_SHAPE}


def test_novel_pairs_are_new_and_decided_as_constructed():
    from repro import Session, VerifyRequest

    novel = [p for p in _stream(6, 400) if p.klass == "novel"][:12]
    assert len({(p.left, p.right) for p in novel}) == len(novel)
    assert {p.expected for p in novel} == {"proved", "not_proved"}
    session = Session()
    for pair in novel:
        result = session.verify(
            VerifyRequest(left=pair.left, right=pair.right, program=pair.program)
        )
        assert result.verdict.value == pair.expected, pair


# -- checks ------------------------------------------------------------------


def test_misplaced_counts_split_and_mixed_groups():
    labels = {"a1": "A", "a2": "A", "b1": "B", "b2": "B", "a3": "A"}
    group = lambda *members: SimpleNamespace(members=list(members))  # noqa: E731
    assert misplaced([group("a1", "a2", "a3"), group("b1", "b2")], labels) == 0
    assert misplaced([group("a1", "a2", "b1"), group("b2"), group("a3")], labels) == 2


# -- percentiles -------------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9), (100000, 99.99)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(list(reversed(values)), 99) == 99
    spread = quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert spread["median"] == 3.0 and spread["spread"] == pytest.approx(1.0)


def test_summarize_scales_each_window_and_pools_samples():
    window = [0.001 * (i + 1) for i in range(100)]  # 1..100 ms
    labels = ["even" if i % 2 else "odd" for i in range(100)]
    segment = {
        "latencies": [window, window],
        "busy": [sum(window), sum(window)],
        "scales": [1.0, 0.5],
        "calibrations": [0.02, 0.02, 0.06],
        "classes": [labels, labels],
    }
    out = summarize([segment], 90.0)
    raw, scaled = out["raw"], out["scaled"]
    assert raw["samples"] == scaled["samples"] == 200
    assert raw["op_p50_ms"] == pytest.approx(50.0)
    assert raw["op_tail_ms"] == pytest.approx(90.0)
    assert scaled["op_tail_ms"] == pytest.approx(80.0)  # rank 180 of 200
    rate = 100 / sum(window)
    assert raw["ops_per_s"] == pytest.approx(rate)
    assert scaled["ops_per_s"] == pytest.approx(1.5 * rate)  # median of 1x, 2x
    assert raw["calibration_ms_median"] == pytest.approx(20.0)
    assert raw["class_p50_ms"] == pytest.approx({"odd": 49.0, "even": 50.0})
    # scaled odd samples: 1, 3, .., 99 and 0.5, 1.5, .., 49.5 ms; rank 50 of 100
    assert scaled["class_p50_ms"]["odd"] == pytest.approx(33.0)
    with pytest.raises(RuntimeError):
        summarize([segment], 99.9)


# -- tracer ------------------------------------------------------------------


def test_tracer_self_time_and_coverage():
    tracer = Tracer()
    tracer.spans = [
        [0, "session.verify", -1, 0, 100, 1],
        [1, "sql.parse", 0, 0, 20, 1],
        [2, "udp.decide", 0, 20, 90, 1],
        [3, "usr.normalize", 2, 20, 30, 1],
        [4, "udp.canonize", 2, 30, 60, 1],
        [5, "udp.canonize", 4, 40, 50, 1],
    ]
    analysis = tracer.analyse("session.verify")
    assert analysis["coverage"] == pytest.approx(0.9)
    assert analysis["total_ns"]["udp.canonize"] == 30  # outermost only
    assert analysis["match_ns"] == 70 - 10 - 30
    assert analysis["self_ns"]["session"] == 10
    assert analysis["self_ns"]["udp"] == 30 + 20 + 10
    assert sum(analysis["self_ns"].values()) == 100


def test_tracer_install_restores_every_attribute():
    import repro.session as session
    import repro.udp.decide as decide

    before = (session.parse_query, decide.canonize_form, dict(session._TACTICS),
              session.Session.__dict__["from_program_text"])
    tracer = Tracer().install()
    try:
        assert session.parse_query is not before[0]
        result = session.Session.from_program_text(
            inputs.SHAPE_PROGRAM
        ).verify("SELECT * FROM r x", "SELECT * FROM r y")
        assert result.proved
    finally:
        tracer.uninstall()
    after = (session.parse_query, decide.canonize_form, dict(session._TACTICS),
             session.Session.__dict__["from_program_text"])
    assert after == before
    names = {span[1] for span in tracer.spans}
    assert {"session.verify", "sql.parse", "usr.compile", "udp.decide"} <= names


def test_per_layer_metrics_match_benchmark_json():
    import json

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed == PER_LAYER
