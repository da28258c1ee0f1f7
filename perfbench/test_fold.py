"""Self-time arithmetic of the trace folder on a hand-written three-level trace.

Run with ``python3 -m pytest perfbench/test_fold.py -q``.
"""

import json

import pytest

from fold import fold, load_spans, self_times, unspanned_share


def _span(name, span_id, parent_id, start, duration):
    return {
        "kind": "span",
        "name": name,
        "trace_id": "t",
        "span_id": span_id,
        "parent_id": parent_id,
        "pid": 1,
        "start_s": start,
        "duration_s": duration,
        "attrs": {},
    }


# client.request [0, 10]
#   serve.request [1, 5]
#     runner.submit [2, 3]
#       runner.job [2.5, 4.5]   (outlives its parent, as a worker job does)
#   serve.request [4, 8]        (overlaps its sibling by 1)
#   stray [9, 12]               (runs past the root; clipped at 10)
SPANS = [
    _span("client.request", "a", None, 0.0, 10.0),
    _span("serve.request", "b", "a", 1.0, 4.0),
    _span("runner.submit", "c", "b", 2.0, 1.0),
    _span("runner.job", "d", "c", 2.5, 2.0),
    _span("serve.request", "e", "a", 4.0, 4.0),
    _span("stray", "f", "a", 9.0, 3.0),
]


def test_self_times_subtract_merged_clipped_descendants():
    selfs = self_times(SPANS)
    # root: children cover [1, 8] and [9, 10] -> 8 of 10 covered.
    assert selfs["a"] == pytest.approx(2.0)
    # serve.request b: descendants [2, 3] and [2.5, 4.5] merge to [2, 4.5].
    assert selfs["b"] == pytest.approx(4.0 - 2.5)
    # runner.submit c: the job covers [2.5, 3] of it.
    assert selfs["c"] == pytest.approx(0.5)
    assert selfs["d"] == pytest.approx(2.0)
    assert selfs["e"] == pytest.approx(4.0)
    assert selfs["f"] == pytest.approx(3.0)


def test_fold_sums_by_name_and_unspanned_share():
    table = fold(SPANS)
    assert table["serve.request"]["count"] == 2
    assert table["serve.request"]["total_s"] == pytest.approx(8.0)
    assert table["serve.request"]["self_s"] == pytest.approx(1.5 + 4.0)
    assert unspanned_share(SPANS) == pytest.approx(0.2)
    assert unspanned_share(SPANS, root="missing") is None


def test_load_spans_skips_events_and_blank_lines(tmp_path):
    path = tmp_path / "trace.jsonl"
    event = dict(SPANS[0], kind="event", span_id="z")
    lines = [json.dumps(record) for record in SPANS] + ["", json.dumps(event)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert [record["span_id"] for record in load_spans([path])] == list("abcdef")
