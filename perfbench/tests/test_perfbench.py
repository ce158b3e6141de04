"""Tests of the benchmark's own logic: percentile rule, self time,
seeded inputs and schedules, and restoring every patch after a traced run."""

import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import spans, workloads  # noqa: E402


def test_p90_needs_ten_samples_above_it():
    assert workloads.percentile_with_tail(np.arange(100.0), 90) == pytest.approx(89.1)
    assert workloads.percentile_with_tail(np.arange(50.0), 90) is None
    # ties at the top leave nothing strictly above the percentile
    assert workloads.percentile_with_tail(np.ones(500), 90) is None
    assert workloads.percentile_with_tail([], 90) is None


def test_self_time_subtracts_direct_children_only():
    #   a [0, 10]
    #     b [1, 4]
    #       c [2, 3]
    #     d [5, 9]
    #   e [10, 12]  (second root, same name as b)
    names = ["a", "b", "c", "d"]
    table = spans.SpanTable(
        names,
        name_id=[0, 1, 2, 3, 1],
        parent=[-1, 0, 1, 0, -1],
        start=[0.0, 1.0, 2.0, 5.0, 10.0],
        end=[10.0, 4.0, 3.0, 9.0, 12.0],
    )
    assert table.self_time.tolist() == [3.0, 2.0, 1.0, 4.0, 2.0]
    assert table.total(["b"]) == 5.0
    assert table.total(["b"], root="a") == 3.0
    assert table.self_total(["a", "b", "c", "d"], root="a") == table.total(["a"])
    # the root is the outermost span, and a root is its own root
    assert table.count(["c"], root="a") == 1 and table.count(["c"], root="b") == 0
    assert table.count(["b"], root="b") == 1
    assert table.roots("b") == 1 and table.roots("a") == 1
    assert table.count(["*"]) == 5


def test_recorder_nests_spans_and_attributes_counters_to_the_root():
    rec = spans.SpanRecorder()
    with rec.span("outer"):
        with rec.span("inner"):
            rec.count("work", 3)
        rec.count("work", 2)
    rec.count("work", 1)
    table = spans.SpanTable.from_recorder(rec)
    assert table.parent.tolist() == [-1, 0]
    assert table.self_time[0] == pytest.approx(table.dur[0] - table.dur[1])
    assert rec.counters == {("outer", "work"): 5.0, ("", "work"): 1.0}


def test_masked_corpus_is_determined_by_the_seed():
    text = workloads.masked_corpus_text(7)
    assert text == workloads.masked_corpus_text(7)
    assert text != workloads.masked_corpus_text(8)
    lines = text.splitlines()
    lengths = [len(line) for line in lines]
    assert len(lines) == 512
    assert min(lengths) == 8 and max(lengths) == 128
    assert 18 <= np.median(lengths) <= 30
    assert set(text) - {"\n"} <= set("abcdefgh")


def test_traced_run_restores_every_patch(tmp_path):
    from curvelang import harness
    from curvelang import model as M

    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in spans.targets()]
    config = workloads.gauss_config(0)
    rec = spans.SpanRecorder()
    with pytest.raises(RuntimeError):
        with spans.traced(rec):
            corpus = harness.resolve_corpus(config, str(tmp_path))
            model = harness.build_model(config, corpus)
            batch = harness.make_batch(corpus, config.batch_size, config.seed, 1)
            with rec.span("bench.train_iter"):
                M.train_step(model, batch, M.AdamConfig(lr=config.lr), 1)
            raise RuntimeError("leave the block by an error")
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} still patched"
    table = spans.SpanTable.from_recorder(rec)
    assert table.count(["harness.build_model"]) == 1
    assert table.count(["autodiff.backward"], root="bench.train_iter") == 1
    assert rec.counters[("bench.train_iter", "tape_ops")] > 0


def test_interleaved_schedule_keeps_counts_and_follows_the_seed():
    counts = {"train_iter": 7, "sample": 5, "setup": 2}
    schedule = workloads.interleaved(3, counts)
    assert {kind: schedule.count(kind) for kind in counts} == counts
    assert schedule == workloads.interleaved(3, counts)
    assert schedule != workloads.interleaved(4, counts)
