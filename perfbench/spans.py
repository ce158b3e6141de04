"""Span recorder for the traced benchmark run.

``traced(recorder)`` wraps curvelang's public functions at the places
their callers look them up (module attributes, class attributes), so
every call made while it is active leaves one span: name, start, end and
the span that was open when it began.  Spans live in flat arrays in
memory and are written out once, when the run ends.  Every wrapper is
removed again when the ``with`` block exits, even on error.

Self time of a span is its duration minus the durations of the spans it
directly contains; children of one span run one after another on one
thread, so they never overlap.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np

# autodiff ops that model, theory and the Tensor operators reach through
# the autodiff module namespace
AUTODIFF_OPS = (
    "matmul", "add", "sub", "mul", "scale", "transpose", "concat", "slice_",
    "embedding_lookup", "softmax", "log_softmax", "layer_norm", "gelu", "relu",
    "mean", "sum_", "mse_loss", "cross_entropy_loss", "dropout",
)


class SpanRecorder:
    """Flat, append-only span store with a stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        # (root span name, counter name) -> total
        self.counters: dict[tuple[str, str], float] = {}
        # (id of a BasisCache, length) pairs passed to BasisCache.get
        self.cache_gets: set[tuple[int, int]] = set()

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(self.intern(name))
        try:
            yield
        finally:
            self.close(idx)

    def count(self, counter: str, amount: float = 1.0) -> None:
        """Add to a counter, attributed to the outermost open span."""
        root = self.names[self.name_id[self._stack[0]]] if self._stack else ""
        key = (root, counter)
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


class SpanTable:
    """Durations, self times and root spans of a finished recording."""

    def __init__(self, names: list[str], name_id, parent, start, end):
        self.names = list(names)
        self.name_id = np.asarray(name_id, dtype=np.int64)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.dur = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
        nested = self.parent >= 0
        child_time = np.zeros_like(self.dur)
        np.add.at(child_time, self.parent[nested], self.dur[nested])
        self.self_time = self.dur - child_time
        # a parent is always recorded before its children
        root = np.arange(len(self.parent))
        for i in np.flatnonzero(nested):
            root[i] = root[self.parent[i]]
        self.root_name_id = self.name_id[root]

    @classmethod
    def from_recorder(cls, rec: SpanRecorder) -> "SpanTable":
        a = rec.arrays()
        return cls(rec.names, a["name_id"], a["parent"], a["start"], a["end"])

    def _ids(self, patterns) -> list[int]:
        def match(name, pattern):
            return name.startswith(pattern[:-1]) if pattern.endswith("*") else name == pattern

        return [i for i, name in enumerate(self.names) if any(match(name, p) for p in patterns)]

    def _mask(self, names, root: str) -> np.ndarray:
        mask = np.isin(self.name_id, self._ids(names))
        if root:
            mask &= np.isin(self.root_name_id, self._ids([root]))
        return mask

    def count(self, names, root: str = "") -> int:
        """Spans named by ``names`` (a trailing ``*`` matches a prefix) under ``root``."""
        return int(self._mask(names, root).sum())

    def total(self, names, root: str = "") -> float:
        return float(self.dur[self._mask(names, root)].sum())

    def self_total(self, names, root: str = "") -> float:
        return float(self.self_time[self._mask(names, root)].sum())

    def roots(self, root: str) -> int:
        """Number of top-level spans with this name."""
        return int(((self.parent < 0) & np.isin(self.name_id, self._ids([root]))).sum())


def _wrap(rec: SpanRecorder, name: str, fn, before=None):
    nid = rec.intern(name)

    def traced_call(*args, **kwargs):
        if before is not None:
            before(rec, args, kwargs)
        idx = rec.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(idx)

    traced_call.__wrapped__ = fn
    return traced_call


def _matmul_flops(rec, args, kwargs):
    a, b = (getattr(x, "data", x) for x in args[:2])
    (m, k), n = np.shape(a), np.shape(b)[1]
    rec.count("matmul_flops", 2.0 * m * k * n)


def _tape_ops(rec, args, kwargs):
    rec.count("tape_ops", len(args[0].entries))


def _cache_get(rec, args, kwargs):
    rec.cache_gets.add((id(args[0]), int(args[1])))


def targets() -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, pre-call hook) for every patched function."""
    from curvelang import autodiff, checkpoint, curvemap, harness, model, rng, splines, theory

    out = [(autodiff, op, f"autodiff.op.{op}", _matmul_flops if op == "matmul" else None) for op in AUTODIFF_OPS]
    out += [
        (autodiff.Tape, "backward", "autodiff.backward", _tape_ops),
        (model, "adam_step", "autodiff.adam_step", None),
        (model, "gaussian_loss", "model.gaussian_loss", None),
        (model, "masked_loss", "model.masked_loss", None),
        (model, "train_step", "model.train_step", None),
        (model, "sample", "model.sample", None),
        (model.SclmModel, "predict_clean", "model.predict_clean", None),
        (model.SclmModel, "backbone_hidden", "model.backbone_hidden", None),
        (model.EmbeddingTable, "project", "model.project", None),
        (harness, "resolve_corpus", "harness.resolve_corpus", None),
        (harness, "build_model", "harness.build_model", None),
        (harness, "make_batch", "harness.make_batch", None),
        (harness, "ingest", "corpus.ingest", None),
        (harness, "build_cache", "curvemap.build_cache", None),
        (checkpoint, "build_cache", "curvemap.build_cache", None),
        (checkpoint, "save", "checkpoint.save", None),
        (checkpoint, "load", "checkpoint.load", None),
        (curvemap, "build_cache", "curvemap.build_cache", None),
        (curvemap, "reconstruction_sweep", "curvemap.reconstruction_sweep", None),
        (curvemap.BasisCache, "get", "curvemap.BasisCache.get", _cache_get),
        (splines, "build_pair", "splines.build_pair", None),
        (splines, "identity_pair", "splines.identity_pair", None),
        (splines, "basis_matrix", "splines.basis_matrix", None),
        (splines, "basis_vector", "splines.basis_vector", None),
        (splines, "pseudo_inverse", "splines.pseudo_inverse", None),
        (rng.RngStream, "generator", "rng.generator", None),
        (theory, "logit_correlation_probe", "theory.logit_correlation_probe", None),
    ]
    return out


@contextmanager
def traced(rec: SpanRecorder):
    """Install every wrapper for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attr, name, before in targets():
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(rec, name, original, before))
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
