"""Corpus ingestion, vocabulary construction, and bundled toy corpora."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyCorpus, IoError
from .rng import RngStream

PAD_TOKEN = "<pad>"
MASK_TOKEN = "<mask>"


@dataclass(frozen=True)
class Vocab:
    tokens: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.tokens)

    @property
    def mask_id(self) -> int:
        return 1

    def index(self) -> dict[str, int]:
        return {tok: i for i, tok in enumerate(self.tokens)}

    def encode(self, pieces: list[str]) -> np.ndarray:
        idx = self.index()
        return np.array([idx[p] for p in pieces], dtype=np.int64)

    def decode(self, ids) -> list[str]:
        return [self.tokens[int(i)] for i in ids]


def build_vocab(token_lists: list[list[str]]) -> Vocab:
    """Frequency-then-lexicographic vocabulary with pad/mask reserved first."""
    counts = Counter()
    for pieces in token_lists:
        counts.update(pieces)
    ordered = sorted(counts, key=lambda tok: (-counts[tok], tok))
    return Vocab(tokens=(PAD_TOKEN, MASK_TOKEN, *ordered))


@dataclass(frozen=True)
class Corpus:
    sequences: list[np.ndarray]
    vocab: Vocab
    source: str
    tokenizer: str

    def lengths(self) -> list[int]:
        return sorted({len(s) for s in self.sequences})

    @cached_property
    def buckets(self) -> dict[int, list[np.ndarray]]:
        """Sequences grouped by length, in ascending length and corpus
        order; built on first use."""
        buckets: dict[int, list[np.ndarray]] = {}
        for seq in sorted(self.sequences, key=len):
            buckets.setdefault(len(seq), []).append(seq)
        return buckets


def _tokenize(line: str, tokenizer: str) -> list[str]:
    if tokenizer == "char":
        return list(line)
    if tokenizer == "whitespace":
        return line.split()
    raise IoError(f"unknown tokenizer {tokenizer!r}")


def ingest(path: str, tokenizer: str = "char", max_len: int = 250) -> Corpus:
    """Read a UTF-8 text file, one sequence per line.

    Lines are truncated to ``max_len`` tokens; lines shorter than 2 tokens
    are dropped.  The vocabulary is rebuilt from the (truncated) corpus so
    encoding is deterministic for a given file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read corpus {path}: {exc}") from exc
    token_lists = []
    for line in lines:
        pieces = _tokenize(line, tokenizer)[:max_len]
        if len(pieces) >= 2:
            token_lists.append(pieces)
    if not token_lists:
        raise EmptyCorpus(f"no usable sequences in {path}")
    vocab = build_vocab(token_lists)
    sequences = [vocab.encode(pieces) for pieces in token_lists]
    return Corpus(sequences=sequences, vocab=vocab, source=path, tokenizer=tokenizer)


def alternating_text(n_lines: int = 256, length: int = 16) -> str:
    """Strictly alternating a/b lines; both phases appear equally often."""
    lines = []
    for i in range(n_lines):
        start = "ab" if i % 2 == 0 else "ba"
        lines.append((start * length)[:length])
    return "\n".join(lines) + "\n"


def grammar3_text(n_lines: int = 256, n_triples: int = 5, seed: int = 0) -> str:
    """Lines drawn from the (abc|acb)+ pattern."""
    rng = RngStream(seed, "grammar3").generator()
    lines = []
    for _ in range(n_lines):
        triples = ["abc" if rng.random() < 0.5 else "acb" for _ in range(n_triples)]
        lines.append("".join(triples))
    return "\n".join(lines) + "\n"


def multimodal_text(n_lines: int = 256, seed: int = 0) -> str:
    """A shared prefix followed by one of two equally likely continuations."""
    rng = RngStream(seed, "multimodal").generator()
    lines = []
    for _ in range(n_lines):
        cont = "cccccccc" if rng.random() < 0.5 else "dddddddd"
        lines.append("aabb" + cont)
    return "\n".join(lines) + "\n"


BUILTIN_CORPORA = {
    "alternating": alternating_text,
    "grammar3": grammar3_text,
    "multimodal": multimodal_text,
}


def write_builtin(name: str, path: str, seed: int = 0) -> str:
    """Materialize a bundled toy corpus; returns the path written."""
    if name not in BUILTIN_CORPORA:
        raise IoError(f"unknown builtin corpus {name!r}; choices: {sorted(BUILTIN_CORPORA)}")
    maker = BUILTIN_CORPORA[name]
    text = maker() if name == "alternating" else maker(seed=seed)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write corpus {path}: {exc}") from exc
    return path
