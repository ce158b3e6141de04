"""Corpus ingestion, vocabulary construction, bundled toy corpora, and the one file writer."""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain

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

    @cached_property
    def index(self) -> dict[str, int]:
        """Token -> id, built on first use and kept."""
        return {tok: i for i, tok in enumerate(self.tokens)}

    def encode(self, pieces: list[str]) -> np.ndarray:
        return np.fromiter(map(self.index.__getitem__, pieces), dtype=np.int64, count=len(pieces))

    def decode(self, ids) -> list[str]:
        return [self.tokens[int(i)] for i in ids]


def build_vocab(token_lists: list[list[str]], source: str = "token lists") -> Vocab:
    """Frequency-then-lexicographic vocabulary with pad/mask reserved first.

    ``IoError``, naming ``source``, when a token is spelled like pad or
    mask: it would decode to the same text as the reserved id.
    """
    counts = Counter(chain.from_iterable(token_lists))
    for reserved in (PAD_TOKEN, MASK_TOKEN):
        if reserved in counts:
            raise IoError(f"{source} holds the reserved token {reserved!r}")
    ordered = sorted(counts, key=lambda tok: (-counts[tok], tok))
    return Vocab(tokens=(PAD_TOKEN, MASK_TOKEN, *ordered))


@dataclass(frozen=True)
class Corpus:
    sequences: list[np.ndarray]
    vocab: Vocab

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


TOKENIZERS = {"char": list, "whitespace": str.split}


def ingest(path: str, tokenizer: str = "char", max_len: int = 250, text: str | None = None) -> Corpus:
    """Read a UTF-8 text file, or the bundled corpus ``builtin:<name>``,
    one sequence per line.

    Lines are truncated to ``max_len`` tokens; lines shorter than 2 tokens
    are dropped.  The vocabulary is rebuilt from the (truncated) corpus so
    encoding is deterministic for a given file.  ``text``, when given, is
    the corpus's content already read (``read_text(path)``), and ``path``
    only names the corpus in messages.
    """
    if tokenizer not in TOKENIZERS:
        raise IoError(f"unknown tokenizer {tokenizer!r}; choices: {sorted(TOKENIZERS)}")
    split = TOKENIZERS[tokenizer]
    lines = (read_text(path) if text is None else text).splitlines()
    token_lists = [pieces for pieces in (split(line)[:max_len] for line in lines) if len(pieces) >= 2]
    if not token_lists:
        raise EmptyCorpus(f"no usable sequences in {path}")
    vocab = build_vocab(token_lists, f"corpus {path}")
    # one encode over the whole corpus, cut into a view per line
    ids = vocab.encode(list(chain.from_iterable(token_lists)))
    ends = list(accumulate(map(len, token_lists)))
    return Corpus(sequences=[ids[start:end] for start, end in zip([0, *ends], ends)], vocab=vocab)


def alternating_text() -> str:
    """256 strictly alternating a/b lines of 16 tokens; both phases appear equally often."""
    lines = []
    for i in range(256):
        start = "ab" if i % 2 == 0 else "ba"
        lines.append((start * 16)[:16])
    return "\n".join(lines) + "\n"


def grammar3_text() -> str:
    """256 lines of five triples drawn from the (abc|acb)+ pattern."""
    rng = RngStream(0, "grammar3").generator()
    lines = []
    for _ in range(256):
        triples = ["abc" if rng.random() < 0.5 else "acb" for _ in range(5)]
        lines.append("".join(triples))
    return "\n".join(lines) + "\n"


def multimodal_text() -> str:
    """256 lines: a shared prefix followed by one of two equally likely continuations."""
    rng = RngStream(0, "multimodal").generator()
    lines = []
    for _ in range(256):
        cont = "cccccccc" if rng.random() < 0.5 else "dddddddd"
        lines.append("aabb" + cont)
    return "\n".join(lines) + "\n"


BUILTIN_CORPORA = {
    "alternating": alternating_text,
    "grammar3": grammar3_text,
    "multimodal": multimodal_text,
}


def read_text(path: str) -> str:
    """The text of a UTF-8 file, or of the bundled corpus ``builtin:<name>``, built in memory."""
    if path.startswith("builtin:"):
        name = path.split(":", 1)[1]
        if name not in BUILTIN_CORPORA:
            raise IoError(f"unknown builtin corpus {name!r}; choices: {sorted(BUILTIN_CORPORA)}")
        return BUILTIN_CORPORA[name]()
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read corpus {path}: {exc}") from exc


def write_file(path: str, *parts) -> None:
    """Write ``parts`` (text as UTF-8, or bytes) to ``path + ".tmp"`` and rename it over ``path``.

    An ``OSError`` raises ``IoError``, leaves no temporary and any earlier file at ``path`` whole.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            for part in parts:
                fh.write(part.encode("utf-8") if isinstance(part, str) else part)
        os.replace(tmp, path)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def make_dir(path: str) -> None:
    """Make the directory ``path`` and its parents, if missing; ``IoError`` if it cannot be made."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot make directory {path}: {exc}") from exc
