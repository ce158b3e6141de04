"""Versioned binary checkpoint container.

Layout: magic ``SCLM``, format version (u32 LE), header length (u64 LE),
UTF-8 JSON header (the model's ``settings``, step, Adam step count,
parameter names, ``state_crc32``), then the model's ``ParamStore``
buffers ``values``, ``first`` and ``second`` (parameters and both Adam
moments) as little-endian float64, in the store's buffer order.  The
state is kept as training holds it, so a resumed run goes on from the
same bytes as one that never stopped.  ``save`` writes through
``corpus.write_file``, so a failed save leaves any earlier checkpoint
at its path whole.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
import sys
import zlib

import numpy as np

from .corpus import TOKENIZERS, Vocab, write_file
from .curvemap import CurveConfig, build_cache
from .errors import CheckpointVersionMismatch, IoError, ShapeMismatch
from .model import MODES, BackboneConfig, SclmModel, build_schedule

MAGIC = b"SCLM"
VERSION = 2
_PREFIX = struct.Struct("<4sIQ")  # magic, version, header length


def _config_from(cls, section: dict):
    """A config dataclass from a header section, which must name exactly its fields."""
    names = {f.name for f in dataclasses.fields(cls)}
    if set(section) != names:
        raise IoError(f"checkpoint header names {sorted(section)}, {cls.__name__} has {sorted(names)}")
    return cls(**section)


def settings(model) -> dict:
    """How ``model`` (an ``SclmModel``, or its constructor's arguments as attributes) is built: a header's
    model part; ``tokenizer`` comes before ``vocab``, so a resume with another tokenizer names it first."""
    return {
        "noise": model.noise,
        "embed_dim": model.embed_dim,
        "k_curves": model.k_curves,
        "lambda_anchor": model.lambda_anchor,
        "seed": model.seed,
        "schedule": {"T": model.schedule.T, "kind": model.schedule.kind},
        "backbone": dataclasses.asdict(model.backbone),
        "curve": dataclasses.asdict(model.cache.config),
        "tokenizer": model.vocab.tokenizer,
        "vocab": list(model.vocab.tokens),
    }


def save(model: SclmModel, path: str, step: int) -> None:
    store = model.store
    state = [buf.astype("<f8", copy=False) for buf in (store.values, store.first, store.second)]
    crc = 0
    for buf in state:
        crc = zlib.crc32(buf, crc)
    header = {**settings(model), "step": step, "opt_step_count": store.step_count, "params": store.names(), "state_crc32": crc}
    payload = json.dumps(header, sort_keys=True).encode("utf-8")
    write_file(path, _PREFIX.pack(MAGIC, VERSION, len(payload)), payload, *state)


def load(path: str) -> tuple[SclmModel, int, dict]:
    """Rebuild the model from a checkpoint file's state, with no draw; its basis pairs are built on first use.

    A bad magic or format version raises ``CheckpointVersionMismatch``.  A
    short header, an unparsable header, a header that is not an object or
    lacks a key, an unknown mode or tokenizer, a step count that is no
    integer >= 0, a parameter list other than the model's (in its order),
    a state of any length but three model-sized float64 buffers, a state
    that fails its checksum and a non-finite state value raise
    ``IoError``; a header key it does not read is ignored.  The state is
    read straight into the three buffers the model's store adopts.  The
    header length is checked against the file's size before it sizes a
    read, so a corrupt one cannot allocate what it claims.

    An older v2 header's ``mode`` gives way to the noise ``MODES`` gives
    it, and its ``tokenizer`` is what its samples were joined by: "char"
    when every non-reserved token is one character long, else "whitespace".
    """
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            prefix = fh.read(_PREFIX.size)
            if prefix[:4] != MAGIC:
                raise CheckpointVersionMismatch(f"bad magic {prefix[:4]!r}, expected {MAGIC!r}")
            if len(prefix) < _PREFIX.size:
                raise IoError(f"truncated checkpoint {path}: {len(prefix)} bytes")
            _, version, header_len = _PREFIX.unpack(prefix)
            if version != VERSION:
                raise CheckpointVersionMismatch(f"format version {version}, expected {VERSION}")
            start = _PREFIX.size + header_len
            if start > size:
                raise IoError(f"truncated checkpoint {path}: its header wants {header_len} bytes")
            payload = fh.read(header_len)
            # the state: three equal buffers, less bytes short of one float in each
            n = (size - start) // 24
            state = np.empty(n), np.empty(n), np.empty(n)
            have = sum(fh.readinto(buf) for buf in state)
            have += len(fh.read(size - start - have))
    except OSError as exc:
        raise IoError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        header = json.loads(payload.decode("utf-8"))
        if not isinstance(header, dict):
            raise IoError(f"checkpoint {path} has a header of type {type(header).__name__}, not an object")
        if "mode" in header:  # an older v2 header: the run mode, and no noise or tokenizer
            if header["mode"] not in MODES:
                raise IoError(f"checkpoint {path} names the unknown mode {header['mode']!r}")
            header["noise"] = MODES[header.pop("mode")][0]
            header["tokenizer"] = "char" if all(len(tok) == 1 for tok in header["vocab"][2:]) else "whitespace"
        if header["tokenizer"] not in TOKENIZERS:
            raise IoError(f"checkpoint {path} names the unknown tokenizer {header['tokenizer']!r}")
        for key in ("step", "opt_step_count"):
            if type(header[key]) is not int or header[key] < 0:
                raise IoError(f"checkpoint {key} must be an integer >= 0, got {header[key]!r}")
        # the checksum is of the file's bytes, so it is taken before a
        # big-endian host swaps them, and that before the store adopts them
        crc = 0
        for buf in state:
            crc = zlib.crc32(buf, crc)
        if sys.byteorder == "big":
            for buf in state:  # the file is little-endian
                buf.byteswap(inplace=True)
        try:
            model = _model_from(header, state)
        except ShapeMismatch:
            # a state that does not fit: a drawn model lets the checks below word why
            model = _model_from(header)
        store = model.store
        names = store.names()
        if header["params"] != names:
            listed = set(header["params"])
            raise IoError(
                f"checkpoint lacks parameters {sorted(set(names) - listed)} and has unknown"
                f" {sorted(listed - set(names))}, or lists them out of the model's order"
            )
        want = 24 * store.values.size
        if have != want:
            raise IoError(f"checkpoint {path} holds {have} bytes of state where its model has {want} ({have - want:+d})")
        if crc != header["state_crc32"]:
            raise IoError(f"checkpoint {path} fails its state checksum")
        if not all(np.isfinite(buf).all() for buf in state):
            raise IoError(f"checkpoint {path} holds a non-finite value")
        store.step_count = header["opt_step_count"]
        return model, header["step"], header
    except KeyError as exc:
        raise IoError(f"checkpoint {path} has no entry {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise IoError(f"cannot parse checkpoint {path}: {exc}") from exc


def _model_from(header: dict, state: tuple[np.ndarray, ...] | None = None) -> SclmModel:
    """The model a parsed header's ``settings`` describe, holding ``state``, or drawn afresh without it."""
    return SclmModel(
        noise=header["noise"],
        vocab=Vocab(tokens=tuple(header["vocab"]), tokenizer=header["tokenizer"]),
        cache=build_cache(_config_from(CurveConfig, header["curve"])),
        schedule=build_schedule(header["schedule"]["T"], header["schedule"]["kind"]),
        backbone=_config_from(BackboneConfig, header["backbone"]),
        embed_dim=header["embed_dim"],
        k_curves=header["k_curves"],
        lambda_anchor=header["lambda_anchor"],
        seed=header["seed"],
        state=state,
    )
