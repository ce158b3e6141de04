"""Versioned binary checkpoint container.

Layout: magic ``SCLM``, format version (u32 LE), header length (u64 LE),
UTF-8 JSON header (config, vocab, schedule, step, blob names), then one
blob per name: name length (u32) + name, ndim (u32), dims (u32 each),
float32 little-endian data.  Optimizer moments ride along as blobs with
an ``opt.`` prefix so training can resume.  ``save`` writes to
``path + ".tmp"`` and renames it over ``path``.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import struct

import numpy as np

from .corpus import Vocab
from .curvemap import CurveConfig, build_cache
from .errors import CheckpointVersionMismatch, IoError
from .model import BackboneConfig, SclmModel, build_schedule

MAGIC = b"SCLM"
VERSION = 1


def _write_blob(fh, name: str, array: np.ndarray) -> None:
    encoded = name.encode("utf-8")
    fh.write(struct.pack("<I", len(encoded)))
    fh.write(encoded)
    fh.write(struct.pack("<I", array.ndim))
    for dim in array.shape:
        fh.write(struct.pack("<I", dim))
    fh.write(array.astype("<f4").tobytes())


def _read_exact(fh, size: int) -> bytes:
    data = fh.read(size)
    if len(data) < size:
        raise IoError(f"truncated checkpoint: wanted {size} bytes, got {len(data)}")
    return data


def _read_blob(fh) -> tuple[str, np.ndarray]:
    (name_len,) = struct.unpack("<I", _read_exact(fh, 4))
    name = _read_exact(fh, name_len).decode("utf-8")
    (ndim,) = struct.unpack("<I", _read_exact(fh, 4))
    shape = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim))
    count = int(np.prod(shape)) if shape else 1
    data = np.frombuffer(_read_exact(fh, count * 4), dtype="<f4").reshape(shape)
    if not np.isfinite(data).all():
        raise IoError(f"checkpoint blob {name} holds a non-finite value")
    return name, data.astype(np.float64)


def _config_from(cls, section: dict):
    """A config dataclass from a header section, which must name exactly its fields."""
    names = {f.name for f in dataclasses.fields(cls)}
    if set(section) != names:
        raise IoError(f"checkpoint header names {sorted(section)}, {cls.__name__} has {sorted(names)}")
    return cls(**section)


def save(model: SclmModel, path: str, step: int) -> None:
    header = {
        "mode": model.mode,
        "embed_dim": model.embed_dim,
        "k_curves": model.k_curves,
        "force_k_head": model.k_head and model.k_curves < 2,
        "unit_norm": model.embedding.unit_norm,
        "lambda_anchor": model.lambda_anchor,
        "seed": model.seed,
        "step": step,
        "opt_step_count": model.store.step_count,
        "schedule": {"T": model.schedule.T, "kind": model.schedule.kind},
        "backbone": dataclasses.asdict(model.backbone),
        "curve": dataclasses.asdict(model.cache.config),
        "vocab": list(model.vocab.tokens),
        "params": model.store.names(),
    }
    payload = json.dumps(header, sort_keys=True).encode("utf-8")
    # written beside the target and renamed over it, so a failed save
    # leaves any earlier checkpoint at path whole
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(struct.pack("<Q", len(payload)))
            fh.write(payload)
            for name in header["params"]:
                _write_blob(fh, name, model.store[name].data)
                _write_blob(fh, f"opt.m.{name}", model.store.moment1[name])
                _write_blob(fh, f"opt.v.{name}", model.store.moment2[name])
        os.replace(tmp, path)
    except OSError as exc:
        raise IoError(f"cannot write checkpoint {path}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load(path: str) -> tuple[SclmModel, int, dict]:
    """Rebuild the model from a checkpoint file; its basis pairs are built on first use.

    A short read, bytes after the last blob, an unparsable header or blob,
    a header that is not an object or lacks a key, a step count that is no
    integer >= 0, a non-finite blob value, a parameter list other than the
    model's, and a parameter with no blob of its name raise ``IoError``.
    The file is parsed from memory, so a corrupt length field asks for at
    most the bytes that are there instead of allocating what it claims.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read checkpoint {path}: {exc}") from exc
    fh = io.BytesIO(raw)
    try:
        magic = fh.read(4)
        if magic != MAGIC:
            raise CheckpointVersionMismatch(f"bad magic {magic!r}, expected {MAGIC!r}")
        (version,) = struct.unpack("<I", _read_exact(fh, 4))
        if version != VERSION:
            raise CheckpointVersionMismatch(f"format version {version}, expected {VERSION}")
        (header_len,) = struct.unpack("<Q", _read_exact(fh, 8))
        header = json.loads(_read_exact(fh, header_len).decode("utf-8"))
        if not isinstance(header, dict):
            raise IoError(f"checkpoint {path} has a header of type {type(header).__name__}, not an object")
        blobs = dict(_read_blob(fh) for _ in range(len(header["params"]) * 3))
        trailing = len(raw) - fh.tell()
        if trailing:
            raise IoError(f"checkpoint {path} has {trailing} bytes after its last blob")
        for key in ("step", "opt_step_count"):
            if type(header[key]) is not int or header[key] < 0:
                raise IoError(f"checkpoint {key} must be an integer >= 0, got {header[key]!r}")
        return _restore(header, blobs), header["step"], header
    except KeyError as exc:
        raise IoError(f"checkpoint {path} has no entry {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise IoError(f"cannot parse checkpoint {path}: {exc}") from exc


def _restore(header: dict, blobs: dict) -> SclmModel:
    """The model, parameters and Adam state a parsed header and its blobs describe."""
    model = SclmModel(
        mode=header["mode"],
        vocab=Vocab(tokens=tuple(header["vocab"])),
        cache=build_cache(_config_from(CurveConfig, header["curve"])),
        schedule=build_schedule(header["schedule"]["T"], header["schedule"]["kind"]),
        backbone=_config_from(BackboneConfig, header["backbone"]),
        embed_dim=header["embed_dim"],
        k_curves=header["k_curves"],
        unit_norm=header["unit_norm"],
        lambda_anchor=header["lambda_anchor"],
        seed=header["seed"],
        force_k_head=header["force_k_head"],
    )
    listed, names = set(header["params"]), set(model.store.names())
    if listed != names:
        raise IoError(f"checkpoint lacks parameters {sorted(names - listed)} and has unknown {sorted(listed - names)}")
    for name in header["params"]:
        if blobs[name].shape != model.store[name].data.shape:
            raise CheckpointVersionMismatch(
                f"blob {name} has shape {blobs[name].shape}, model expects {model.store[name].data.shape}"
            )
        model.store[name].data[...] = blobs[name]
        model.store.moment1[name][...] = blobs[f"opt.m.{name}"]
        model.store.moment2[name][...] = blobs[f"opt.v.{name}"]
    model.store.step_count = header["opt_step_count"]
    # rows past the last one with a nonzero moment have no Adam state to carry
    for name in model.store.rows_reached:
        moved = (model.store.moment1[name] != 0) | (model.store.moment2[name] != 0)
        rows = np.flatnonzero(moved.reshape(len(moved), -1).any(axis=1))
        model.store.rows_reached[name] = int(rows[-1]) + 1 if rows.size else 0
    return model
