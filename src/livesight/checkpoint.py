"""Deterministic array archives: checkpoints and datasets.

An archive is a zip file (stored, not compressed, with a fixed timestamp)
holding a JSON manifest and one little-endian blob per array. A checkpoint
holds a float64 blob per parameter and moment; `simgen` writes a dataset the
same way. Writing the same state twice produces byte-identical files, so
"did training touch this model?" reduces to comparing two files.
"""

from __future__ import annotations

import hashlib
import io
import json
import zipfile
import zlib
from contextlib import contextmanager

import numpy as np

from .errors import StateError

_EPOCH = (1980, 1, 1, 0, 0, 0)
_FORMAT = 1


def _manifest_bytes(manifest):
    return json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()


def write_archive(path, manifest, members):
    """Write `manifest.json` and then each `(name, bytes)` of `members` to the
    zip file `path`, stored with a fixed timestamp so that equal input gives
    equal bytes."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_STORED) as zf:
        for name, payload in [("manifest.json", _manifest_bytes(manifest)), *members]:
            info = zipfile.ZipInfo(name, date_time=_EPOCH)
            info.external_attr = 0o600 << 16
            zf.writestr(info, payload)
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def _blob(array):
    return np.ascontiguousarray(array, dtype="<f8").tobytes()


def save_checkpoint(path, store, config_hash="", extra=None):
    """Write the store's parameters, moments, and step counter to `path`."""
    manifest = {
        "format": _FORMAT,
        "config_hash": config_hash,
        "step": store.step,
        "extra": extra or {},
        "params": {name: list(p.data.shape) for name, p in store.items()},
        "moments": sorted(store.moments_m),
    }
    members = [(f"param/{name}", _blob(p.data)) for name, p in sorted(store.items())]
    for name in sorted(store.moments_m):
        members += [(f"m/{name}", _blob(store.moments_m[name])),
                    (f"v/{name}", _blob(store.moments_v[name]))]
    write_archive(path, manifest, members)


@contextmanager
def open_archive(path, error=StateError, what="checkpoint"):
    """The zip archive `path`, open for reading. A file that is missing, not a
    zip, cut short, fails a CRC-32, lacks a member, holds a blob of the wrong
    size or has a damaged header (an unknown compression method or flag, or an
    offset outside the file) raises `error` naming the path; an `error` raised
    inside passes through."""
    try:
        with zipfile.ZipFile(path, "r") as zf:
            yield zf
    except error:
        raise
    except (zipfile.BadZipFile, EOFError, KeyError, ValueError, RuntimeError, OSError,
            zlib.error) as exc:
        raise error(f"{path} is not a readable {what}: {exc}") from exc


def read_manifest(path):
    """The JSON manifest of a checkpoint file, without reading its arrays."""
    with open_archive(path) as zf:
        return json.loads(zf.read("manifest.json"))


def read_checkpoint(path):
    """Return (arrays, moments_m, moments_v, manifest) from a checkpoint file."""
    with open_archive(path) as zf:
        manifest = json.loads(zf.read("manifest.json"))
        if manifest.get("format") != _FORMAT:
            raise StateError(f"unsupported checkpoint format {manifest.get('format')!r}")
        arrays, m, v = {}, {}, {}
        for name, shape in manifest["params"].items():
            raw = np.frombuffer(zf.read(f"param/{name}"), dtype="<f8")
            arrays[name] = raw.reshape([int(s) for s in shape]).astype(np.float64)
        for name in manifest["moments"]:
            shape = [int(s) for s in manifest["params"][name]]
            m[name] = np.frombuffer(zf.read(f"m/{name}"), dtype="<f8").reshape(shape).copy()
            v[name] = np.frombuffer(zf.read(f"v/{name}"), dtype="<f8").reshape(shape).copy()
    return arrays, m, v, manifest


def load_checkpoint(path, store, config_hash=None):
    """Restore parameters, moments, and step counter into `store`."""
    arrays, m, v, manifest = read_checkpoint(path)
    if config_hash is not None and manifest["config_hash"] != config_hash:
        raise StateError(
            f"{path} was trained on another config or dataset: its config hash "
            f"{manifest['config_hash']!r} does not match expected {config_hash!r}"
        )
    store.load_arrays(arrays)
    store.load_moments(m, v)
    store.step = int(manifest["step"])
    return manifest


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
