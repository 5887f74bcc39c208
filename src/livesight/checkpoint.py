"""Deterministic array archives: checkpoints and datasets.

An archive is a zip file (stored, not compressed, with a fixed timestamp)
holding a JSON manifest and one little-endian blob per array. A checkpoint
holds a float64 blob per parameter; `simgen` writes a dataset the same way.
Writing the same state twice produces byte-identical files, so "did training
touch this model?" reduces to comparing two files.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
import zlib
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import StateError

_EPOCH = (1980, 1, 1, 0, 0, 0)
_FORMAT = 2


def _manifest_bytes(manifest):
    return json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()


def write_archive(path, manifest, members):
    """Write `manifest.json` and then each `(name, payload)` of `members` to
    the zip file `path`, stored with a fixed timestamp so that equal input
    gives equal bytes. A payload is bytes, or an array whose C-order bytes
    (in its dtype's byte order) stream into the file: a C-contiguous array is
    not copied. The archive is written to a new file beside `path` and then
    renamed onto it, so a write that fails or is killed part-way leaves the
    old `path` (or none), never a cut-short one; on an exception the new file
    is deleted."""
    members = [("manifest.json", _manifest_bytes(manifest)), *members]
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(4).hex()}.tmp")
    zf = zipfile.ZipFile(tmp, "x", zipfile.ZIP_STORED)  # a name clash raises before the try
    try:
        with zf:
            for name, payload in members:
                info = zipfile.ZipInfo(name, date_time=_EPOCH)
                info.external_attr = 0o600 << 16
                if isinstance(payload, np.ndarray):  # a flat view: zero-size shapes allowed
                    payload = np.ascontiguousarray(payload).reshape(-1).view(np.uint8)
                info.file_size = len(payload)  # as `ZipFile.writestr` sets it
                with zf.open(info, "w") as dest:
                    dest.write(payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(path, store, config_hash="", extra=None):
    """Write the store's parameters to `path`."""
    manifest = {
        "format": _FORMAT,
        "config_hash": config_hash,
        "extra": extra or {},
        "params": {name: list(p.data.shape) for name, p in store.items()},
    }
    members = [(f"param/{name}", np.asarray(p.data, dtype="<f8"))
               for name, p in sorted(store.items())]
    write_archive(path, manifest, members)


@contextmanager
def open_archive(path, error=StateError, what="checkpoint"):
    """Yield `(manifest, zf)`: the `manifest.json` object of the zip archive
    `path`, and the archive, open for reading. A manifest that is not a JSON
    object, a file that is missing, not a zip, cut short, fails a CRC-32, lacks
    a member or has a damaged header, and a ValueError raised inside (such as
    `field`'s) raise `error` naming the path; an `error` inside passes through."""
    try:
        with zipfile.ZipFile(path, "r") as zf:
            manifest = json.loads(zf.read("manifest.json"))
            if not isinstance(manifest, dict):
                raise error(f"{path} has no {what} manifest: it holds {manifest!r}, not an object")
            yield manifest, zf
    except error:
        raise
    except (zipfile.BadZipFile, EOFError, KeyError, ValueError, RuntimeError, OSError,
            zlib.error) as exc:
        raise error(f"{path} is not a readable {what}: {exc}") from exc


def field(manifest, key, ok, rule):
    """manifest[key] if `ok` holds for it, else a ValueError naming the `rule` it breaks."""
    value = manifest.get(key)
    if not ok(value):
        raise ValueError(f"{key} {value!r} {rule}")
    return value


def decode(blob, dtype, shape):
    """A writable native-order copy of the little-endian `dtype` array in `blob`."""
    if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
        raise ValueError(f"shape {shape!r} is not a list of sizes")
    return np.frombuffer(blob, dtype=dtype).reshape(shape).astype(dtype[1:])


def read_checkpoint(path):
    """Return (arrays, manifest) from a checkpoint file."""
    with open_archive(path) as (manifest, zf):
        field(manifest, "format", lambda f: f == _FORMAT,
              f"is not the supported checkpoint format {_FORMAT}")
        field(manifest, "config_hash", lambda h: isinstance(h, str), "is not a string")
        params = field(manifest, "params", lambda p: isinstance(p, dict), "is not an object")
        arrays = {n: decode(zf.read(f"param/{n}"), "<f8", s) for n, s in params.items()}
    return arrays, manifest


def load_checkpoint(path, store, config_hash=None):
    """Restore the parameters of `store`."""
    arrays, manifest = read_checkpoint(path)
    if config_hash is not None and manifest["config_hash"] != config_hash:
        raise StateError(
            f"{path} was trained on another config or dataset, or by other code or "
            f"numerics: its config hash {manifest['config_hash']!r} does not match "
            f"expected {config_hash!r}"
        )
    try:
        store.load_arrays(arrays)
    except StateError as exc:
        raise StateError(f"{path}: {exc}") from exc
    return manifest


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
