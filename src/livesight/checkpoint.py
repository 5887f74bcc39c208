"""Deterministic checkpoint files.

A checkpoint is a zip archive (stored, not compressed, with a fixed
timestamp) holding one little-endian float64 blob per parameter plus a JSON
manifest. Writing the same state twice produces byte-identical files, so
"did training touch this model?" reduces to comparing two files.
"""

from __future__ import annotations

import hashlib
import io
import json
import zipfile
from contextlib import contextmanager

import numpy as np

from .errors import StateError

_EPOCH = (1980, 1, 1, 0, 0, 0)
_FORMAT = 1


def _manifest_bytes(manifest):
    return json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()


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
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_STORED) as zf:

        def put(name, payload):
            info = zipfile.ZipInfo(name, date_time=_EPOCH)
            info.external_attr = 0o600 << 16
            zf.writestr(info, payload)

        put("manifest.json", _manifest_bytes(manifest))
        for name, p in sorted(store.items()):
            put(f"param/{name}", np.ascontiguousarray(p.data, dtype="<f8").tobytes())
        for name in sorted(store.moments_m):
            put(f"m/{name}", np.ascontiguousarray(store.moments_m[name], dtype="<f8").tobytes())
            put(f"v/{name}", np.ascontiguousarray(store.moments_v[name], dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


@contextmanager
def _archive(path):
    """The checkpoint's zip archive, open for reading. A file that is not a
    zip, is truncated, fails a member's CRC-32, lacks a member or holds a blob
    of the wrong size raises StateError naming the path."""
    try:
        with zipfile.ZipFile(path, "r") as zf:
            yield zf
    except (zipfile.BadZipFile, EOFError, KeyError, ValueError) as exc:
        raise StateError(f"{path} is not a readable checkpoint: {exc}") from exc


def read_manifest(path):
    """The JSON manifest of a checkpoint file, without reading its arrays."""
    with _archive(path) as zf:
        return json.loads(zf.read("manifest.json"))


def read_checkpoint(path):
    """Return (arrays, moments_m, moments_v, manifest) from a checkpoint file."""
    with _archive(path) as zf:
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
