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
    """Return (arrays, moments_m, moments_v, manifest) from a checkpoint file."""
    with open_archive(path) as (manifest, zf):
        field(manifest, "format", lambda f: f == _FORMAT, "is not a supported checkpoint format")
        field(manifest, "config_hash", lambda h: isinstance(h, str), "is not a string")
        field(manifest, "step", lambda s: type(s) is int and s >= 0, "is not a step count")
        params = field(manifest, "params", lambda p: isinstance(p, dict), "is not an object")
        moments = field(manifest, "moments", lambda ms: isinstance(ms, list) and all(
            isinstance(n, str) and n in params for n in ms), "is not a list of parameter names")
        arrays = {n: decode(zf.read(f"param/{n}"), "<f8", s) for n, s in params.items()}
        m = {n: decode(zf.read(f"m/{n}"), "<f8", params[n]) for n in moments}
        v = {n: decode(zf.read(f"v/{n}"), "<f8", params[n]) for n in moments}
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
    store.step = manifest["step"]
    return manifest


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
