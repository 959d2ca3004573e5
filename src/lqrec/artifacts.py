"""Artifact I/O: every file the pipeline writes goes through :func:`atomic_write`,
every JSON artifact is decoded by :func:`parse_json`, and a malformed artifact, or
one that does not match its manifest, raises ``ArtifactMismatchError``."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager


class ArtifactMismatchError(RuntimeError):
    """A saved artifact (split directory or checkpoint) is malformed or does
    not fit what it is loaded with."""


@contextmanager
def atomic_write(path: str):
    """A binary file written beside ``path`` and renamed over it once the
    block completes, so a failed write leaves the previous file intact."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_json(path: str, obj) -> None:
    """``obj`` as indented, key-sorted JSON and a newline, via :func:`atomic_write`."""
    with atomic_write(path) as f:
        f.write((json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def parse_json(data: bytes, where: str):
    """The value of ``data`` as standard JSON in strict UTF-8; anything else (a BOM,
    ``NaN``, too deep a nesting) raises ``ArtifactMismatchError`` naming ``where``."""
    try:
        return json.loads(data.decode("utf-8"), parse_constant=_refuse_constant)
    except (ValueError, RecursionError) as exc:
        raise ArtifactMismatchError(f"{where}: not UTF-8 JSON: {exc}") from None


def check_manifest(path: str, manifest: dict, found: dict, extra=()) -> None:
    """Raise one ``ArtifactMismatchError`` naming ``path`` that lists each ``found``
    value unequal to ``manifest``'s, then each message in ``extra``."""
    bad = [f"{key} is {value!r}, manifest says {manifest.get(key)!r}"
           for key, value in found.items() if manifest.get(key) != value] + list(extra)
    if bad:
        raise ArtifactMismatchError(f"{path}: " + "; ".join(bad))
