"""Durable, checksummed snapshot spill for warm server restarts.

A :class:`PlanServer` that owns a :class:`SnapshotStore` spills its warm
incremental state — the per-content-key
:class:`~repro.incremental.IncrementalView` states (query, pinned
ordering, digest-keyed :class:`~repro.exec.executor.RunSnapshot`, current
answer) and the digest-keyed completed-result cache — to disk after every
update batch.  A replica restarted over the same directory restores them
at construction, so its first incremental request after a crash is
answered *warm* (delta propagation against the restored snapshot) instead
of paying a cold full run.

File format (mirrors the shared-memory segment layout of
:mod:`repro.exec.shm`, with its own magic)::

    bytes 0..7    magic  b"REPROSN1"  (store kind + layout version)
    bytes 8..15   payload length, little-endian u64
    bytes 16..47  SHA-256 of the payload
    bytes 48..    pickled payload  {"kind", "version", "content_key_version",
                                    "sections"}

Durability rules:

* **atomic** — payloads are written to a temp file and ``os.replace``\\ d
  into place, so a crash mid-spill leaves the previous snapshot intact;
* **checksummed** — the SHA-256 rejects torn or bit-rotted files;
* **version-tagged** — both the magic and the embedded kind/version tags
  must match, so a layout change invalidates old files cleanly; so must
  :data:`~repro.planner.signature.CONTENT_KEY_VERSION`, because pickled
  factors carry their digest memos and the sections are keyed on digests
  — a file written under another digest format loads as a clean miss;
* **best-effort** — save returns ``False`` and load returns ``None`` on
  any failure (including injected ``snapshot.io`` faults); a snapshot is
  an optimisation, never a correctness requirement.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import tempfile
from pathlib import Path
from typing import Any, Optional

from repro.faults import SITE_SNAPSHOT_IO, maybe_raise
from repro.planner import signature

_MAGIC = b"REPROSN1"
_LEN_OFFSET = 8
_SHA_OFFSET = 16
_PAYLOAD_OFFSET = 48

SNAPSHOT_KIND = "repro-serve-snapshot"
SNAPSHOT_VERSION = 1


class SnapshotStore:
    """Checksummed, version-tagged snapshot files under one directory.

    One store per server; named sections (``"server"`` for the combined
    view/result spill) map to one file each.  All I/O is best-effort by
    contract — see the module docstring.
    """

    def __init__(self, directory: os.PathLike | str) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.saves = 0
        self.save_errors = 0
        self.loads = 0
        self.load_errors = 0

    def path_for(self, name: str) -> Path:
        return self.directory / f"{name}.snapshot"

    # ------------------------------------------------------------------ #
    def save(self, name: str, sections: Any) -> bool:
        """Atomically persist ``sections`` under ``name``; False on failure."""
        try:
            maybe_raise(SITE_SNAPSHOT_IO, OSError)
            payload = {
                "kind": SNAPSHOT_KIND,
                "version": SNAPSHOT_VERSION,
                "content_key_version": signature.CONTENT_KEY_VERSION,
                "sections": sections,
            }
            data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            blob = bytearray(_PAYLOAD_OFFSET + len(data))
            blob[:8] = _MAGIC
            blob[_LEN_OFFSET:_SHA_OFFSET] = struct.pack("<Q", len(data))
            blob[_SHA_OFFSET:_PAYLOAD_OFFSET] = hashlib.sha256(data).digest()
            blob[_PAYLOAD_OFFSET:] = data
            fd, tmp_path = tempfile.mkstemp(
                dir=self.directory, prefix=f".{name}.", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(bytes(blob))
                os.replace(tmp_path, self.path_for(name))
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
        except Exception:
            self.save_errors += 1
            return False
        self.saves += 1
        return True

    def load(self, name: str) -> Optional[Any]:
        """The sections persisted under ``name``; ``None`` on any mismatch."""
        try:
            maybe_raise(SITE_SNAPSHOT_IO, OSError)
            raw = self.path_for(name).read_bytes()
            if len(raw) < _PAYLOAD_OFFSET or raw[:8] != _MAGIC:
                return None
            (length,) = struct.unpack("<Q", raw[_LEN_OFFSET:_SHA_OFFSET])
            data = raw[_PAYLOAD_OFFSET:_PAYLOAD_OFFSET + length]
            if len(data) != length:
                return None
            if hashlib.sha256(data).digest() != raw[_SHA_OFFSET:_PAYLOAD_OFFSET]:
                return None
            payload = pickle.loads(data)
            if (
                not isinstance(payload, dict)
                or payload.get("kind") != SNAPSHOT_KIND
                or payload.get("version") != SNAPSHOT_VERSION
                or payload.get("content_key_version") != signature.CONTENT_KEY_VERSION
            ):
                return None
        except FileNotFoundError:
            return None
        except Exception:
            self.load_errors += 1
            return None
        self.loads += 1
        return payload.get("sections")

    def stats(self) -> dict:
        return {
            "snapshot_saves": self.saves,
            "snapshot_save_errors": self.save_errors,
            "snapshot_loads": self.loads,
            "snapshot_load_errors": self.load_errors,
        }
