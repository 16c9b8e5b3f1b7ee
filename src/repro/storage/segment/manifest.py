"""The segment store's manifest: the single source of truth for what is live.

A segment becomes visible only when the manifest names it, and the manifest
is published with the exact atomic discipline of
:class:`repro.streaming.checkpoint.CheckpointStore`: the JSON snapshot is
written to a temp file, flushed and fsynced, renamed over the live manifest
with ``os.replace``, and the directory itself is fsynced so the rename is
durable.  A crash mid-seal therefore leaves either the old manifest (the new
segment's files are unreferenced orphans, removed on the next open) or the
new one (whose column files were fsynced before the publish) — never a
half-visible segment.

The manifest also carries a CRC32 over the canonical JSON of its segment
list, so an edited or bit-rotted entry (a wrong ``min_starttime`` would
silently prune live rows) fails the load instead of being trusted.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import Any

from repro.errors import SegmentError

#: Bump when the manifest layout changes incompatibly.
MANIFEST_VERSION = 2

MANIFEST_NAME = "manifest.json"


class SegmentManifest:
    """Atomic load/save of the segment list for one data directory."""

    def __init__(self, directory: str | Path) -> None:
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._path = self._directory / MANIFEST_NAME
        self._tmp = self._directory / (MANIFEST_NAME + ".tmp")

    @property
    def directory(self) -> Path:
        return self._directory

    @property
    def path(self) -> Path:
        return self._path

    def exists(self) -> bool:
        return self._path.exists()

    def save(self, segments: list[dict[str, Any]]) -> Path:
        """Atomically publish ``segments`` as the live manifest."""
        payload = {"version": MANIFEST_VERSION, "segments": segments, "crc32": _crc32(segments)}
        data = json.dumps(payload, sort_keys=True)
        with open(self._tmp, "w", encoding="utf-8") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(self._tmp, self._path)
        self._fsync_directory()
        return self._path

    def load(self) -> list[dict[str, Any]]:
        """The live segment list (empty when no manifest exists yet).

        Raises:
            SegmentError: when a manifest exists but cannot be decoded, was
                written by an incompatible version or fails its checksum — a
                corrupt manifest must never be treated as an empty store.
        """
        if not self._path.exists():
            return []
        try:
            payload = json.loads(self._path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # ValueError: bad UTF-8 or JSON
            raise SegmentError(f"segment manifest {self._path} is corrupt: {exc}") from exc
        if not isinstance(payload, dict) or payload.get("version") != MANIFEST_VERSION:
            raise SegmentError(
                f"segment manifest {self._path} has version "
                f"{payload.get('version') if isinstance(payload, dict) else None!r}, "
                f"expected {MANIFEST_VERSION}"
            )
        segments = payload.get("segments")
        if not isinstance(segments, list):
            raise SegmentError(f"segment manifest {self._path} lists no segments array")
        if payload.get("crc32") != _crc32(segments):
            raise SegmentError(f"segment manifest {self._path} failed its CRC32 check")
        return segments

    # -- internal ------------------------------------------------------------

    def _fsync_directory(self) -> None:
        # POSIX durability for the rename itself; best-effort elsewhere.
        try:
            fd = os.open(self._directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-specific
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def _crc32(segments: list[dict[str, Any]]) -> int:
    canonical = json.dumps(segments, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canonical.encode("utf-8"))


__all__ = ["MANIFEST_NAME", "MANIFEST_VERSION", "SegmentManifest"]
