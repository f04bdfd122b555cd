"""Content-addressed disk cache for computed artifacts.

Entries are keyed by a semantic key string; the file name is the SHA-256 of
the key.  Polynomials (the word traces) are stored as packed binary entries,
PackedPoly.to_bytes with a versioned header, and structured results as JSON.
Text polynomial entries written by earlier versions (extension .poly) are
never read.  Every entry has a sidecar holding the SHA-256 of the file
bytes.  A missing entry or sidecar is a miss; a checksum mismatch or an
entry that does not decode (for a polynomial, anything PackedPoly.from_bytes
rejects: bad header, wrong length, unsorted keys, zero coefficients,
den <= 0) is a miss counted as corrupt.  Either way the caller recomputes.
Writes are atomic via rename, concurrent writers follow last-writer-wins.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path

from .packedpoly import PackedPoly

# packed binary polynomials; text entries used .poly
_POLY_EXT = ".ppoly"


def _digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_text(text: str) -> str:
    return _digest_bytes(text.encode())


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    writes: int = 0


@dataclass
class CacheStore:
    root: Path
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()

    def _path(self, key: str, ext: str) -> Path:
        return self.root / (digest_text(key)[:40] + ext)

    # -- raw entries --------------------------------------------------------

    def _read(self, path: Path, decode):
        """decode(bytes) of a checksummed entry, None on a miss.  A checksum
        mismatch or a decode error (ValueError) counts as corrupt."""
        side = path.with_suffix(path.suffix + ".sha256")
        try:
            data = path.read_bytes()
            want = side.read_text().strip()
        except OSError:
            with self._lock:
                self.stats.misses += 1
            return None
        try:
            if _digest_bytes(data) != want:
                raise ValueError("checksum mismatch")
            value = decode(data)
        except ValueError:
            with self._lock:
                self.stats.corrupt += 1
                self.stats.misses += 1
            return None
        with self._lock:
            self.stats.hits += 1
        return value

    def _write(self, path: Path, data: bytes) -> None:
        side = path.with_suffix(path.suffix + ".sha256")
        for target, payload in ((path, data), (side, _digest_bytes(data).encode())):
            fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".tmp-")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(payload)
                os.replace(tmp, target)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        with self._lock:
            self.stats.writes += 1

    # -- typed entries ------------------------------------------------------

    def get_poly(self, key: str) -> PackedPoly | None:
        return self._read(self._path(key, _POLY_EXT), PackedPoly.from_bytes)

    def put_poly(self, key: str, poly: PackedPoly) -> None:
        self._write(self._path(key, _POLY_EXT), poly.to_bytes())

    def get_json(self, key: str):
        return self._read(self._path(key, ".json"), lambda data: json.loads(data.decode()))

    def put_json(self, key: str, obj) -> None:
        text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
        self._write(self._path(key, ".json"), text.encode())
