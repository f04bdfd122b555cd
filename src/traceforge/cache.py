"""Content-addressed disk cache for computed artifacts.

Entries are keyed by a semantic key string; each entry is one file, named
by the SHA-256 of the key with the extension .entry.  The file is a fixed
40-byte header (the magic b"TFCE", the format version as a little-endian
uint32, and the SHA-256 of the payload) followed by the payload:
PackedPoly.to_bytes for a polynomial (the word traces), each to_bytes after
its length as a little-endian uint64 for a list of polynomials (the 30
generator evaluations), the JSON text for a structured result.  A read
checks the header before it decodes.  Files of earlier layouts (an entry
plus a .sha256 sidecar, under .poly, .ppoly or .json) sit at paths this
store never opens, so they read as plain misses.  A missing entry is a
miss; a bad header, a checksum mismatch or a payload that does not decode
(for a polynomial, anything PackedPoly.from_bytes rejects: bad header,
wrong length, unsorted keys, zero coefficients, den <= 0; for a list, also
a length that overruns the payload or another count of polynomials) is a
miss counted as corrupt.  Either way the
caller recomputes.  Each write replaces its one file atomically via rename,
so an entry and its checksum change together; concurrent writers follow
last-writer-wins.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
import threading
from contextlib import suppress
from pathlib import Path

from .packedpoly import PackedPoly

# magic and format version; the header ends with the payload's SHA-256
_MAGIC_VERSION = b"TFCE" + (1).to_bytes(4, "little")
_HEADER_SIZE = len(_MAGIC_VERSION) + 32
# the length of each polynomial of a put_polys entry, little-endian
_LENGTH = struct.Struct("<Q")


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class CacheStats:
    """Counters of one CacheStore."""

    def __init__(self) -> None:
        self.hits = self.misses = self.corrupt = self.writes = 0


class CacheStore:
    """The entries under one directory, created if missing."""

    def __init__(self, root: Path | str) -> None:
        self.root = root
        self.stats = CacheStats()
        self.__post_init__()

    def __post_init__(self) -> None:
        # set-up of every new store, kept apart from __init__:
        # bench/tracer.py wraps it to count the stores a run creates
        self.root = Path(self.root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()

    def _path(self, key: str) -> Path:
        return self.root / (digest_text(key)[:40] + ".entry")

    # -- raw entries --------------------------------------------------------

    def _read(self, key: str, decode):
        """decode(payload) of the entry under key, None on a miss.  A bad
        header, a checksum mismatch or a decode error (ValueError) counts
        as corrupt."""
        try:
            data = self._path(key).read_bytes()
        except OSError:
            with self._lock:
                self.stats.misses += 1
            return None
        payload = memoryview(data)[_HEADER_SIZE:]
        try:
            if data[:_HEADER_SIZE] != _MAGIC_VERSION + hashlib.sha256(payload).digest():
                raise ValueError("bad header or checksum")
            value = decode(payload)
        except ValueError:
            with self._lock:
                self.stats.corrupt += 1
                self.stats.misses += 1
            return None
        with self._lock:
            self.stats.hits += 1
        return value

    def _write(self, key: str, payload: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(_MAGIC_VERSION + hashlib.sha256(payload).digest())
                fh.write(payload)
            os.replace(tmp, self._path(key))
        except BaseException:
            with suppress(OSError):
                os.unlink(tmp)
            raise
        with self._lock:
            self.stats.writes += 1

    # -- typed entries ------------------------------------------------------

    def get_poly(self, key: str) -> PackedPoly | None:
        return self._read(key, PackedPoly.from_bytes)

    def put_poly(self, key: str, poly: PackedPoly) -> None:
        self._write(key, poly.to_bytes())

    def get_polys(self, key: str, count: int) -> list[PackedPoly] | None:
        """The count polynomials of one put_polys entry; an entry of any
        other count is corrupt."""

        def decode(payload: memoryview) -> list[PackedPoly]:
            polys, at = [], 0
            while at < len(payload):
                if at + _LENGTH.size > len(payload):
                    raise ValueError("truncated length")
                (n,) = _LENGTH.unpack_from(payload, at)
                at += _LENGTH.size
                if at + n > len(payload):
                    raise ValueError("truncated polynomial")
                polys.append(PackedPoly.from_bytes(bytes(payload[at : at + n])))
                at += n
            if len(polys) != count:
                raise ValueError(f"{len(polys)} polynomials, not {count}")
            return polys

        return self._read(key, decode)

    def put_polys(self, key: str, polys: list[PackedPoly]) -> None:
        """Several polynomials as one entry: each PackedPoly.to_bytes after
        its length."""
        parts = [poly.to_bytes() for poly in polys]
        self._write(key, b"".join(_LENGTH.pack(len(p)) + p for p in parts))

    def get_json(self, key: str):
        return self._read(key, lambda payload: json.loads(str(payload, "utf-8")))

    def put_json(self, key: str, obj) -> None:
        text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
        self._write(key, text.encode())
