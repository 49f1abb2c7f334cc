"""Spill backends: the out-of-core half of the container store.

The simulation keeps only container *metadata* (fingerprints + sizes) in
RAM, but at backup-store scale even that metadata outgrows memory —
thousands of sealed containers each holding tens of thousands of chunk
records. A spill backend is where a :class:`~repro.storage.store
.ContainerStore` with a ``resident_containers`` budget parks sealed
containers it evicts from RAM, and where reads fault them back from.

Two backends implement the same four-call protocol
(``put``/``get``/``delete``/``__contains__`` over encoded blobs):

* :class:`DirectorySpill` — one file per container under a spill
  directory: the real out-of-core store (used by ``--spill-dir`` and
  the memory probe).
* :class:`MemorySpill` — a dict of the same encoded blobs: the tmpfs
  shim tests and the chaos sweep use, so the full
  serialize/evict/fault-back cycle is exercised without touching the
  filesystem.

Spill IO is **real machine IO, never simulated IO**: it moves the
Python process's working set, not the modeled backup appliance's disk
head. No spill operation may charge the simulated
:class:`~repro.storage.disk.DiskModel` — that is what keeps the
twin-run contract (results byte-identical with spilling on or off).

The blob format is versioned and self-describing so the recovery
scanner can trust a spill directory that survived a crash::

    MAGIC(4s) | version(u16) | reserved(u16) | cid(i64) | n_chunks(u32)
    | fingerprints: n_chunks * u64 | sizes: n_chunks * u32
"""

from __future__ import annotations

import os
import struct
from pathlib import Path
from typing import Dict, Iterator, Optional

import numpy as np

from repro.storage.container import SealedContainer

__all__ = [
    "encode_container",
    "decode_container",
    "ContainerSpill",
    "MemorySpill",
    "DirectorySpill",
    "make_spill",
]

#: blob header: magic, format version, reserved, cid, n_chunks
_HEADER = struct.Struct("<4sHHqI")
_MAGIC = b"RCTN"
_VERSION = 1


def encode_container(sealed: SealedContainer) -> bytes:
    """Serialize a sealed container to its spill blob."""
    fps = np.ascontiguousarray(sealed.fingerprints, dtype=np.uint64)
    sizes = np.ascontiguousarray(sealed.sizes, dtype=np.uint32)
    header = _HEADER.pack(_MAGIC, _VERSION, 0, sealed.cid, len(fps))
    return header + fps.tobytes() + sizes.tobytes()


def decode_container(blob: bytes) -> SealedContainer:
    """Rebuild a sealed container from its spill blob.

    Raises:
        ValueError: on a foreign or truncated blob (a spill directory
            is durable state; corruption must fail loudly, not yield a
            silently short container).
    """
    if len(blob) < _HEADER.size:
        raise ValueError(f"spill blob truncated: {len(blob)} B < header")
    magic, version, _, cid, n = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise ValueError(f"not a container spill blob (magic {magic!r})")
    if version != _VERSION:
        raise ValueError(f"unsupported spill blob version {version}")
    want = _HEADER.size + n * 8 + n * 4
    if len(blob) != want:
        raise ValueError(f"spill blob for cid {cid}: {len(blob)} B != {want} B")
    off = _HEADER.size
    fps = np.frombuffer(blob, dtype=np.uint64, count=n, offset=off)
    sizes = np.frombuffer(blob, dtype=np.uint32, count=n, offset=off + n * 8)
    return SealedContainer(cid=int(cid), fingerprints=fps, sizes=sizes)


class ContainerSpill:
    """Protocol of a spill backend (blob-level; the store owns codecs)."""

    def put(self, cid: int, blob: bytes) -> None:
        raise NotImplementedError

    def get(self, cid: int) -> bytes:
        raise NotImplementedError

    def delete(self, cid: int) -> None:
        raise NotImplementedError

    def __contains__(self, cid: int) -> bool:
        raise NotImplementedError

    def cids(self) -> Iterator[int]:
        raise NotImplementedError


class MemorySpill(ContainerSpill):
    """Dict-backed spill: the in-memory tmpfs shim for tests and chaos.

    Holds the *encoded* blobs, so every spill/fault-back still round-
    trips the serialization — only the filesystem is elided. Like a
    durable disk, its contents survive a simulated power loss
    (:meth:`ContainerStore.crash` drops volatile state only).
    """

    def __init__(self) -> None:
        self._blobs: Dict[int, bytes] = {}

    def put(self, cid: int, blob: bytes) -> None:
        self._blobs[int(cid)] = blob

    def get(self, cid: int) -> bytes:
        return self._blobs[int(cid)]

    def delete(self, cid: int) -> None:
        self._blobs.pop(int(cid), None)

    def __contains__(self, cid: int) -> bool:
        return int(cid) in self._blobs

    def cids(self) -> Iterator[int]:
        return iter(sorted(self._blobs))

    def __len__(self) -> int:
        return len(self._blobs)


class DirectorySpill(ContainerSpill):
    """One ``<cid>.ctn`` file per container under a spill directory.

    Writes go to a temp name then rename into place, so a machine-level
    interruption leaves either the whole blob or nothing — the same
    all-or-nothing property the simulated commit marker gives sealed
    containers inside the model.
    """

    SUFFIX = ".ctn"

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)

    def _file(self, cid: int) -> Path:
        return self.path / f"{int(cid):012d}{self.SUFFIX}"

    def put(self, cid: int, blob: bytes) -> None:
        final = self._file(cid)
        tmp = final.with_suffix(".tmp")
        tmp.write_bytes(blob)
        os.replace(tmp, final)

    def get(self, cid: int) -> bytes:
        return self._file(cid).read_bytes()

    def delete(self, cid: int) -> None:
        try:
            self._file(cid).unlink()
        except FileNotFoundError:
            pass

    def __contains__(self, cid: int) -> bool:
        return self._file(cid).is_file()

    def cids(self) -> Iterator[int]:
        return iter(
            sorted(
                int(p.stem)
                for p in self.path.glob(f"*{self.SUFFIX}")
            )
        )


def make_spill(spill_dir: Optional[str]) -> ContainerSpill:
    """The backend a store config resolves to: a :class:`DirectorySpill`
    when a directory is named, the :class:`MemorySpill` shim otherwise."""
    if spill_dir is None:
        return MemorySpill()
    return DirectorySpill(spill_dir)
