"""Content-addressed instruction cache with delta uploads.

Task instructions bundle user code plus datasets and third-party
dependencies, so naive re-upload on every submission moves gigabytes that
did not change.  The compiler layer instead chunks every file, addresses
chunks by SHA-256, and uploads **only the chunks the cluster-side store has
never seen** — resubmitting after a one-line code edit moves a few KB
instead of the whole workspace (experiment T4 measures the savings).

The store here is the cluster-side component; :class:`UploadReport`
captures what one submission actually transferred.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from ..errors import CacheError

DEFAULT_CHUNK_BYTES = 1 << 22  # 4 MiB


def chunk_bytes(data: bytes, chunk_size: int = DEFAULT_CHUNK_BYTES) -> Iterator[bytes]:
    """Split *data* into fixed-size chunks (last one may be short).

    Empty input yields a single empty chunk so empty files still have a
    manifest entry and identity.
    """
    if chunk_size <= 0:
        raise CacheError(f"chunk_size must be positive, got {chunk_size}")
    if not data:
        yield b""
        return
    for offset in range(0, len(data), chunk_size):
        yield data[offset : offset + chunk_size]


def chunk_id(chunk: bytes) -> str:
    return hashlib.sha256(chunk).hexdigest()


@dataclass(frozen=True)
class FileManifest:
    """Chunk-level identity of one file."""

    path: str
    size_bytes: int
    chunk_ids: tuple[str, ...]


@dataclass(frozen=True)
class WorkspaceManifest:
    """Chunk-level identity of a whole task workspace."""

    files: tuple[FileManifest, ...]

    @property
    def total_bytes(self) -> int:
        return sum(f.size_bytes for f in self.files)

    def all_chunk_ids(self) -> set[str]:
        ids: set[str] = set()
        for file in self.files:
            ids.update(file.chunk_ids)
        return ids


@dataclass(frozen=True)
class UploadReport:
    """What one submission transferred vs. what it described."""

    total_bytes: int
    uploaded_bytes: int
    total_chunks: int
    uploaded_chunks: int

    @property
    def hit_rate(self) -> float:
        """Fraction of chunks already present on the cluster side."""
        if self.total_chunks == 0:
            return 1.0
        return 1.0 - self.uploaded_chunks / self.total_chunks

    @property
    def dedup_factor(self) -> float:
        """How many times less data moved than a naive full upload."""
        if self.uploaded_bytes == 0:
            return float("inf") if self.total_bytes else 1.0
        return self.total_bytes / self.uploaded_bytes


@dataclass
class ChunkStore:
    """The cluster-side content-addressed store."""

    chunk_size: int = DEFAULT_CHUNK_BYTES
    _chunks: dict[str, bytes] = field(default_factory=dict)
    uploads: int = 0
    uploaded_bytes_total: int = 0

    def __post_init__(self) -> None:
        if self.chunk_size <= 0:
            raise CacheError(f"chunk_size must be positive, got {self.chunk_size}")

    def __contains__(self, identifier: str) -> bool:
        return identifier in self._chunks

    def __len__(self) -> int:
        return len(self._chunks)

    @property
    def stored_bytes(self) -> int:
        return sum(len(chunk) for chunk in self._chunks.values())

    def manifest_for(self, workspace: Mapping[str, bytes]) -> WorkspaceManifest:
        """Chunk a workspace (``{path: content}``) into a manifest."""
        files = []
        for path in sorted(workspace):
            data = workspace[path]
            ids = tuple(chunk_id(chunk) for chunk in chunk_bytes(data, self.chunk_size))
            files.append(FileManifest(path=path, size_bytes=len(data), chunk_ids=ids))
        return WorkspaceManifest(files=tuple(files))

    def upload(self, workspace: Mapping[str, bytes]) -> tuple[WorkspaceManifest, UploadReport]:
        """Ingest a workspace, transferring only unseen chunks."""
        manifest = self.manifest_for(workspace)
        total_chunks = 0
        uploaded_chunks = 0
        uploaded_bytes = 0
        for path in sorted(workspace):
            data = workspace[path]
            for chunk in chunk_bytes(data, self.chunk_size):
                total_chunks += 1
                identifier = chunk_id(chunk)
                if identifier not in self._chunks:
                    self._chunks[identifier] = chunk
                    uploaded_chunks += 1
                    uploaded_bytes += len(chunk)
        report = UploadReport(
            total_bytes=manifest.total_bytes,
            uploaded_bytes=uploaded_bytes,
            total_chunks=total_chunks,
            uploaded_chunks=uploaded_chunks,
        )
        self.uploads += 1
        self.uploaded_bytes_total += uploaded_bytes
        return manifest, report

    def materialize(self, manifest: WorkspaceManifest) -> dict[str, bytes]:
        """Reassemble a workspace from a manifest (execution-side).

        Raises :class:`CacheError` if any chunk is missing — an instruction
        must never be executable with incomplete content.
        """
        workspace: dict[str, bytes] = {}
        for file in manifest.files:
            parts = []
            for identifier in file.chunk_ids:
                chunk = self._chunks.get(identifier)
                if chunk is None:
                    raise CacheError(
                        f"chunk {identifier[:12]}… of {file.path} missing from store"
                    )
                parts.append(chunk)
            data = b"".join(parts)
            if len(data) != file.size_bytes:
                raise CacheError(
                    f"reassembled {file.path} is {len(data)} bytes, "
                    f"manifest says {file.size_bytes}"
                )
            workspace[file.path] = data
        return workspace

    def gc(self, live_manifests: list[WorkspaceManifest]) -> int:
        """Drop chunks unreferenced by *live_manifests*; returns bytes freed."""
        live: set[str] = set()
        for manifest in live_manifests:
            live |= manifest.all_chunk_ids()
        dead = [identifier for identifier in self._chunks if identifier not in live]
        freed = 0
        for identifier in dead:
            freed += len(self._chunks.pop(identifier))
        return freed
