"""Spill-to-disk partitions for the hash-partition exchange.

When an exchange runs under a memory budget
(``connect(memory_budget_mb=...)``), buffered partitions that outgrow it
are flushed to per-partition spill files and the task builders receive a
:class:`SpilledPartition` handle instead of an in-memory tuple list.  The
handle is picklable (it ships to pool workers), sized (``len``/``bool``
behave like the list they replace), and streams its tuples back block by
block — a worker re-reading a spilled partition never holds more than one
block of it in memory.

Spill files reuse the stored-table codec's raw-page branch
(:func:`repro.storage.format.encode_raw_page` — one page per block of
:data:`SPILL_BLOCK_TUPLES` tuples, column-major): spills are written
mid-stream, before any table-wide value dictionary could exist, so there
are no code pages.

Every spill block carries a CRC32, verified on re-read: a spill file a
worker re-streams is the *only* copy of that partition's data, so a torn
or bit-flipped block must surface as a typed
:class:`~repro.errors.StorageCorruptionError` rather than wrong tuples.
A full disk mid-write raises :class:`~repro.errors.StorageError` from
:meth:`SpillWriter.append` (the exchange aborts the writer and the
operator tears the spill directory down), and the ``spill.write`` /
``spill.read`` fault points (:mod:`repro.faults`) hook both directions.
"""

from __future__ import annotations

import zlib
from pathlib import Path
from typing import Any, Iterator, Sequence

from repro.errors import StorageCorruptionError, StorageError
from repro.faults import registry as fault_registry
from repro.storage.format import PathLike, decode_raw_page, encode_raw_page

__all__ = ["SPILL_BLOCK_TUPLES", "SpillWriter", "SpilledPartition"]

#: Tuples per spill block — the unit the peak-buffered-blocks counters and
#: the re-streaming granularity are measured in.
SPILL_BLOCK_TUPLES = 4096

#: Block index entry: (offset, payload length, tuple count, payload CRC32).
BlockEntry = tuple[int, int, int, int]


class SpillWriter:
    """Append-only writer for one partition's spill file."""

    __slots__ = ("path", "attributes", "_stream", "_blocks", "tuple_count")

    def __init__(self, directory: PathLike, label: str, attributes: Sequence[str]) -> None:
        self.path = Path(directory) / f"{label}.spill"
        self.attributes = tuple(attributes)
        try:
            self._stream = open(self.path, "wb")
        except OSError as error:
            raise StorageError(f"cannot create spill file {self.path}: {error}") from None
        self._blocks: list[BlockEntry] = []
        self.tuple_count = 0

    @property
    def spilled_blocks(self) -> int:
        return len(self._blocks)

    def append(self, tuples: Sequence[tuple[Any, ...]]) -> None:
        """Write one block of aligned tuples (at most the caller's slice).

        A failed write (disk full, quota, revoked mount) raises a typed
        :class:`StorageError`; the file is in an undefined state after
        that, so callers must :meth:`abort` the writer, never
        :meth:`finish` it.
        """
        if not tuples:
            return
        payload = encode_raw_page(zip(*tuples))
        # The checksum is taken before the fault point so an injected
        # corruption of the bytes that reach disk is caught on re-read.
        crc = zlib.crc32(payload)
        payload = fault_registry.fire("spill.write", payload)
        try:
            offset = self._stream.tell()
            self._stream.write(payload)
        except OSError as error:
            raise StorageError(
                f"cannot write spill file {self.path} (disk full?): {error}"
            ) from None
        self._blocks.append((offset, len(payload), len(tuples), crc))
        self.tuple_count += len(tuples)

    def spill(self, tuples: Sequence[tuple[Any, ...]]) -> None:
        """Write a buffered partition, sliced into spill blocks."""
        for start in range(0, len(tuples), SPILL_BLOCK_TUPLES):
            self.append(tuples[start : start + SPILL_BLOCK_TUPLES])

    def finish(self) -> "SpilledPartition":
        """Close the file and return the re-streamable handle."""
        self._stream.close()
        return SpilledPartition(str(self.path), self.attributes, tuple(self._blocks))

    def abort(self) -> None:
        """Close and delete a half-written spill file (error unwind)."""
        try:
            self._stream.close()
        except OSError:
            pass
        try:
            self.path.unlink()
        except OSError:
            pass


class SpilledPartition:
    """A picklable, sized, block-streaming handle to one spilled partition.

    Drop-in for the in-memory tuple list a bucket would otherwise be: the
    task builders' ``len(bucket)`` / ``if bucket`` checks work unchanged,
    and :class:`~repro.physical.parallel.exchange.PartitionSource` streams
    :meth:`iter_blocks` instead of slicing a list.
    """

    __slots__ = ("path", "attributes", "blocks", "_count")

    def __init__(
        self,
        path: str,
        attributes: tuple[str, ...],
        blocks: tuple[BlockEntry, ...],
    ) -> None:
        self.path = path
        self.attributes = attributes
        self.blocks = blocks
        self._count = sum(entry[2] for entry in blocks)

    def __reduce__(self):
        return (SpilledPartition, (self.path, self.attributes, self.blocks))

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def __repr__(self) -> str:
        return (
            f"<SpilledPartition {self.path} {self._count} tuples "
            f"in {len(self.blocks)} block(s)>"
        )

    def iter_blocks(self) -> Iterator[list[tuple[Any, ...]]]:
        """Stream the spilled tuples back, one checksummed block at a time."""
        if not self.blocks:
            return
        try:
            with open(self.path, "rb") as stream:
                for number, (offset, length, _count, expected) in enumerate(self.blocks):
                    stream.seek(offset)
                    payload = stream.read(length)
                    payload = fault_registry.fire("spill.read", payload)
                    actual = zlib.crc32(payload)
                    if len(payload) != length or actual != expected:
                        raise StorageCorruptionError(
                            f"spill file {self.path} block {number} checksum mismatch "
                            f"(expected {expected:#010x}, got {actual:#010x})",
                            file=self.path,
                            block=number,
                            expected=expected,
                            actual=actual,
                        )
                    try:
                        columns = decode_raw_page(payload, len(self.attributes))
                    except ValueError as error:
                        raise StorageError(
                            f"spill file {self.path} block {number} is unreadable: {error}"
                        ) from None
                    yield list(zip(*columns))
        except OSError as error:
            raise StorageError(f"cannot read spill file {self.path}: {error}") from None

    def read_all(self) -> list[tuple[Any, ...]]:
        """Materialize the whole partition (tests and small consumers)."""
        return [values for block in self.iter_blocks() for values in block]
