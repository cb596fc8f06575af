"""On-disk columnar block format for stored tables.

A table file mirrors the in-memory :class:`~repro.physical.base.Chunk`
layout: the tuples of one relation, in their saved (typically clustered)
order, cut into fixed-size blocks.  Each block is stored column-major with
per-column **dictionary pages** — a column whose values are hashable is
encoded as integer codes into a table-wide value dictionary, exactly like
the PR 3 dictionary-encoded chunk format — so repeated values cost one
integer per occurrence.

File layout (format 2, magic ``RPROBLK2``)::

    MAGIC (8 bytes)
    header length (8 bytes, big-endian)
    header CRC32 (4 bytes, big-endian, over the pickled header)
    header (pickled dict: attributes, block index, dictionary pages,
            zone maps, per-block CRC32 checksums, statistics payload)
    block payloads, concatenated (offsets in the header are relative
    to the first payload byte)

Format-1 files (magic ``RPROBLK1``, no header CRC, no block checksums)
remain fully readable; the header CRC sits *before* the pickled header so
a torn header is rejected by checksum — never fed to ``pickle.loads`` —
and a corrupted format field cannot masquerade as the other version
(the magic, outside the checksummed region, picks the layout).  Block
payload checksums are verified on every read; a mismatch raises
:class:`~repro.errors.StorageCorruptionError` naming the file, block
number and expected-vs-actual CRC.  The ``storage.block_read`` fault
point (:mod:`repro.faults`) hooks each payload read.

Every block's header entry carries a per-attribute ``(min, max)`` **zone
map**, computed at save time; attributes whose block values are not
mutually comparable are simply omitted from that block's zones, which keeps
pruning conservative.  :func:`block_may_match` is the matching side: it
walks a predicate structurally and answers "could any tuple in a block with
these zones satisfy it?", defaulting to ``True`` whenever it cannot tell.

This module is deliberately free of optimizer/physical imports — the
statistics payload stays a plain dict here and is converted by
:mod:`repro.storage.store`.
"""

from __future__ import annotations

import os
import pickle
import zlib
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Sequence, Union

from repro.algebra.predicates import (
    And,
    AttributeRef,
    Comparison,
    FalsePredicate,
    Literal,
    Not,
    Or,
    Predicate,
    TruePredicate,
)
from repro.errors import StorageCorruptionError, StorageError
from repro.faults import registry as fault_registry

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "FORMAT_VERSION",
    "LEGACY_FORMAT_VERSION",
    "LEGACY_MAGIC",
    "MAGIC",
    "TableReader",
    "block_may_match",
    "block_zones",
    "build_dictionaries",
    "decode_block",
    "decode_columns",
    "encode_block",
    "write_table_file",
]

#: Format 1 (PR 8): no header CRC, no block checksums.  Still readable.
LEGACY_MAGIC = b"RPROBLK1"
LEGACY_FORMAT_VERSION = 1

MAGIC = b"RPROBLK2"
FORMAT_VERSION = 2

#: Tuples per block.  4096 aligned tuples keeps a block in the hundreds of
#: kilobytes for typical schemas — large enough that the per-block pickle
#: overhead vanishes, small enough that zone maps prune at useful
#: granularity on clustered tables.
DEFAULT_BLOCK_SIZE = 4096

_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: Keys every header must carry; a file missing one is malformed.
_HEADER_KEYS = ("format", "table", "attributes", "block_size", "tuple_count", "dictionaries", "blocks")

PathLike = Union[str, Path]


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------
def build_dictionaries(
    attributes: Sequence[str], tuples: Sequence[tuple[Any, ...]]
) -> dict[str, dict[Any, int]]:
    """Value → code mapping per dictionary-encodable column.

    A column qualifies when every value is hashable; columns with an
    unhashable value anywhere are stored raw.  Codes are assigned in first
    appearance order, so the page round-trips deterministically.
    """
    encodings: dict[str, dict[Any, int]] = {}
    for position, name in enumerate(attributes):
        mapping: dict[Any, int] = {}
        try:
            for values in tuples:
                value = values[position]
                if value not in mapping:
                    mapping[value] = len(mapping)
        except TypeError:
            continue
        encodings[name] = mapping
    return encodings


def encode_block(
    attributes: Sequence[str],
    tuples: Sequence[tuple[Any, ...]],
    encodings: dict[str, dict[Any, int]],
) -> bytes:
    """One block, column-major, dictionary codes where a page exists."""
    columns: list[list[Any]] = []
    for position, name in enumerate(attributes):
        mapping = encodings.get(name)
        if mapping is None:
            columns.append([values[position] for values in tuples])
        else:
            columns.append([mapping[values[position]] for values in tuples])
    return pickle.dumps(columns, protocol=_PROTOCOL)


def decode_columns(
    columns: Sequence[Sequence[Any]],
    attributes: Sequence[str],
    dictionaries: dict[str, list[Any]],
) -> list[tuple[Any, ...]]:
    """A block's stored columns (codes where a page exists) → aligned tuples."""
    decoded: list[Sequence[Any]] = []
    for name, column in zip(attributes, columns):
        page = dictionaries.get(name)
        if page is not None:
            column = [page[code] for code in column]
        decoded.append(column)
    return list(zip(*decoded))


def decode_block(
    payload: bytes,
    attributes: Sequence[str],
    dictionaries: dict[str, list[Any]],
) -> list[tuple[Any, ...]]:
    """Inverse of :func:`encode_block`: payload bytes → aligned tuples."""
    return decode_columns(pickle.loads(payload), attributes, dictionaries)


def block_zones(
    attributes: Sequence[str], tuples: Sequence[tuple[Any, ...]]
) -> dict[str, tuple[Any, Any]]:
    """Per-attribute ``(min, max)`` over one block.

    Attributes whose values are not mutually comparable (mixed types,
    ``None``) are omitted — absence means "no pruning", never wrong
    pruning.
    """
    zones: dict[str, tuple[Any, Any]] = {}
    for position, name in enumerate(attributes):
        column = [values[position] for values in tuples]
        try:
            zones[name] = (min(column), max(column))
        except (TypeError, ValueError):
            continue
    return zones


def write_table_file(
    path: PathLike,
    table: str,
    attributes: Sequence[str],
    tuples: Sequence[tuple[Any, ...]],
    block_size: int = DEFAULT_BLOCK_SIZE,
    statistics: Optional[dict[str, Any]] = None,
    checksums: bool = True,
    fsync: bool = True,
) -> Path:
    """Write one table to ``path`` in the block format described above.

    ``tuples`` are written in the order given — save a clustered relation
    and the zone maps become disjoint ranges that prune hard.

    ``checksums=False`` writes the legacy format-1 layout (no header CRC,
    no per-block checksums) — kept as the no-overhead baseline for the
    ``--faults`` benchmark gate and to exercise the legacy read path;
    ``fsync=False`` skips the flush-to-disk barrier (spill-grade scratch
    data that never outlives the process).
    """
    if block_size < 1:
        raise StorageError(f"block size must be at least 1, got {block_size}")
    attributes = tuple(attributes)
    encodings = build_dictionaries(attributes, tuples)
    payloads: list[bytes] = []
    index: list[dict[str, Any]] = []
    offset = 0
    for start in range(0, len(tuples), block_size):
        block = tuples[start : start + block_size]
        payload = encode_block(attributes, block, encodings)
        entry = {
            "offset": offset,
            "length": len(payload),
            "count": len(block),
            "zones": block_zones(attributes, block),
        }
        if checksums:
            entry["crc"] = zlib.crc32(payload)
        index.append(entry)
        payloads.append(payload)
        offset += len(payload)
    header = {
        "format": FORMAT_VERSION if checksums else LEGACY_FORMAT_VERSION,
        "table": table,
        "attributes": attributes,
        "block_size": block_size,
        "tuple_count": len(tuples),
        "dictionaries": {name: list(mapping) for name, mapping in encodings.items()},
        "blocks": index,
        "statistics": statistics,
    }
    header_bytes = pickle.dumps(header, protocol=_PROTOCOL)
    path = Path(path)
    with open(path, "wb") as stream:
        stream.write(MAGIC if checksums else LEGACY_MAGIC)
        stream.write(len(header_bytes).to_bytes(8, "big"))
        if checksums:
            stream.write(zlib.crc32(header_bytes).to_bytes(4, "big"))
        stream.write(header_bytes)
        for payload in payloads:
            stream.write(payload)
        if fsync:
            stream.flush()
            os.fsync(stream.fileno())
    return path


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------
class TableReader:
    """Metadata-first reader for one table file.

    Construction reads only the header (attributes, block index, zone
    maps, dictionary pages, statistics payload); block payloads are
    decoded on demand by :meth:`iter_blocks` / :meth:`read_block`.
    """

    __slots__ = ("_path", "_header", "_data_start", "_format_version")

    def __init__(self, path: PathLike) -> None:
        self._path = Path(path)
        try:
            with open(self._path, "rb") as stream:
                magic = stream.read(len(MAGIC))
                if magic == MAGIC:
                    version = FORMAT_VERSION
                elif magic == LEGACY_MAGIC:
                    version = LEGACY_FORMAT_VERSION
                else:
                    raise StorageError(f"{self._path} is not a stored table file (bad magic)")
                header_length = int.from_bytes(stream.read(8), "big")
                expected_crc: Optional[int] = None
                if version == FORMAT_VERSION:
                    crc_bytes = stream.read(4)
                    if len(crc_bytes) != 4:
                        raise StorageError(f"{self._path} is truncated (header incomplete)")
                    expected_crc = int.from_bytes(crc_bytes, "big")
                header_bytes = stream.read(header_length)
                if len(header_bytes) != header_length:
                    raise StorageError(f"{self._path} is truncated (header incomplete)")
                if expected_crc is not None:
                    # Verified *before* unpickling: a torn header never
                    # reaches pickle.loads, and the error names the CRCs.
                    actual_crc = zlib.crc32(header_bytes)
                    if actual_crc != expected_crc:
                        raise StorageCorruptionError(
                            f"{self._path} header checksum mismatch "
                            f"(expected {expected_crc:#010x}, got {actual_crc:#010x})",
                            file=str(self._path),
                            expected=expected_crc,
                            actual=actual_crc,
                        )
                try:
                    header = pickle.loads(header_bytes)
                except Exception as error:
                    raise StorageError(f"{self._path} has an unreadable header: {error}") from None
                self._data_start = (
                    len(MAGIC) + 8 + (4 if expected_crc is not None else 0) + header_length
                )
        except OSError as error:
            raise StorageError(f"cannot open stored table file {self._path}: {error}") from None
        if not isinstance(header, dict) or any(key not in header for key in _HEADER_KEYS):
            raise StorageError(f"{self._path} has a malformed header")
        if header["format"] != version:
            raise StorageError(
                f"{self._path} declares format version {header['format']}, "
                f"but its magic says {version}"
            )
        self._format_version = version
        self._header = header

    # -- metadata (no block reads) -------------------------------------
    @property
    def path(self) -> Path:
        return self._path

    @property
    def format_version(self) -> int:
        """1 for legacy checksum-free files, 2 for checksummed files."""
        return self._format_version

    @property
    def table(self) -> str:
        return self._header["table"]

    @property
    def attributes(self) -> tuple[str, ...]:
        return tuple(self._header["attributes"])

    @property
    def tuple_count(self) -> int:
        return self._header["tuple_count"]

    @property
    def block_size(self) -> int:
        return self._header["block_size"]

    @property
    def blocks(self) -> list[dict[str, Any]]:
        """The block index: offset/length/count/zones per block."""
        return self._header["blocks"]

    @property
    def dictionaries(self) -> dict[str, list[Any]]:
        return self._header["dictionaries"]

    @property
    def statistics_payload(self) -> Optional[dict[str, Any]]:
        return self._header.get("statistics")

    # -- block access ---------------------------------------------------
    def read_block(self, meta: dict[str, Any]) -> list[tuple[Any, ...]]:
        """Decode one block given its index entry."""
        with open(self._path, "rb") as stream:
            stream.seek(self._data_start + meta["offset"])
            payload = stream.read(meta["length"])
        return self._tuples(self._columns(meta, payload))

    def _columns(self, meta: dict[str, Any], payload: bytes) -> list[list[Any]]:
        """Verify one block payload and unpickle its stored columns."""
        payload = fault_registry.fire("storage.block_read", payload)
        if len(payload) != meta["length"]:
            raise StorageError(f"{self._path} is truncated (block payload incomplete)")
        expected = meta.get("crc")
        if expected is not None:
            actual = zlib.crc32(payload)
            if actual != expected:
                block = self._block_number(meta)
                raise StorageCorruptionError(
                    f"{self._path} block {block} checksum mismatch "
                    f"(expected {expected:#010x}, got {actual:#010x})",
                    file=str(self._path),
                    block=block,
                    expected=expected,
                    actual=actual,
                )
        try:
            columns = pickle.loads(payload)
        except Exception as error:
            raise StorageError(f"{self._path} has an unreadable block: {error}") from None
        width = len(self._header["attributes"])
        if not isinstance(columns, list) or len(columns) != width:
            raise StorageError(f"{self._path} has an unreadable block: not {width} columns")
        return columns

    def _tuples(self, columns: list[list[Any]]) -> list[tuple[Any, ...]]:
        try:
            return decode_columns(columns, self.attributes, self.dictionaries)
        except Exception as error:
            raise StorageError(f"{self._path} has an unreadable block: {error}") from None

    def _block_number(self, meta: dict[str, Any]) -> Optional[int]:
        """Zero-based index of ``meta`` in the block index (error paths)."""
        for number, entry in enumerate(self.blocks):
            if entry is meta:
                return number
        return None

    def iter_block_columns(
        self, should_read: Optional[Callable[[dict[str, Any]], bool]] = None
    ) -> Iterator[tuple[dict[str, Any], list[list[Any]]]]:
        """Yield ``(index_entry, stored columns)`` per block, in file order.

        The columns come back as stored — column-major, integer codes into
        :attr:`dictionaries` wherever a page exists, raw values otherwise —
        verified (length, CRC) but not decoded.  ``should_read`` sees each
        index entry (with its zone maps) before the payload is touched;
        returning ``False`` skips the block without any disk read beyond
        the already-loaded header.
        """
        with open(self._path, "rb") as stream:
            for meta in self.blocks:
                if should_read is not None and not should_read(meta):
                    continue
                stream.seek(self._data_start + meta["offset"])
                payload = stream.read(meta["length"])
                yield meta, self._columns(meta, payload)

    def iter_blocks(
        self, should_read: Optional[Callable[[dict[str, Any]], bool]] = None
    ) -> Iterator[tuple[dict[str, Any], list[tuple[Any, ...]]]]:
        """Yield ``(index_entry, tuples)`` per block: the decoded view of
        :meth:`iter_block_columns`."""
        for meta, columns in self.iter_block_columns(should_read):
            yield meta, self._tuples(columns)

    def sample_tuples(self, limit: int) -> list[tuple[Any, ...]]:
        """Up to ``limit`` tuples from the leading blocks (for type checks)."""
        sample: list[tuple[Any, ...]] = []
        for _meta, block in self.iter_blocks():
            sample.extend(block[: limit - len(sample)])
            if len(sample) >= limit:
                break
        return sample


# ----------------------------------------------------------------------
# zone-map matching
# ----------------------------------------------------------------------
def block_may_match(predicate: Predicate, zones: dict[str, tuple[Any, Any]]) -> bool:
    """Could any tuple in a block with these zone maps satisfy ``predicate``?

    Structural and conservative: unknown predicate shapes, missing zones
    and incomparable values all answer ``True`` (read the block); only a
    provably empty match answers ``False`` (skip it).
    """
    if isinstance(predicate, TruePredicate):
        return True
    if isinstance(predicate, FalsePredicate):
        return False
    if isinstance(predicate, And):
        return all(block_may_match(operand, zones) for operand in predicate.operands)
    if isinstance(predicate, Or):
        return any(block_may_match(operand, zones) for operand in predicate.operands)
    if isinstance(predicate, Not):
        return block_may_match(predicate.operand.negate(), zones)
    if isinstance(predicate, Comparison):
        return _comparison_may_match(predicate, zones)
    return True


_MIRRORED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}


def _comparison_may_match(predicate: Comparison, zones: dict[str, tuple[Any, Any]]) -> bool:
    left, right = predicate.left, predicate.right
    operator = predicate.operator
    if isinstance(left, AttributeRef) and isinstance(right, Literal):
        attribute, value = left.name, right.value
    elif isinstance(left, Literal) and isinstance(right, AttributeRef):
        attribute, value = right.name, left.value
        operator = _MIRRORED[operator]
    else:
        return True
    bounds = zones.get(attribute)
    if bounds is None:
        return True
    low, high = bounds
    try:
        if operator == "=":
            return low <= value <= high
        if operator == "!=":
            return not (low == high == value)
        if operator == "<":
            return low < value
        if operator == "<=":
            return low <= value
        if operator == ">":
            return high > value
        if operator == ">=":
            return high >= value
    except TypeError:
        return True
    return True
