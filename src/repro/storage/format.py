"""On-disk columnar block format for stored tables.

A table file mirrors the in-memory :class:`~repro.physical.base.Chunk`
layout: the tuples of one relation, in their saved (typically clustered)
order, cut into fixed-size blocks, each stored column-major as one **column
page** per attribute.  A column whose values all hash has a table-wide
**dictionary page** in the header and *code pages*: the raw little-endian
bytes of the block's dictionary codes in the narrowest unsigned type that
holds the dictionary (1, 2 or 4 bytes a tuple,
:func:`repro.relation.encoding.narrow_codes`), read back with one
``frombuffer`` and no Python object per value.  Any other column has *raw
pages*: the pickled list of the block's values.

File layout (format 3, magic ``RPROBLK3``; older magics are refused with a
typed error — every store is re-written by the version that reads it)::

    MAGIC (8 bytes)
    header length (8 bytes, big-endian)
    header CRC32 (4 bytes, big-endian, over the pickled header)
    header (pickled dict: attributes, dictionary pages, statistics
            payload, block index)
    block payloads, concatenated (offsets relative to the first one)
    summary section (optional; absent, the file ends at the last payload)

    block payload = column page 0 | column page 1 | …
    block index entry = offset, length, count, pages (byte length of each
                        column page), zones, crc
    summary section = SUMMARY_MAGIC (8 bytes) | body length (8 bytes,
                      big-endian) | body CRC32 (4 bytes, big-endian) | body
    body = n | n × (a, b, rows, words) | the bitmaps' words, in that order
           (every number a little-endian uint64)

The **summary section** carries what a division reads instead of a
dividend's blocks: containment bitmaps (value-major bitmap indexes — per
entry of column ``b``'s dictionary page, a row of ``words`` little-endian
``uint64`` words whose bit ``i`` is set iff a tuple holds candidate ``i``
of column ``a``'s page and that value).  The rows index the file's own
dictionary pages, so a bitmap always describes the blocks beside it.  It
sits after the payloads, found from the block index's payload end, so the
header is the same with or without it, and files without one (every file
written before it existed, or by a save that held no bitmap) read as they
always have.  :meth:`TableReader.summary_section` reads it once and checks
its CRC before using a byte.

The header CRC sits *before* the pickled header, so a torn header never
reaches ``pickle.loads``.  Every read verifies its payload: a CRC mismatch
raises :class:`~repro.errors.StorageCorruptionError` (file, block,
expected-vs-actual CRC), and a checksum-valid page of the wrong length or
with a code outside its dictionary (a foreign writer) raises
:class:`~repro.errors.StorageError` the same way — never an ``IndexError``
in a kernel later; so does a checksum-valid summary section whose
directory does not fit the dictionary pages.  Code pages are verified at
their narrow width, in place; only a reader that keeps ``int32`` code
buffers widens them.  ``checksums=False`` leaves the block CRCs out (the
control arm of the ``--faults`` benchmark gate).  The ``storage.block_read``
fault point (:mod:`repro.faults`) hooks each payload read and the summary
section's.

A block's index entry carries per-attribute ``(min, max)`` **zone maps**
taken from its *distinct* codes; an attribute whose block values are not
mutually comparable gets none, which keeps pruning conservative.
:func:`block_may_match` answers "could any tuple in a block with these
zones satisfy this predicate?", ``True`` whenever it cannot tell.

Writing has two steps: :func:`encode_blocks` turns a block's columns into
its payload and index entry (pages, zone maps), and
:func:`assemble_table_file` writes the header, the payloads and the fsync.
:func:`write_table_file` is the two in a row.  A re-save of a stored table
at its own block size skips the first: the source's payloads, verified as
any read verifies them (:meth:`TableReader.iter_block_payloads`), go to
the new file as they are, their zone maps and CRCs reused — the file is
byte for byte the one an encode would write — and a header equal to the
source's is written as the source's bytes, not pickled again.

Free of optimizer/physical imports: the statistics payload stays a plain
dict here and is converted by :mod:`repro.storage.store`.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

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
from repro.relation.encoding import (
    CodeColumn,
    code_width,
    empty_codes,
    narrow_codes,
    narrow_view,
    sets_padding,
)

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "FORMAT_VERSION",
    "MAGIC",
    "SUMMARY_MAGIC",
    "EncodedBlock",
    "TableReader",
    "assemble_table_file",
    "block_may_match",
    "block_zones",
    "column_blocks",
    "decode_columns",
    "decode_raw_page",
    "encode_blocks",
    "encode_raw_page",
    "encode_summaries",
    "write_table_file",
]

MAGIC = b"RPROBLK3"
FORMAT_VERSION = 3

#: Opens a table file's optional summary section (after the last payload).
SUMMARY_MAGIC = b"RPROSUM1"

#: The section's frame before its body: magic, body length, body CRC32.
_SUMMARY_FRAME = len(SUMMARY_MAGIC) + 8 + 4

#: Magics of the formats this one replaced; recognized only to say so.
_OLDER_MAGICS = {b"RPROBLK1": 1, b"RPROBLK2": 2}

#: Tuples per block.  4096 tuples keep a code page at 4–16 KB — large enough
#: that the per-block index entry vanishes, small enough that zone maps
#: prune at useful granularity on clustered tables.
DEFAULT_BLOCK_SIZE = 4096

_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: Keys every header must carry; a file missing one is malformed.
_HEADER_KEYS = ("format", "table", "attributes", "block_size", "tuple_count", "dictionaries", "blocks")

PathLike = Union[str, Path]

#: One block: per attribute a code buffer, or (raw column) its value list.
Columns = Sequence[Any]


# ----------------------------------------------------------------------
# pages
# ----------------------------------------------------------------------
def encode_raw_page(values: Iterable[Any]) -> bytes:
    """A raw page: the pickled list of ``values`` (no dictionary exists)."""
    return pickle.dumps(list(values), protocol=_PROTOCOL)


def decode_raw_page(payload: bytes, count: int) -> list[Any]:
    """Inverse of :func:`encode_raw_page`; ``ValueError`` unless the bytes
    unpickle to a list of ``count`` entries."""
    try:
        values = pickle.loads(payload)
    except Exception as error:
        raise ValueError(f"raw page does not unpickle: {error}") from None
    if not isinstance(values, list) or len(values) != count:
        raise ValueError(f"raw page is not a list of {count} entries")
    return values


def column_blocks(columns: Columns, block_size: int) -> Iterator[Columns]:
    """Whole-table columns (code buffers / value lists) cut into blocks."""
    for start in range(0, len(columns[0]) if columns else 0, block_size):
        yield [column[start : start + block_size] for column in columns]


def decode_columns(columns: Columns, pages: Sequence[Optional[list[Any]]]) -> list[tuple[Any, ...]]:
    """One block's columns → aligned tuples (``pages``: the dictionary page
    per attribute, ``None`` for a raw column)."""
    decoded = [
        column if page is None else CodeColumn(page, column).values()
        for column, page in zip(columns, pages)
    ]
    return list(zip(*decoded))


def block_zones(
    attributes: Sequence[str], columns: Columns, pages: Sequence[Optional[list[Any]]]
) -> dict[str, tuple[Any, Any]]:
    """Per-attribute ``(min, max)`` over one block, a coded column looked
    up once per *distinct* code.  Attributes whose values are not mutually
    comparable (mixed types, ``None``) are omitted — absence means "no
    pruning", never wrong pruning."""
    zones: dict[str, tuple[Any, Any]] = {}
    for name, column, page in zip(attributes, columns, pages):
        values = column if page is None else CodeColumn(page, column).distinct_values()
        try:
            low, high = min(values), max(values)
            # min/max never compare a lone value: ask, so that an
            # unorderable one (None) gets no zone either.
            if low <= high:
                zones[name] = (low, high)
        except (TypeError, ValueError):
            continue
    return zones


# ----------------------------------------------------------------------
# writing
# ----------------------------------------------------------------------
#: One block ready to write: its index entry (``count``, ``pages``,
#: ``zones`` and, if known, ``crc``) and its payload bytes.
EncodedBlock = tuple[dict[str, Any], bytes]


def write_table_file(
    path: PathLike,
    table: str,
    attributes: Sequence[str],
    pages: Sequence[Optional[list[Any]]],
    blocks: Iterable[Columns],
    block_size: int = DEFAULT_BLOCK_SIZE,
    statistics: Optional[dict[str, Any]] = None,
    checksums: bool = True,
    fsync: bool = True,
) -> Path:
    """Write one table to ``path`` in the block format described above.

    ``pages`` holds, per attribute, the column's dictionary (code → value)
    or ``None`` for a raw column; ``blocks`` yields the table cut into
    ``block_size`` tuples, each block one code buffer / value list per
    attribute — what :meth:`TableReader.iter_block_columns` reads back and
    :func:`column_blocks` cuts.  Each block is encoded
    (:func:`encode_blocks`) and the file assembled by
    :func:`assemble_table_file`, whose options these are.
    """
    attributes = tuple(attributes)
    encoded = encode_blocks(attributes, pages, blocks)
    return assemble_table_file(
        path, table, attributes, pages, encoded, block_size, statistics, checksums, fsync
    )


def encode_blocks(
    attributes: Sequence[str], pages: Sequence[Optional[list[Any]]], blocks: Iterable[Columns]
) -> Iterator[EncodedBlock]:
    """Each block of columns as ``(index entry, payload)``: its code pages
    narrowed (:func:`narrow_codes`), its raw pages pickled, its zone maps
    taken (:func:`block_zones`); the CRC is left to the assembly."""
    for columns in blocks:
        encoded = [
            encode_raw_page(column) if page is None else narrow_codes(column, len(page))
            for column, page in zip(columns, pages)
        ]
        entry = {
            "count": len(columns[0]),
            "pages": tuple(map(len, encoded)),
            "zones": block_zones(attributes, columns, pages),
        }
        yield entry, b"".join(encoded)


def _bitmap_words(candidates: int) -> int:
    """Words in a row of a containment bitmap over ``candidates``
    candidates: ⌈candidates / 64⌉, at least one."""
    return max(1, -(-candidates // 64))


def encode_summaries(
    pages: Sequence[Optional[list[Any]]], bitmaps: Mapping[tuple[int, int], Any]
) -> bytes:
    """The summary section holding ``bitmaps``, in key order; ``b""`` when
    there is none, so the file ends at its last payload as it always has.

    ``bitmaps`` maps the positions ``(a, b)`` of a containment bitmap's
    candidate and value columns to its rows as bytes: per entry of page
    ``b``, a row of :func:`_bitmap_words` little-endian ``uint64`` words
    over page ``a``, bit ``i`` (bit ``i % 64`` of word ``i // 64``) set iff
    candidate ``i`` holds the value.
    """
    if not bitmaps:
        return b""
    keys = sorted(bitmaps)
    directory = [len(keys)]
    for a, b in keys:
        rows, words = len(pages[b]), _bitmap_words(len(pages[a]))
        if len(bitmaps[a, b]) != 8 * rows * words:
            raise StorageError(
                f"a containment bitmap of {len(bitmaps[a, b])} bytes for {rows} rows "
                f"of {words} word(s)"
            )
        directory += (a, b, rows, words)
    body = b"".join([struct.pack(f"<{len(directory)}Q", *directory), *map(bitmaps.get, keys)])
    crc = zlib.crc32(body).to_bytes(4, "big")
    return b"".join((SUMMARY_MAGIC, len(body).to_bytes(8, "big"), crc, body))


def assemble_table_file(
    path: PathLike,
    table: str,
    attributes: Sequence[str],
    pages: Sequence[Optional[list[Any]]],
    blocks: Iterable[EncodedBlock],
    block_size: int = DEFAULT_BLOCK_SIZE,
    statistics: Optional[dict[str, Any]] = None,
    checksums: bool = True,
    fsync: bool = True,
    summaries: Optional[Mapping[tuple[int, int], Any]] = None,
    source: Optional["TableReader"] = None,
) -> Path:
    """Write the header, the payloads of ``blocks`` in the order given, then
    the summary section of ``summaries`` (:func:`encode_summaries`), if any.

    ``blocks`` yields ``(index entry, payload)`` per block: encoded by
    :func:`encode_blocks`, or a stored table's verified payloads as
    :meth:`TableReader.iter_block_payloads` hands them back, which a re-save
    at the same ``block_size`` writes as they are — its entry's ``count``,
    ``pages`` and ``zones`` reused, its ``crc`` too when it has one.  Blocks
    go to disk in the order given: a clustered relation gets disjoint zone
    maps that prune hard.  A header equal to the one ``source`` (the file a
    stored table is re-saved from) holds is written as that file's
    CRC-verified bytes, not pickled again.  ``checksums=False`` leaves the
    per-block CRCs out; ``fsync=False`` skips the flush-to-disk barrier.
    """
    if block_size < 1:
        raise StorageError(f"block size must be at least 1, got {block_size}")
    attributes = tuple(attributes)
    if not attributes:
        # Its tuple count has no column to live in; refused, not saved as empty.
        raise StorageError(f"table {table!r} has no attributes and cannot be stored")
    payloads: list[bytes] = []
    index: list[dict[str, Any]] = []
    offset = tuple_count = 0
    for given, payload in blocks:
        entry = {
            "offset": offset,
            "length": len(payload),
            "count": given["count"],
            "pages": given["pages"],
            "zones": given["zones"],
        }
        if checksums:
            crc = given.get("crc")
            entry["crc"] = zlib.crc32(payload) if crc is None else crc
        index.append(entry)
        payloads.append(payload)
        offset += len(payload)
        tuple_count += entry["count"]
    header = {
        "format": FORMAT_VERSION,
        "table": table,
        "attributes": attributes,
        "block_size": block_size,
        "tuple_count": tuple_count,
        "checksums": checksums,
        "dictionaries": {
            name: page for name, page in zip(attributes, pages) if page is not None
        },
        "blocks": index,
        "statistics": statistics,
    }
    header_bytes = None if source is None else source.header_bytes(header)
    if header_bytes is None:
        header_bytes = pickle.dumps(header, protocol=_PROTOCOL)
    section = encode_summaries(pages, summaries or {})
    path = Path(path)
    with open(path, "wb") as stream:
        stream.write(MAGIC)
        stream.write(len(header_bytes).to_bytes(8, "big"))
        stream.write(zlib.crc32(header_bytes).to_bytes(4, "big"))
        stream.write(header_bytes)
        stream.writelines(payloads)
        stream.write(section)
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
    maps, dictionary pages, statistics payload) and keeps its bytes for an
    unchanged re-save (:meth:`header_bytes`); block payloads are read and
    verified on demand by :meth:`iter_block_columns` / :meth:`iter_blocks`,
    the summary section by :meth:`summary_section`.
    """

    __slots__ = ("_path", "_header", "_header_bytes", "_data_start", "_pages")

    def __init__(self, path: PathLike) -> None:
        self._path = Path(path)
        try:
            with open(self._path, "rb") as stream:
                magic = stream.read(len(MAGIC))
                if magic in _OLDER_MAGICS:
                    raise StorageError(
                        f"{self._path} is a format-{_OLDER_MAGICS[magic]} table file; this "
                        f"version reads only format {FORMAT_VERSION} — re-save with this version"
                    )
                if magic != MAGIC:
                    raise StorageError(f"{self._path} is not a stored table file (bad magic)")
                header_length = int.from_bytes(stream.read(8), "big")
                crc_bytes = stream.read(4)
                # Never ask for more than the file holds: a flipped bit in
                # the length must not become a multi-gigabyte allocation.
                header_bytes = stream.read(min(header_length, os.fstat(stream.fileno()).st_size))
                if len(crc_bytes) != 4 or len(header_bytes) != header_length:
                    raise StorageError(f"{self._path} is truncated (header incomplete)")
                # Verified *before* unpickling: a torn header never reaches
                # pickle.loads, and the error names the CRCs.
                expected_crc = int.from_bytes(crc_bytes, "big")
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
                self._data_start = len(MAGIC) + 8 + 4 + header_length
        except OSError as error:
            raise StorageError(f"cannot open stored table file {self._path}: {error}") from None
        if not isinstance(header, dict) or any(key not in header for key in _HEADER_KEYS):
            raise StorageError(f"{self._path} has a malformed header")
        if header["format"] != FORMAT_VERSION:
            raise StorageError(
                f"{self._path} declares format version {header['format']}, "
                f"but its magic says {FORMAT_VERSION}"
            )
        self._header, self._header_bytes = header, header_bytes
        self._pages = [header["dictionaries"].get(name) for name in header["attributes"]]

    # -- metadata (no block reads) -------------------------------------
    @property
    def path(self) -> Path:
        return self._path

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
    def checksummed(self) -> bool:
        """Whether the writer recorded a CRC32 per block."""
        return self._header.get("checksums", True)

    @property
    def blocks(self) -> list[dict[str, Any]]:
        """The block index: offset/length/count/pages/zones/crc per block."""
        return self._header["blocks"]

    @property
    def dictionary_pages(self) -> list[Optional[list[Any]]]:
        """Per attribute: the dictionary page (code → value), or ``None``
        for a column stored as raw pages."""
        return self._pages

    @property
    def statistics_payload(self) -> Optional[dict[str, Any]]:
        return self._header.get("statistics")

    def header_bytes(self, header: dict[str, Any]) -> Optional[bytes]:
        """This file's header as read (its CRC checked at open) if
        ``header`` equals it, else ``None``: what a re-save of an unchanged
        table writes without pickling the header again."""
        return self._header_bytes if header == self._header else None

    # -- block access ---------------------------------------------------
    def _payloads(
        self, should_read: Optional[Callable[[dict[str, Any]], bool]] = None
    ) -> Iterator[tuple[int, dict[str, Any], bytes]]:
        """``(number, index_entry, payload)`` per block ``should_read``
        keeps, as read (the ``storage.block_read`` fault point fires on
        each), not yet verified."""
        with open(self._path, "rb") as stream:
            for number, meta in enumerate(self.blocks):
                if should_read is not None and not should_read(meta):
                    continue
                stream.seek(self._data_start + meta["offset"])
                payload = stream.read(meta["length"])
                yield number, meta, fault_registry.fire("storage.block_read", payload)

    def _columns(self, number: int, meta: dict[str, Any], payload: bytes) -> Columns:
        """Verify one block payload and cut it into its column pages: a code
        page read in place at its narrow width (:func:`narrow_view`, its
        range checked), a raw page unpickled."""
        if len(payload) != meta["length"]:
            raise StorageError(f"{self._path} is truncated (block {number} payload incomplete)")
        expected = meta.get("crc")
        if expected is not None:
            actual = zlib.crc32(payload)
            if actual != expected:
                raise StorageCorruptionError(
                    f"{self._path} block {number} checksum mismatch "
                    f"(expected {expected:#010x}, got {actual:#010x})",
                    file=str(self._path),
                    block=number,
                    expected=expected,
                    actual=actual,
                )
        try:
            count, lengths = meta["count"], meta["pages"]
            if len(lengths) != len(self._pages) or sum(lengths) != len(payload):
                raise ValueError(f"page lengths {lengths!r} do not add up to the payload")
            columns = []
            start = 0
            view = memoryview(payload)
            for length, page in zip(lengths, self._pages):
                data = view[start : start + length]
                start += length
                if page is None:
                    columns.append(decode_raw_page(data, count))
                    continue
                width = code_width(len(page))
                if length != count * width:
                    raise ValueError(
                        f"a code page of {length} bytes for {count} tuples of {width} byte(s)"
                    )
                columns.append(narrow_view(data, len(page)))
        except (KeyError, TypeError, ValueError) as error:
            raise StorageError(f"{self._path} block {number} is unreadable: {error}") from None
        return columns

    def iter_block_columns(
        self, should_read: Optional[Callable[[dict[str, Any]], bool]] = None
    ) -> Iterator[tuple[dict[str, Any], Columns]]:
        """Yield ``(index_entry, columns)`` per block, in file order.

        The columns come back as stored — a code page over the attribute's
        :attr:`dictionary_pages` entry, read in place at its narrow width
        (1, 2 or 4 bytes a code: a caller that keeps ``int32`` code buffers
        casts it), or the raw value list — verified (length, CRC, code
        range) but not decoded.  ``should_read``
        sees each index entry (with its zone maps) first; ``False`` skips
        the block without any disk read.
        """
        for number, meta, payload in self._payloads(should_read):
            yield meta, self._columns(number, meta, payload)

    def iter_block_payloads(self) -> Iterator[tuple[dict[str, Any], bytes]]:
        """Yield ``(index_entry, payload)`` per block, in file order, each
        payload verified as :meth:`iter_block_columns` verifies it (length,
        CRC, page lengths, code range) and handed back as read: what a
        re-save at this file's block size writes without decoding a page
        or taking a zone map again (:func:`assemble_table_file`)."""
        for number, meta, payload in self._payloads():
            self._columns(number, meta, payload)
            yield meta, payload

    def joined_columns(
        self, should_read: Optional[Callable[[dict[str, Any]], bool]] = None
    ) -> Columns:
        """The columns of the blocks ``should_read`` keeps (asked once per
        block), joined in file order: a code buffer, or a raw value list.
        Each block is copied into place as it is read and dropped — a code
        page cast to ``int32`` by that copy — so no more than one block is
        held beside the joined columns."""
        kept = [meta for meta in self.blocks if should_read is None or should_read(meta)]
        wanted = {id(meta) for meta in kept}
        count = sum(meta["count"] for meta in kept)
        joined: Columns = [[] if page is None else empty_codes(count) for page in self._pages]
        start = 0
        for meta, columns in self.iter_block_columns(lambda meta: id(meta) in wanted):
            stop = start + meta["count"]
            for whole, part in zip(joined, columns):
                whole[start:stop] = part  # a raw list grows by its slice
            start = stop
        return joined

    def iter_blocks(
        self, should_read: Optional[Callable[[dict[str, Any]], bool]] = None
    ) -> Iterator[tuple[dict[str, Any], list[tuple[Any, ...]]]]:
        """Yield ``(index_entry, tuples)`` per block: the decoded view of
        :meth:`iter_block_columns`."""
        for meta, columns in self.iter_block_columns(should_read):
            yield meta, decode_columns(columns, self._pages)

    # -- the summary section ----------------------------------------------
    def summary_section(self) -> dict[tuple[int, int], memoryview]:
        """The containment bitmaps of the file's summary section, by the
        positions ``(a, b)`` of their candidate and value columns: each its
        rows' words as read (see :func:`encode_summaries`); ``{}`` for a
        file that ends at its last payload, as every file written without a
        bitmap does.

        One read, on which the ``storage.block_read`` fault point fires.  The
        CRC is checked before any byte is used: a mismatch raises
        :class:`~repro.errors.StorageCorruptionError`, a truncated section or
        a checksum-valid one whose directory does not fit the dictionary
        pages (a foreign writer) :class:`~repro.errors.StorageError`.
        """
        end = self._data_start + max(
            (meta["offset"] + meta["length"] for meta in self.blocks), default=0
        )
        try:
            with open(self._path, "rb") as stream:
                stream.seek(end)
                frame = stream.read(_SUMMARY_FRAME)
                if not frame:
                    return {}
                length = int.from_bytes(frame[len(SUMMARY_MAGIC) : -4], "big")
                # Never ask for more than the file holds (a flipped length bit).
                body = stream.read(min(length, os.fstat(stream.fileno()).st_size))
        except OSError as error:
            raise StorageError(f"cannot read stored table file {self._path}: {error}") from None
        if len(frame) != _SUMMARY_FRAME or len(body) != length:
            raise StorageError(f"{self._path} is truncated (summary section incomplete)")
        if not frame.startswith(SUMMARY_MAGIC):
            raise StorageError(f"{self._path} ends in bytes that are no summary section")
        body = fault_registry.fire("storage.block_read", body)
        expected, actual = int.from_bytes(frame[-4:], "big"), zlib.crc32(body)
        if actual != expected:
            raise StorageCorruptionError(
                f"{self._path} summary section checksum mismatch "
                f"(expected {expected:#010x}, got {actual:#010x})",
                file=str(self._path),
                expected=expected,
                actual=actual,
            )
        try:
            return self._bitmaps(memoryview(body))
        except (IndexError, TypeError, ValueError, struct.error) as error:
            raise StorageError(f"{self._path} has an unreadable summary section: {error}") from None

    def _bitmaps(self, body: memoryview) -> dict[tuple[int, int], memoryview]:
        """A checked section body cut into its bitmaps, each checked against
        the dictionary pages: its shape, and no bit past the last candidate."""
        (count,) = struct.unpack_from("<Q", body)
        directory = struct.unpack_from(f"<{4 * count}Q", body, 8)
        start = 8 + 32 * count
        bitmaps = {}
        for a, b, rows, words in zip(*[iter(directory)] * 4):
            candidates, values = self._pages[a], self._pages[b]
            if a == b or candidates is None or values is None or (a, b) in bitmaps:
                raise ValueError(f"no containment bitmap over columns {a} and {b}")
            if (rows, words) != (len(values), _bitmap_words(len(candidates))):
                raise ValueError(f"a bitmap of {rows} rows × {words} words over columns {a}, {b}")
            size = 8 * rows * words
            bitmap = bitmaps[a, b] = body[start : start + size]
            start += size
            if len(bitmap) != size:
                raise ValueError(f"the bitmap over columns {a}, {b} is cut short")
            if sets_padding(bitmap, words, len(candidates)):
                raise ValueError(f"the bitmap over columns {a}, {b} sets a bit past its candidates")
        if start != len(body):
            raise ValueError(f"a body of {len(body)} bytes for bitmaps of {start}")
        return bitmaps


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
