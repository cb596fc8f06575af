"""The on-disk block format: page codec, zone maps, header integrity."""

import pickle
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import predicates as P
from repro.algebra.catalog import Catalog
from repro.errors import StorageError
from repro.relation.encoding import CodeColumn, code_buffer, code_width, narrow_codes, widen_codes
from repro.relation.relation import Relation
from repro.storage.format import (
    DEFAULT_BLOCK_SIZE,
    FORMAT_VERSION,
    MAGIC,
    SUMMARY_MAGIC,
    TableReader,
    assemble_table_file,
    block_may_match,
    block_zones,
    column_blocks,
    decode_raw_page,
    encode_blocks,
    encode_raw_page,
    write_table_file,
)
from repro.storage.store import load_catalog, save_database
from tests.storage.tables import table_columns, write_tuples

ATTRIBUTES = ("k", "g", "s")

#: Dictionary sizes on both sides of every code-width boundary.
DICTIONARY_SIZES = (1, 255, 256, 257, 65_535, 65_536, 70_000)


def rows(count: int):
    return [(i, i % 7, f"s{i % 3}") for i in range(count)]


def read_all(path):
    return [values for _meta, block in TableReader(path).iter_blocks() for values in block]


class TestPages:
    @pytest.mark.parametrize("entries", DICTIONARY_SIZES)
    def test_codes_take_the_narrowest_width_and_come_back(self, entries):
        width = 1 if entries <= 256 else 2 if entries <= 65_536 else 4
        assert code_width(entries) == width
        codes = code_buffer([0, entries - 1, entries // 2], 3)
        page = narrow_codes(codes, entries)
        assert len(page) == 3 * width
        assert page[:width] == bytes(width)  # little-endian zero
        assert page[width : 2 * width] == (entries - 1).to_bytes(width, "little")
        assert list(widen_codes(page, entries)) == list(codes)
        assert type(widen_codes(page, entries)) is type(codes)

    def test_a_code_outside_the_dictionary_is_refused(self):
        with pytest.raises(ValueError, match="outside a dictionary of 3"):
            widen_codes(bytes([0, 2, 3]), 3)

    def test_pickled_code_column_uses_the_same_bytes(self):
        column = CodeColumn(list(range(300)), code_buffer([299, 0, 7], 3))
        shipped = pickle.loads(pickle.dumps(column))
        assert list(shipped.codes) == [299, 0, 7]
        assert narrow_codes(column.codes, 300) in pickle.dumps(column)

    def test_raw_page_roundtrip(self):
        values = [[1, 2], {"a": 1}, None]
        assert decode_raw_page(encode_raw_page(values), 3) == values

    @pytest.mark.parametrize("payload", [b"not a pickle", pickle.dumps((1, 2)), pickle.dumps([1])])
    def test_raw_page_of_the_wrong_shape_is_refused(self, payload):
        with pytest.raises(ValueError):
            decode_raw_page(payload, 2)


class TestTableFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "t.rpb"
        tuples = rows(5000)
        write_tuples(path, "t", ATTRIBUTES, tuples, block_size=512)
        reader = TableReader(path)
        assert reader.table == "t"
        assert reader.attributes == ATTRIBUTES
        assert reader.tuple_count == 5000
        assert len(reader.blocks) == 10
        assert read_all(path) == tuples

    @pytest.mark.parametrize("entries", DICTIONARY_SIZES)
    def test_width_boundaries(self, tmp_path, entries):
        path = tmp_path / "t.rpb"
        tuples = [(i, i % 7, f"s{i % 3}") for i in range(entries)]
        write_tuples(path, "t", ATTRIBUTES, tuples)
        reader = TableReader(path)
        width = code_width(entries)
        for meta in reader.blocks:
            assert meta["pages"] == (meta["count"] * width, meta["count"], meta["count"])
        assert [len(page) for page in reader.dictionary_pages] == [entries, min(entries, 7), min(entries, 3)]
        assert read_all(path) == tuples

    def test_blocks_come_back_as_code_buffers(self, tmp_path):
        path = tmp_path / "t.rpb"
        write_tuples(path, "t", ATTRIBUTES, rows(100), block_size=64)
        _pages, columns = table_columns(ATTRIBUTES, rows(100))
        blocks = [block for _meta, block in TableReader(path).iter_block_columns()]
        assert [len(block[0]) for block in blocks] == [64, 36]
        for position, column in enumerate(columns):
            assert type(blocks[0][position]) is type(column)
            assert list(blocks[0][position]) + list(blocks[1][position]) == list(column)

    def test_empty_table(self, tmp_path):
        path = tmp_path / "t.rpb"
        write_tuples(path, "t", ATTRIBUTES, [])
        reader = TableReader(path)
        assert reader.tuple_count == 0 and reader.blocks == []
        assert reader.dictionary_pages == [[], [], []]
        assert read_all(path) == []

    def test_unhashable_column_is_stored_raw_beside_coded_ones(self, tmp_path):
        path = tmp_path / "t.rpb"
        tuples = [([1, 2], "x", 1), ([3], "y", 2), ([], "x", 3)]
        write_tuples(path, "t", ATTRIBUTES, tuples, block_size=2)
        reader = TableReader(path)
        assert [page is None for page in reader.dictionary_pages] == [True, False, False]
        assert reader.dictionary_pages[1] == ["x", "y"]
        assert read_all(path) == tuples
        assert reader.blocks[0]["zones"]["k"] == ([1, 2], [3])  # lists do compare

    def test_default_block_size(self, tmp_path):
        path = tmp_path / "t.rpb"
        write_tuples(path, "t", ATTRIBUTES, rows(10))
        assert TableReader(path).block_size == DEFAULT_BLOCK_SIZE

    def test_zone_maps_recorded_per_block(self, tmp_path):
        path = tmp_path / "t.rpb"
        write_tuples(path, "t", ATTRIBUTES, rows(1024), block_size=256)
        reader = TableReader(path)
        for number, meta in enumerate(reader.blocks):
            low, high = meta["zones"]["k"]
            assert (low, high) == (number * 256, number * 256 + 255)

    def test_zones_look_up_distinct_codes_only(self):
        class Counting(list):
            lookups = 0

            def __getitem__(self, code):
                Counting.lookups += 1
                return list.__getitem__(self, code)

        page = Counting(["b", "a", "c"])
        zones = block_zones(("s",), [code_buffer([0, 1] * 500, 1000)], [page])
        assert zones == {"s": ("a", "b")}
        assert Counting.lookups == 2

    def test_selective_read_skips_blocks(self, tmp_path):
        path = tmp_path / "t.rpb"
        write_tuples(path, "t", ATTRIBUTES, rows(1024), block_size=256)
        reader = TableReader(path)
        read = list(reader.iter_blocks(lambda meta: meta["zones"]["k"][0] < 256))
        assert len(read) == 1

    def test_without_checksums_the_layout_is_the_same(self, tmp_path):
        guarded, plain = tmp_path / "guarded.rpb", tmp_path / "plain.rpb"
        write_tuples(guarded, "t", ATTRIBUTES, rows(100), block_size=32)
        write_tuples(plain, "t", ATTRIBUTES, rows(100), block_size=32, checksums=False)
        assert TableReader(guarded).checksummed and not TableReader(plain).checksummed
        assert all("crc" in meta for meta in TableReader(guarded).blocks)
        assert not any("crc" in meta for meta in TableReader(plain).blocks)
        assert read_all(plain) == read_all(guarded) == rows(100)
        # Same magic, same header frame, same payload bytes.
        assert plain.read_bytes()[:8] == guarded.read_bytes()[:8] == MAGIC
        payload_bytes = sum(meta["length"] for meta in TableReader(plain).blocks)
        assert plain.read_bytes()[-payload_bytes:] == guarded.read_bytes()[-payload_bytes:]

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "t.rpb"
        path.write_bytes(b"NOTABLOCKFILE....")
        with pytest.raises(StorageError):
            TableReader(path)

    @pytest.mark.parametrize("magic,version", [(b"RPROBLK1", 1), (b"RPROBLK2", 2)])
    def test_older_format_says_resave(self, tmp_path, magic, version):
        """Formats 1 and 2 (pickled per-column value lists) are gone: their
        magic is recognized only to tell the user what to do."""
        path = tmp_path / "old.rpb"
        header = pickle.dumps({"format": version})
        frame = len(header).to_bytes(8, "big")
        if version == 2:
            frame += zlib.crc32(header).to_bytes(4, "big")
        path.write_bytes(magic + frame + header)
        with pytest.raises(StorageError, match=f"format-{version} table file.*re-save with this version"):
            TableReader(path)
        assert FORMAT_VERSION == 3

    def test_truncated_file_raises(self, tmp_path):
        path = tmp_path / "t.rpb"
        write_tuples(path, "t", ATTRIBUTES, rows(100), block_size=32)
        data = path.read_bytes()
        path.write_bytes(data[:-20])
        reader = TableReader(path)  # the header still parses …
        with pytest.raises(StorageError, match="truncated"):  # … block reads must not
            list(reader.iter_blocks())

    def test_a_flipped_header_length_is_a_typed_error_not_an_allocation(self, tmp_path):
        path = tmp_path / "t.rpb"
        write_tuples(path, "t", ATTRIBUTES, rows(10))
        data = bytearray(path.read_bytes())
        data[len(MAGIC)] ^= 0x40  # the length's top byte: 2^62 more bytes of "header"
        path.write_bytes(bytes(data))
        with pytest.raises(StorageError, match="truncated"):
            TableReader(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(StorageError):
            TableReader(tmp_path / "absent.rpb")


# ----------------------------------------------------------------------
# property: read ≡ written, zones ≡ min/max of the block's tuples
# ----------------------------------------------------------------------
#: ``1 == 1.0 == True`` share a dictionary entry; strings and None beside
#: numbers make a block's values incomparable (no zone, not a crash).
VALUES = st.sampled_from([0, 1, 1.0, True, False, 2, 2.5, -1, "a", "b", None])
UNHASHABLE = st.lists(st.integers(0, 3), max_size=2)


def tables(draw):
    raw_column = draw(st.booleans())
    third = UNHASHABLE if raw_column else VALUES
    return draw(st.lists(st.tuples(VALUES, st.integers(0, 4), third), max_size=40))


def expected_zone(values):
    """``(min, max)`` of a block's values; none if they do not all compare
    (a lone value with itself: a block of one ``None`` has no zone either)."""
    try:
        return (min(values), max(values)) if min(values) <= max(values) else None
    except TypeError:
        return None


@settings(max_examples=60, deadline=None)
@given(data=st.data(), block_size=st.sampled_from([1, 3, 4096]))
def test_read_is_written_and_zones_are_block_bounds(tmp_path_factory, data, block_size):
    tuples = tables(data.draw)
    path = tmp_path_factory.mktemp("codec") / "t.rpb"
    write_tuples(path, "t", ATTRIBUTES, tuples, block_size=block_size)
    reader = TableReader(path)
    assert reader.tuple_count == len(tuples)
    blocks = list(reader.iter_blocks())
    assert [values for _meta, block in blocks for values in block] == tuples
    for number, (meta, block) in enumerate(blocks):
        assert block == tuples[number * block_size : (number + 1) * block_size]
        for position, name in enumerate(ATTRIBUTES):
            column = [values[position] for values in block]
            assert meta["zones"].get(name) == expected_zone(column), (name, column)


def stored_files(store):
    """Table file contents by table index (names differ by generation tag)."""
    return {path.name.split(".")[0]: path.read_bytes() for path in sorted(store.glob("*.rpb"))}


@settings(max_examples=30, deadline=None)
@given(
    rows_=st.lists(st.tuples(VALUES, st.integers(0, 4), VALUES), max_size=40),
    first=st.sampled_from([1, 3, 4096]),
    second=st.sampled_from([1, 3, 4096]),
)
def test_saving_a_reopened_store_writes_the_same_bytes(tmp_path_factory, rows_, first, second):
    """In-memory table → file ≡ that file reopened → file, byte for byte
    (pages streamed as they are, or re-cut to the new block size), and ≡
    the in-memory table saved at the second block size directly."""
    directory = tmp_path_factory.mktemp("twin")
    catalog = Catalog()
    catalog.add_table("t", Relation.from_aligned(ATTRIBUTES, rows_).clustered(["g"]))
    catalog.add_table("empty", Relation.empty(("x",)))
    save_database(directory / "a", catalog, block_size=first)
    reopened = load_catalog(directory / "a")
    save_database(directory / "b", reopened, block_size=second)
    save_database(directory / "c", catalog, block_size=second)
    assert stored_files(directory / "b") == stored_files(directory / "c")
    if first == second:
        assert stored_files(directory / "b") == stored_files(directory / "a")
    assert not any(relation.is_loaded for relation in reopened.values())
    assert load_catalog(directory / "b")["t"] == catalog["t"]


class TestBlockMayMatch:
    ZONES = {"k": (10, 20)}

    @pytest.mark.parametrize(
        "predicate,expected",
        [
            (P.equals(P.attr("k"), 15), True),
            (P.equals(P.attr("k"), 5), False),
            (P.equals(P.attr("k"), 25), False),
            (P.less_than(P.attr("k"), 10), False),
            (P.less_than(P.attr("k"), 11), True),
            (P.less_equal(P.attr("k"), 10), True),
            (P.greater_than(P.attr("k"), 20), False),
            (P.greater_equal(P.attr("k"), 20), True),
            (P.not_equals(P.attr("k"), 15), True),
        ],
    )
    def test_comparisons(self, predicate, expected):
        assert block_may_match(predicate, self.ZONES) is expected

    def test_not_equals_prunes_single_valued_block(self):
        assert block_may_match(P.not_equals(P.attr("k"), 7), {"k": (7, 7)}) is False

    def test_mirrored_literal_on_the_left(self):
        # 25 < k  ≡  k > 25: impossible when the block tops out at 20.
        assert block_may_match(P.less_than(25, P.attr("k")), self.ZONES) is False

    def test_conjunction_and_disjunction(self):
        inside = P.equals(P.attr("k"), 15)
        outside = P.equals(P.attr("k"), 99)
        assert block_may_match(P.conjunction([inside, outside]), self.ZONES) is False
        assert block_may_match(P.disjunction([inside, outside]), self.ZONES) is True

    def test_unknown_attribute_is_conservative(self):
        assert block_may_match(P.equals(P.attr("other"), 1), self.ZONES) is True

    def test_incomparable_literal_is_conservative(self):
        assert block_may_match(P.less_than(P.attr("k"), "zzz"), self.ZONES) is True


class TestSummarySection:
    """The optional section after the last payload: containment bitmaps."""

    PAIRS = [(a, b) for a in range(70) for b in range(3) if (a + b) % 4]

    def pages_and_blocks(self):
        pages, columns = table_columns(("a", "b"), self.PAIRS)
        return pages, encode_blocks(("a", "b"), pages, column_blocks(columns, 16))

    def bitmap(self):
        """Row ``b`` of the ``a → b`` bitmap: the candidates holding ``b``,
        two words a row (70 candidates)."""
        rows = [sum(1 << a for a, value in self.PAIRS if value == b) for b in range(3)]
        return b"".join(row.to_bytes(16, "little") for row in rows)

    def write(self, path, summaries=None):
        pages, blocks = self.pages_and_blocks()
        return assemble_table_file(
            path, "t", ("a", "b"), pages, blocks, block_size=16, summaries=summaries
        )

    def test_no_bitmap_writes_no_section(self, tmp_path):
        pages, columns = table_columns(("a", "b"), self.PAIRS)
        plain = write_table_file(
            tmp_path / "plain.rpb", "t", ("a", "b"), pages, column_blocks(columns, 16), 16
        )
        empty = self.write(tmp_path / "empty.rpb", {})
        assert empty.read_bytes() == plain.read_bytes()
        assert TableReader(empty).summary_section() == {}

    def test_a_bitmap_reads_back_as_written(self, tmp_path):
        path = self.write(tmp_path / "t.rpb", {(0, 1): self.bitmap()})
        reader = TableReader(path)
        assert bytes(reader.summary_section()[0, 1]) == self.bitmap()
        assert read_all(path) == self.PAIRS  # the blocks are untouched
        assert path.read_bytes().endswith(self.bitmap())

    def test_a_bitmap_of_the_wrong_size_is_refused_at_write(self, tmp_path):
        with pytest.raises(StorageError, match="containment bitmap of 40 bytes"):
            self.write(tmp_path / "t.rpb", {(0, 1): self.bitmap()[:40]})

    def foreign(self, tmp_path, directory, words):
        """A checksum-valid section no writer of ours would write."""
        path = self.write(tmp_path / "t.rpb")
        body = struct.pack(f"<{len(directory)}Q", *directory) + words
        frame = SUMMARY_MAGIC + len(body).to_bytes(8, "big") + zlib.crc32(body).to_bytes(4, "big")
        path.write_bytes(path.read_bytes() + frame + body)
        return TableReader(path)

    @pytest.mark.parametrize(
        "directory, words",
        [
            ((1, 0, 1, 3, 1), bytes(24)),  # one word a row for 70 candidates
            ((1, 0, 1, 2, 2), bytes(32)),  # two rows for three values
            ((1, 0, 0, 70, 2), bytes(1120)),  # a bitmap of a column over itself
            ((1, 0, 5, 3, 2), bytes(48)),  # no such column
            ((1, 0, 1, 3, 2), bytes(40)),  # the words cut short
            ((1, 0, 1, 3, 2), bytes(56)),  # bytes left over
            ((2, 0, 1, 3, 2), bytes(48)),  # a directory longer than the body holds
        ],
    )
    def test_a_foreign_section_is_a_typed_error(self, tmp_path, directory, words):
        reader = self.foreign(tmp_path, directory, words)
        with pytest.raises(StorageError, match="unreadable summary section"):
            reader.summary_section()

    def test_a_bit_past_the_last_candidate_is_a_typed_error(self, tmp_path):
        words = bytearray(self.bitmap())
        words[15] |= 0x80  # bit 127 of row 0: candidate 127 of 70
        reader = self.foreign(tmp_path, (1, 0, 1, 3, 2), bytes(words))
        with pytest.raises(StorageError, match="sets a bit past its candidates"):
            reader.summary_section()
        assert self.foreign(tmp_path, (1, 0, 1, 3, 2), self.bitmap()).summary_section()
