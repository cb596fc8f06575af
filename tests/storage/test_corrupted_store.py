"""Property test: arbitrary on-disk corruption is detected, never served.

Hypothesis picks a file of a saved store, a corruption mode (bit flip,
truncation, zero-fill) and a position; the mutated store must either load
and scan to exactly the pristine tuples (the mutation hit slack bytes) or
raise a typed :class:`~repro.errors.StorageError`.  Any other exception —
or silently different data — is a checksum hole.
"""

import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.relation import Relation
from repro.storage.store import MANIFEST_NAME, load_store, save_database


def _catalog():
    from repro.algebra.catalog import Catalog

    catalog = Catalog()
    catalog.add_table(
        "facts",
        Relation(("a", "b", "s"), [(i, i % 7, f"value-{i}") for i in range(200)]),
    )
    catalog.add_table("dims", Relation(("b",), [(i,) for i in range(7)]))
    return catalog


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    path = tmp_path_factory.mktemp("pristine-store")
    save_database(path, _catalog())
    catalog, _versions, _views = load_store(path)
    tuples = {name: sorted(catalog[name].aligned_tuples()) for name in sorted(catalog)}
    return path, tuples


def _read_all(path):
    catalog, _versions, _views = load_store(path)
    return {name: sorted(catalog[name].aligned_tuples()) for name in sorted(catalog)}


def _corrupt(data: bytes, mode: str, position: float, length: int) -> bytes:
    offset = min(int(position * len(data)), len(data) - 1)
    if mode == "truncate":
        return data[:offset]
    mutated = bytearray(data)
    end = min(offset + max(length, 1), len(mutated))
    if mode == "bitflip":
        mutated[offset] ^= 0x40
    else:  # zero-fill
        for i in range(offset, end):
            mutated[i] = 0
    return bytes(mutated)


@settings(max_examples=40, deadline=None)
@given(
    file_index=st.integers(min_value=0, max_value=2),
    mode=st.sampled_from(["bitflip", "truncate", "zero"]),
    position=st.floats(min_value=0.0, max_value=0.999),
    length=st.integers(min_value=1, max_value=64),
)
def test_corruption_is_detected_or_harmless(pristine, tmp_path_factory, file_index, mode, position, length):
    source, expected = pristine
    target = tmp_path_factory.mktemp("mutated")
    shutil.rmtree(target)
    shutil.copytree(source, target)

    files = sorted(target.iterdir())
    victim = files[file_index % len(files)]
    data = victim.read_bytes()
    mutated = _corrupt(data, mode, position, length)
    if mutated == data:
        return  # zero-filling zeros (or an empty truncation diff): no-op
    victim.write_bytes(mutated)

    try:
        observed = _read_all(target)
    except StorageError:
        return  # detected with the documented typed error
    # The mutation survived loading: it must have been byte-irrelevant.
    assert observed == expected


class TestTargetedCorruption:
    """Deterministic spot checks the property test subsumes statistically."""

    def _copy(self, source, tmp_path):
        target = tmp_path / "store"
        shutil.copytree(source, target)
        return target

    def test_bitflip_in_block_payload_raises_corruption(self, pristine, tmp_path):
        source, _expected = pristine
        target = self._copy(source, tmp_path)
        victim = next(p for p in sorted(target.iterdir()) if p.name.endswith(".rpb"))
        data = bytearray(victim.read_bytes())
        data[-10] ^= 0x01  # inside the last block's payload
        victim.write_bytes(bytes(data))
        with pytest.raises(StorageError):
            _read_all(target)

    def test_manifest_edit_raises_digest_mismatch(self, pristine, tmp_path):
        source, _expected = pristine
        target = self._copy(source, tmp_path)
        manifest = target / MANIFEST_NAME
        manifest.write_text(manifest.read_text().replace("facts", "fakes"))
        with pytest.raises(StorageError):
            load_store(target)

    def test_truncated_manifest_raises_typed_error(self, pristine, tmp_path):
        source, _expected = pristine
        target = self._copy(source, tmp_path)
        manifest = target / MANIFEST_NAME
        manifest.write_bytes(manifest.read_bytes()[: len(manifest.read_bytes()) // 2])
        with pytest.raises(StorageError):
            load_store(target)


class TestForeignWriter:
    """Checksum-valid files a foreign or buggy writer could produce: the
    bytes are what was written, so no CRC trips — the page boundary itself
    must refuse them, naming file and block, before a kernel indexes a
    dictionary with a code it does not have."""

    def _rewrite(self, source, tmp_path, mutate):
        """Copy the store, apply ``mutate(header)`` to the ``facts`` file
        and re-frame it with a *valid* header checksum."""
        import pickle
        import zlib

        target = tmp_path / "store"
        shutil.copytree(source, target)
        victim = next(p for p in sorted(target.iterdir()) if "facts" in p.name)
        data = victim.read_bytes()
        length = int.from_bytes(data[8:16], "big")
        header = pickle.loads(data[20 : 20 + length])
        mutate(header)
        body = pickle.dumps(header, protocol=pickle.HIGHEST_PROTOCOL)
        victim.write_bytes(
            data[:8]
            + len(body).to_bytes(8, "big")
            + zlib.crc32(body).to_bytes(4, "big")
            + body
            + data[20 + length :]
        )
        return target, victim

    def _assert_refused(self, target, victim, match):
        import repro

        with pytest.raises(StorageError, match=match) as caught:
            _read_all(target)
        assert str(victim) in str(caught.value) and "block 0" in str(caught.value)
        # The same through a query: the scan hands code buffers to the
        # division, which must never see the bad page.
        db = repro.connect(target)
        with pytest.raises(StorageError, match=match):
            db.sql("SELECT a FROM facts AS f DIVIDE BY dims AS d ON f.b = d.b").run()

    def test_code_outside_the_dictionary(self, pristine, tmp_path):
        def shorten(header):
            del header["dictionaries"]["b"][3:]  # codes 3..6 now point nowhere

        target, victim = self._rewrite(pristine[0], tmp_path, shorten)
        self._assert_refused(target, victim, "outside a dictionary of 3")

    def test_page_length_is_not_count_times_width(self, pristine, tmp_path):
        def widen(header):  # 257 entries: two bytes a code, the pages hold one
            header["dictionaries"]["b"].extend(range(100, 350))

        target, victim = self._rewrite(pristine[0], tmp_path, widen)
        self._assert_refused(target, victim, "a code page of 200 bytes for 200 tuples of 2 byte")

    def test_count_disagrees_with_the_pages(self, pristine, tmp_path):
        def miscount(header):
            header["blocks"][0]["count"] += 1

        target, victim = self._rewrite(pristine[0], tmp_path, miscount)
        self._assert_refused(target, victim, "a code page of")

    def test_page_lengths_do_not_add_up(self, pristine, tmp_path):
        def shift(header):
            first, *rest = header["blocks"][0]["pages"]
            header["blocks"][0]["pages"] = (first + 1, *rest)

        target, victim = self._rewrite(pristine[0], tmp_path, shift)
        self._assert_refused(target, victim, "do not add up")

    def test_index_entry_without_page_lengths(self, pristine, tmp_path):
        def forget(header):
            del header["blocks"][0]["pages"]

        target, victim = self._rewrite(pristine[0], tmp_path, forget)
        self._assert_refused(target, victim, "is unreadable")
