"""Directory stores: save a catalog to disk, reopen it lazily.

A *store* is a directory holding one block file per table (see
:mod:`repro.storage.format`) plus a small JSON manifest mapping table names
to files and recording the catalog's declared keys and foreign keys, so a
reopened store keeps the same rewrite-law preconditions available.

A save writes every table from its **code columns**, never from tuples:
an in-memory relation's cached encoding, or a reopened store's verified
pages streamed block by block (no tuple is built, nothing stays loaded).

Saves are **crash-safe**: table files are written under fresh
generation-suffixed names (never overwriting the files the current
manifest references), fsynced, and the manifest — carrying a SHA-256
content digest — is committed last via an atomic ``os.replace``.  A save
interrupted at any point (see the ``storage.table_write`` and
``storage.manifest_write`` fault points) leaves the previous manifest and
its files untouched, so the store reopens at its pre-save state; files a
failed or superseded save left behind are swept opportunistically after
the next successful commit.

Reopening yields :class:`StoredRelation` values: schema, cardinality and
statistics come straight from the file headers (no data read), and the
tuples materialize only if something actually asks for rows — the planner
routes stored tables through :class:`~repro.storage.scan.StoredScan`,
which streams blocks, so ordinary query execution never materializes them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import re
from pathlib import Path
from typing import Any, Iterator, Optional

from repro.algebra.catalog import Catalog
from repro.errors import StorageCorruptionError, StorageError
from repro.faults import registry as fault_registry
from repro.optimizer.statistics import TableStatistics
from repro.relation.relation import Relation
from repro.relation.row import Row
from repro.relation.schema import Schema
from repro.relation.encoding import concatenate_codes
from repro.storage.format import DEFAULT_BLOCK_SIZE, Columns, PathLike, TableReader
from repro.storage.format import column_blocks, write_table_file

__all__ = [
    "MANIFEST_NAME",
    "StoredRelation",
    "load_catalog",
    "load_store",
    "save_database",
    "statistics_from_payload",
    "statistics_payload",
]

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1


# ----------------------------------------------------------------------
# statistics payload <-> TableStatistics
# ----------------------------------------------------------------------
def statistics_payload(statistics: TableStatistics) -> dict[str, Any]:
    """A plain-dict rendering of exact table statistics for the file header."""
    return {
        "cardinality": statistics.cardinality,
        "distinct_values": dict(statistics.distinct_values),
        "minima": dict(statistics.minima),
        "maxima": dict(statistics.maxima),
        "sorted_attributes": sorted(statistics.sorted_attributes),
        "lexicographic_prefix": list(statistics.lexicographic_prefix),
        "top_frequencies": dict(statistics.top_frequencies),
    }


def statistics_from_payload(payload: dict[str, Any]) -> TableStatistics:
    """Inverse of :func:`statistics_payload`."""
    try:
        return TableStatistics(
            cardinality=payload["cardinality"],
            distinct_values=dict(payload["distinct_values"]),
            minima=dict(payload["minima"]),
            maxima=dict(payload["maxima"]),
            sorted_attributes=frozenset(payload["sorted_attributes"]),
            lexicographic_prefix=tuple(payload["lexicographic_prefix"]),
            top_frequencies=dict(payload["top_frequencies"]),
        )
    except (KeyError, TypeError) as error:
        raise StorageError(f"malformed statistics payload in stored table: {error}") from None


# ----------------------------------------------------------------------
# lazy stored relations
# ----------------------------------------------------------------------
class StoredRelation(Relation):
    """A relation backed by a stored table file, materialized on demand.

    The subclass shadows the ``_rows``/``_tuples`` slots with properties,
    so every inherited algebra method works unchanged — the first one that
    actually touches rows triggers a full block read.  Length, schema and
    :meth:`stored_statistics` are answered from the header alone, which is
    what keeps ``repro.connect(path)`` and ``db.analyze()`` metadata-only.

    Derived relations (projections, quotients, …) are always plain
    in-memory :class:`Relation` values: the base class builds results via
    ``Relation._from_parts`` explicitly.
    """

    __slots__ = ("_reader", "_cached_rows", "_cached_tuples")

    def __init__(self, reader: TableReader) -> None:
        self._schema = Schema.interned(reader.attributes)
        self._reader = reader
        self._cached_rows: Optional[frozenset[Row]] = None
        self._cached_tuples: Optional[list[tuple[Any, ...]]] = None
        # The inherited encoding cache stays empty until something scans the
        # materialized tuples; opening a store must not decode a block.
        self._encoding = None

    def __reduce__(self) -> tuple[Any, ...]:
        """Pickle as "reopen this file": no rows, tuples or codes travel."""
        return StoredRelation, (self._reader,)

    # -- lazy materialization ------------------------------------------
    @property
    def _rows(self) -> frozenset[Row]:
        rows = self._cached_rows
        if rows is None:
            rows = frozenset(Row.block(self._schema, self.aligned_tuples()))
            self._cached_rows = rows
        return rows

    @property
    def _tuples(self) -> Optional[list[tuple[Any, ...]]]:
        return self._cached_tuples

    @_tuples.setter
    def _tuples(self, value: Optional[list[tuple[Any, ...]]]) -> None:
        self._cached_tuples = value

    def aligned_tuples(self) -> list[tuple[Any, ...]]:
        """All tuples in stored (block) order — reads every block, cached."""
        tuples = self._cached_tuples
        if tuples is None:
            tuples = [values for _meta, block in self._reader.iter_blocks() for values in block]
            self._cached_tuples = tuples
        return tuples

    # -- metadata-only answers -----------------------------------------
    def __len__(self) -> int:
        return self._reader.tuple_count

    def __bool__(self) -> bool:
        return self._reader.tuple_count > 0

    @property
    def reader(self) -> TableReader:
        """The underlying block-file reader."""
        return self._reader

    @property
    def is_loaded(self) -> bool:
        """Whether the tuples have been materialized into memory."""
        return self._cached_rows is not None or self._cached_tuples is not None

    def stored_statistics(self) -> TableStatistics:
        """Exact statistics from the file header — a metadata read.

        :meth:`TableStatistics.from_relation` dispatches here for stored
        relations, so ``ANALYZE`` on a stored table touches no block.
        """
        payload = self._reader.statistics_payload
        if payload is None:
            # Saved without statistics (foreign writer): one full read.
            plain = Relation.from_aligned(self.attributes, self.aligned_tuples())
            return TableStatistics.from_relation(plain)
        return statistics_from_payload(payload)

    def sample_tuples(self, limit: int) -> list[tuple[Any, ...]]:
        """Up to ``limit`` leading tuples without materializing the table."""
        if self._cached_tuples is not None:
            return self._cached_tuples[:limit]
        blocks = (block for _meta, block in self._reader.iter_blocks())
        return list(itertools.islice(itertools.chain.from_iterable(blocks), limit))

    def __repr__(self) -> str:
        state = "loaded" if self.is_loaded else "on disk"
        return (
            f"<StoredRelation {self._reader.table!r} {self._schema.names!r} "
            f"{len(self)} tuples, {len(self._reader.blocks)} blocks, {state}>"
        )


# ----------------------------------------------------------------------
# save / open
# ----------------------------------------------------------------------
#: Monotone per-process save counter; with the pid it forms a generation
#: tag that keeps every save's files distinct from the committed ones.
_generation_counter = itertools.count(1)


def _table_filename(index: int, name: str, generation: str) -> str:
    safe = re.sub(r"[^A-Za-z0-9_.-]", "_", name) or "table"
    return f"{index:04d}-{safe}.g{generation}.rpb"


def _manifest_digest(manifest: dict[str, Any]) -> str:
    """SHA-256 over the manifest's canonical JSON (minus the digest itself)."""
    body = {key: value for key, value in manifest.items() if key != "digest"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _fsync_directory(path: Path) -> None:
    """Flush a directory's entry table; best-effort (not all OSes allow it)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _sweep_orphans(path: Path, keep: "set[str]") -> None:
    """Remove block/temp files no manifest references (failed saves).

    Runs only after a successful commit, so anything matching the store's
    file patterns but absent from the just-committed manifest is debris
    from an interrupted or superseded save.  Best-effort: a file that
    vanishes or resists deletion is simply left for the next sweep.
    """
    for candidate in itertools.chain(path.glob("*.rpb"), path.glob(f"{MANIFEST_NAME}.g*.tmp")):
        if candidate.name in keep:
            continue
        try:
            candidate.unlink()
        except OSError:
            continue


def _table_source(
    relation: Relation, block_size: int
) -> "tuple[tuple[str, ...], list[Optional[list[Any]]], Iterator[Columns]]":
    """``(attributes, dictionary pages, blocks)`` for :func:`write_table_file`:
    an in-memory relation's cached encoding, or a stored one's verified
    pages (joined and re-cut only for another ``block_size``) under the
    header's own name strings — pickle shares strings by identity, so this
    is what makes a re-saved file byte-identical to its source."""
    if isinstance(relation, StoredRelation):
        reader = relation.reader
        pages = reader.dictionary_pages
        blocks = (columns for _meta, columns in reader.iter_block_columns())
        if reader.block_size != block_size:
            whole = [
                concatenate_codes(parts) if page is not None else list(itertools.chain(*parts))
                for page, parts in zip(pages, zip(*blocks))
            ]
            blocks = column_blocks(whole, block_size)
        return reader.attributes, pages, blocks
    columns = relation.encoded_columns()
    blocks = column_blocks([column.codes for column in columns], block_size)
    return relation.schema.names, [column.dictionary for column in columns], blocks


def save_database(
    path: PathLike,
    catalog: Catalog,
    block_size: int = DEFAULT_BLOCK_SIZE,
    table_versions: "dict[str, int] | None" = None,
    views: "list[dict[str, object]] | None" = None,
) -> Path:
    """Save every table of ``catalog`` to the store directory ``path``.

    Code columns are written in each relation's scan order (so a pre-clustered
    relation gets tight, disjoint zone maps), exact statistics are gathered
    once and embedded in each file header, and the manifest — written last
    — records the table files plus declared keys and foreign keys.

    The save is atomic at the manifest boundary: every table file goes to
    a fresh generation-suffixed name and is fsynced, the manifest (with
    its content digest) is staged to a temp file and committed with
    ``os.replace``, and any failure before the commit deletes this save's
    files and leaves the previously committed store byte-identical.

    ``table_versions`` and ``views`` are the session layer's mutation
    counters and maintained-view payloads (:mod:`repro.views.persist`);
    both are optional manifest keys, so stores written by older code load
    fine (``load_store`` defaults them) and the manifest format number is
    unchanged.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    generation = f"{os.getpid():x}-{next(_generation_counter):04x}"
    staged_manifest = path / f"{MANIFEST_NAME}.g{generation}.tmp"
    tables: dict[str, str] = {}
    written: list[Path] = []
    try:
        for index, name in enumerate(sorted(catalog)):
            relation = catalog[name]
            statistics = TableStatistics.from_relation(relation)
            filename = _table_filename(index, name, generation)
            fault_registry.fire("storage.table_write")
            written.append(path / filename)
            write_table_file(
                path / filename,
                name,
                *_table_source(relation, block_size),
                block_size=block_size,
                statistics=statistics_payload(statistics),
            )
            tables[name] = filename
        manifest: dict[str, Any] = {
            "format": MANIFEST_VERSION,
            "tables": tables,
            "keys": {
                name: [list(key) for key in keys]
                for name, keys in catalog.declared_keys.items()
            },
            "foreign_keys": [
                {
                    "table": fk.table,
                    "attributes": list(fk.attributes),
                    "ref_table": fk.ref_table,
                    "ref_attributes": list(fk.ref_attributes),
                }
                for fk in catalog.foreign_keys
            ],
        }
        if table_versions:
            unknown = sorted(set(table_versions) - set(catalog))
            if unknown:
                raise StorageError(f"table_versions names unknown table(s) {unknown!r}")
            manifest["table_versions"] = {
                name: int(version) for name, version in table_versions.items()
            }
        if views:
            manifest["views"] = list(views)
        manifest["digest"] = _manifest_digest(manifest)
        with open(staged_manifest, "w", encoding="utf-8") as stream:
            stream.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
            stream.flush()
            os.fsync(stream.fileno())
        fault_registry.fire("storage.manifest_write")
        os.replace(staged_manifest, path / MANIFEST_NAME)
        _fsync_directory(path)
    except BaseException:
        # Undo this save's files; the committed store is untouched.
        for file in written:
            try:
                file.unlink()
            except OSError:
                pass
        try:
            staged_manifest.unlink()
        except OSError:
            pass
        raise
    _sweep_orphans(path, keep=set(tables.values()))
    return path


def load_catalog(path: PathLike) -> Catalog:
    """Reopen a store directory as a catalog of lazy stored relations."""
    catalog, _versions, _views = load_store(path)
    return catalog


def load_store(
    path: PathLike,
) -> "tuple[Catalog, dict[str, int], list[dict[str, object]]]":
    """Reopen a store: (catalog, table versions, maintained-view payloads).

    ``table_versions`` and ``views`` are optional manifest keys (written
    by sessions that mutated tables or registered views); stores from
    older writers yield ``{}`` and ``[]``.
    """
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.is_file():
        raise StorageError(f"{path} is not a saved store (no {MANIFEST_NAME})")
    try:
        raw = manifest_path.read_bytes()
    except OSError as error:
        raise StorageError(f"cannot read store manifest {manifest_path}: {error}") from None
    raw = fault_registry.fire("storage.manifest_load", raw)
    try:
        manifest = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise StorageError(f"cannot read store manifest {manifest_path}: {error}") from None
    if not isinstance(manifest, dict) or manifest.get("format") != MANIFEST_VERSION:
        raise StorageError(f"{manifest_path} has an unsupported manifest format")
    # Structural checks first — a hand-edited manifest gets the precise
    # field-level error; the digest check then catches any other content
    # change *before* a single table file is opened.
    versions_raw = manifest.get("table_versions", {})
    if not isinstance(versions_raw, dict):
        raise StorageError(f"{manifest_path}: table_versions must be an object")
    views_raw = manifest.get("views", [])
    if not isinstance(views_raw, list):
        raise StorageError(f"{manifest_path}: views must be a list")
    recorded = manifest.get("digest")
    if recorded is not None:
        recomputed = _manifest_digest(manifest)
        if recorded != recomputed:
            raise StorageCorruptionError(
                f"{manifest_path} digest mismatch: manifest records {recorded}, "
                f"content hashes to {recomputed}",
                file=str(manifest_path),
                expected=recorded,
                actual=recomputed,
            )
    catalog = Catalog()
    for name, filename in manifest.get("tables", {}).items():
        reader = TableReader(path / filename)
        catalog.add_table(name, StoredRelation(reader))
    for name, keys in manifest.get("keys", {}).items():
        for key in keys:
            catalog.declare_key(name, key)
    for fk in manifest.get("foreign_keys", []):
        catalog.declare_foreign_key(
            fk["table"], fk["attributes"], fk["ref_table"], fk["ref_attributes"]
        )
    versions = {str(name): int(version) for name, version in versions_raw.items()}
    return catalog, versions, list(views_raw)
