"""Persistent columnar storage: block files, stored scans, spill partitions.

The out-of-core layer of the library:

* :mod:`repro.storage.format` — the on-disk block format: per-table files
  of fixed-size column-major blocks — typed code pages over per-column
  dictionary pages — with per-block min/max zone maps.
* :mod:`repro.storage.store` — directory stores (``Database.save(path)`` /
  ``repro.connect(path)``) and the lazy :class:`StoredRelation`.
* :mod:`repro.storage.scan` — the :class:`StoredScan` physical operator
  streaming blocks straight into the chunk pipeline, skipping blocks whose
  zone maps rule out the pushed-down predicate.
* :mod:`repro.storage.spill` — spill-to-disk partitions for the exchange
  layer's memory budget (``connect(memory_budget_mb=...)``).
"""

from repro.storage.format import (
    DEFAULT_BLOCK_SIZE,
    TableReader,
    block_may_match,
    write_table_file,
)
from repro.storage.scan import StoredScan
from repro.storage.spill import SPILL_BLOCK_TUPLES, SpilledPartition, SpillWriter
from repro.storage.store import (
    StoredRelation,
    load_catalog,
    load_store,
    save_database,
    statistics_from_payload,
    statistics_payload,
)

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "SPILL_BLOCK_TUPLES",
    "SpilledPartition",
    "SpillWriter",
    "StoredRelation",
    "StoredScan",
    "TableReader",
    "block_may_match",
    "load_catalog",
    "load_store",
    "save_database",
    "statistics_from_payload",
    "statistics_payload",
    "write_table_file",
]
