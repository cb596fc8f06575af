"""The key-column seam: integer key codes for every division algorithm.

A division operator never looks at key *values* in its hot loop — it wants,
per key side (quotient candidates ``A``, shared values ``B``, divisor groups
``C``), one integer code per tuple plus the list mapping codes back to
keys.  :func:`encode_keys` is the single place that produces them:

* when every chunk of the input carries code columns over one shared
  dictionary (a scan, possibly under a dictionary-filtered segment, or a
  partition worker's input: the exchange ships code columns), the cached
  codes are **read directly** — concatenated, compacted to the keys
  actually present, composite keys combined by mixed radix — so whatever
  the operator then looks up per key costs one lookup per *dictionary
  entry*, not per tuple;
* otherwise (join output, a stream that changes dictionaries mid-way, a
  partition that was spilled or routed as tuples) the key values are
  dictionary-encoded **on the fly**, one ``dict`` operation per tuple —
  the cost of the per-algorithm loops this replaces.

Codes are dense (every code in ``range(len(keys))`` occurs) and their
order is unspecified, which is sound because quotients are sets.
"""

from __future__ import annotations

import itertools
from typing import Any, NamedTuple, Optional

from repro.physical.base import Chunk, PhysicalOperator, TupleProjector
from repro.physical.compile.kernels import PythonBitsetKernel, active_kernel
from repro.relation.encoding import DenseEncoder, merge_code_columns
from repro.relation.schema import Schema

__all__ = ["KeySide", "EncodedKeys", "KeyedDivisionOperator", "encode_keys"]


class KeySide:
    """One key side of an encoded input: per-tuple codes and code → key."""

    __slots__ = ("codes", "keys", "_single")

    def __init__(self, codes: Any, keys: list[Any], single: bool) -> None:
        #: One integer per input tuple (a list, or an ndarray from cached codes).
        self.codes = codes
        #: code → key: the bare value for one attribute, a value tuple otherwise.
        self.keys = keys
        self._single = single

    def value_tuple(self, code: int) -> tuple[Any, ...]:
        """The aligned value tuple of one key (for building output tuples)."""
        key = self.keys[code]
        return (key,) if self._single else key

    def table(self, mapping: dict[Any, Any], default: Any) -> list[Any]:
        """``mapping`` re-indexed by code: one lookup per dictionary entry."""
        get = mapping.get
        return [get(key, default) for key in self.keys]


class EncodedKeys(NamedTuple):
    """The key sides of one drained input, in the order they were asked for."""

    sides: tuple[KeySide, ...]
    #: "cached codes (N chunks)" or "encoded on the fly" (what ``explain``
    #: prints): an unset batch size reads one chunk per scan block.
    source: str


class KeyedDivisionOperator(PhysicalOperator):
    """What all division algorithms share: the dividend's key columns.

    Quotient groups are keyed by ``A``; partitioning the dividend on ``A``
    keeps each group (and its containment test against the divisor, or
    every divisor group) within one partition, so per-partition results
    union to the global result — the PartitionedDivision wrapper relies
    on it.
    """

    key_disjoint_safe = True

    #: Where the most recent execution's dividend keys came from and which
    #: bitset kernel ran (``None`` before the first execution);
    #: ``explain(analyze=True)`` prints both.
    key_source: Optional[str] = None
    kernel_name: Optional[str] = None

    def _dividend_keys(self, a: Schema, b: Schema) -> tuple[PythonBitsetKernel, KeySide, KeySide]:
        """``(kernel, candidates, values)`` of the dividend (first child)."""
        kernel = active_kernel()
        keys = encode_keys(self._children[0], a, b)
        self.key_source, self.kernel_name = keys.source, kernel.name
        return (kernel, *keys.sides)


def encode_keys(source: PhysicalOperator, *attribute_sets: Schema) -> EncodedKeys:
    """Drain ``source`` and encode each attribute set as one key side."""
    stream = source.chunks()
    first = next(stream, None)
    if first is not None and first.columns is not None:
        # Coded chunks are cheap to hold (their tuples are still deferred),
        # so keep them in case a later chunk breaks the shared-dictionary run.
        chunks = [first, *stream]
        positions = [
            [source.schema.position(name) for name in attributes.names]
            for attributes in attribute_sets
        ]
        if _shares_dictionaries(chunks, source.schema, {p for side in positions for p in side}):
            sides = tuple(_cached_side(chunks, side) for side in positions)
            count = "1 chunk" if len(chunks) == 1 else f"{len(chunks)} chunks"
            return EncodedKeys(sides, f"cached codes ({count})")
        stream = iter(chunks)
    elif first is not None:
        stream = itertools.chain((first,), stream)
    # On the fly: one dict operation per tuple and side, chunk by chunk.
    projectors = [TupleProjector(attributes) for attributes in attribute_sets]
    encoders = [DenseEncoder() for _ in attribute_sets]
    for chunk in stream:
        for projector, encoder in zip(projectors, encoders):
            encoder.extend(projector.keys_of(chunk))
    sides = tuple(
        KeySide(encoder.codes, encoder.finish(), len(attributes) == 1)
        for encoder, attributes in zip(encoders, attribute_sets)
    )
    return EncodedKeys(sides, "encoded on the fly")


def _shares_dictionaries(chunks: list[Chunk], schema: Schema, positions: set[int]) -> bool:
    """Do all chunks carry code columns, aligned with ``schema``, over the
    same dictionaries (as the first chunk's) at ``positions``?"""
    first = chunks[0].columns
    for chunk in chunks:
        columns = chunk.columns
        if columns is None or chunk.schema.names != schema.names:
            return False
        for position in positions:
            if columns[position].dictionary is not first[position].dictionary:
                return False
    return True


def _cached_side(chunks: list[Chunk], positions: list[int]) -> KeySide:
    """One key side read from the chunks' cached code columns."""
    first = chunks[0].columns
    codes, keys = merge_code_columns(
        [[chunk.columns[position].codes for chunk in chunks] for position in positions],
        [first[position].dictionary for position in positions],
        complete=len(chunks) == 1 and all(first[position].complete for position in positions),
    )
    return KeySide(codes, keys, len(positions) == 1)
