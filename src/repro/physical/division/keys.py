"""The key-column seam: integer key codes in, a coded quotient out.

A division operator never looks at key *values* — it wants, per key side
(quotient candidates ``A``, shared values ``B``, divisor groups ``C``), one
integer code per tuple plus the list mapping codes back to keys, and it
answers with the codes of the keys in its quotient.  :func:`encode_keys` is
the single place that produces the codes:

* when every chunk of the input carries code columns over one shared
  dictionary (a scan, possibly under filters, or an exchange partition:
  the exchange hands on code columns), the cached
  codes are **read directly** — a single attribute's buffers joined and
  its dictionary *as they are*, composite keys combined by mixed radix —
  so whatever the operator then looks up per key costs one lookup per
  *dictionary entry*, not per tuple, and nothing is counted or renumbered
  on the way;
* otherwise (join output, a stream that changes dictionaries mid-way, a
  partition that was spilled or routed as tuples) the key values are
  dictionary-encoded **on the fly**, one ``dict`` operation per tuple —
  the cost of the per-algorithm loops this replaces.

The contract: codes index ``keys``; **a key may not occur** (a selection
under the division leaves dictionary entries no tuple carries), and the
order of codes is unspecified, which is sound because quotients are sets.
That is all a dividend needs: a value table is per dictionary entry
either way, an absent candidate's bitmask stays empty and cannot match a
non-empty divisor, and a great divide's groups come from divisor tuples, so
none is empty.  The callers that must count what occurs ask
:meth:`KeySide.dense` — the small divide's divisor side (its width), the
great divide's group and divisor-value sides (the group list, the bit
width; hundreds of tuples), and the dividend's candidates only under an
empty divisor, where the quotient is every candidate *that occurs*.

:meth:`KeyedDivisionOperator._emit` is the single way out: the quotient
is one chunk of code columns over the sides' own key lists (a composite
side decodes through its key tuples), cut by the operator's batch size.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterator, Sequence
from typing import Any, NamedTuple, Optional

from repro.physical.base import Chunk, PhysicalOperator, TupleProjector, _shares_dictionaries
from repro.physical.compile.kernels import PythonBitsetKernel, active_kernel
from repro.relation.encoding import CodeColumn, DenseEncoder, as_code_buffer, merge_code_columns
from repro.relation.schema import Schema

__all__ = ["KeySide", "EncodedKeys", "KeyedDivisionOperator", "encode_keys"]


class KeySide:
    """One key side of an encoded input: per-tuple codes and code → key."""

    __slots__ = ("codes", "keys", "single", "_dense")

    def __init__(self, codes: Any, keys: list[Any], single: bool, dense: bool) -> None:
        #: One integer per input tuple (a list, or a code buffer from cached codes).
        self.codes = codes
        #: code → key: the bare value for one attribute, a value tuple otherwise.
        self.keys = keys
        #: One attribute: ``keys`` can be a code column's dictionary.
        self.single = single
        self._dense = dense

    def dense(self) -> "KeySide":
        """This side with every key occurring: as it is when that is known
        (encoded on the fly, or a composite), else renumbered onto the keys
        its codes carry — one count over the codes, for the callers named
        in the module docstring."""
        if self._dense:
            return self
        column = CodeColumn(self.keys, self.codes).dense()
        return KeySide(column.codes, column.dictionary, self.single, True)

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

    def _emit(self, sides: Sequence[KeySide], codes: Sequence[Any]) -> Iterator[Chunk]:
        """The quotient: tuple ``i`` is the keys ``sides[j].keys[codes[j][i]]``
        side by side (the sides in schema order, one code buffer each).

        One chunk, cut into pieces of the batch size.  Single-attribute
        sides stay code columns over their own key lists — a scanned
        table's dictionary, so a selection above the division filters on
        it — and nothing is decoded before something reads the tuples; a
        composite side's keys are value tuples already and decode here.
        """
        coded = all(side.single for side in sides)
        self.key_source = f"{self.key_source} → {'coded quotient' if coded else 'tuples'}"
        if coded:
            columns = map(CodeColumn, (side.keys for side in sides), map(as_code_buffer, codes))
            chunk = Chunk.coded(self._schema, tuple(columns))
        else:
            parts = []
            for side, buffer in zip(sides, codes):
                keys = map(side.keys.__getitem__, buffer.tolist())
                parts.append(zip(keys) if side.single else keys)
            tuples = parts[0] if len(parts) == 1 else map(operator.add, *parts)
            chunk = Chunk(self._schema, list(tuples))
        return chunk.pieces(self.batch_size)


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
        KeySide(encoder.codes, encoder.finish(), len(attributes) == 1, dense=True)
        for encoder, attributes in zip(encoders, attribute_sets)
    )
    return EncodedKeys(sides, "encoded on the fly")


def _cached_side(chunks: list[Chunk], positions: list[int]) -> KeySide:
    """One key side read from the chunks' cached code columns."""
    first = chunks[0].columns
    codes, keys = merge_code_columns(
        [[chunk.columns[position].codes for chunk in chunks] for position in positions],
        [first[position].dictionary for position in positions],
    )
    # A composite comes back over the combinations that occur; a single
    # attribute over its column's whole dictionary.
    single = len(positions) == 1
    return KeySide(codes, keys, single, dense=not single)
