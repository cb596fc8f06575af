"""Seeded suppliers-and-parts generator with known, non-empty quotients.

One generator feeds every workload.  It produces the paper's Section 4
schema -- ``supplies(s_no, p_no)`` and ``parts(p_no, color)`` -- plus a small
``wanted(p_no)`` divisor table, as plain Python tuples with string codes
(``s000123``, ``p0042``), so the engine only ever sees generated tables and
SQL text.  (Pattern-constrained seeded codes in the spirit of SNIPPETS.md
Snippet 3.)

Knobs the engine's behaviour depends on:

* ``tuples``: target size of ``supplies`` (the dividend);
* ``num_colors``: number of divisor groups over the ``NUM_PARTS`` parts
  (colour groups are unequal, so per-colour divisors differ);
* ``containing_fraction``: share of suppliers *planted* to supply every part
  of one colour; half of those also supply every ``wanted`` part.  Quotients
  are therefore non-empty by construction, and ``planted_colors`` /
  ``planted_wanted`` record what the generator guarantees (the self-check
  holds the oracle's quotients against them);
* group sizes, colour sizes and planted counts are the same for every seed
  (a seed shuffles who gets what), so runs with different seeds measure the
  same amount of work;
* ``skew``: Zipf exponent for both supplier group sizes and part popularity
  (0 = uniform).  Skew is what makes hash partitions uneven.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

__all__ = ["Dataset", "apportion", "generate", "supplier_code", "part_code"]

#: Size of ``parts`` (the great divide's divisor) and the mean number of
#: parts per supplier; ``supplies`` has about ``tuples / MEAN_GROUP`` groups.
NUM_PARTS = 120
MEAN_GROUP = 24

_PALETTE = (
    "blue", "red", "green", "yellow", "black", "white", "orange", "purple",
    "brown", "pink", "grey", "cyan", "olive", "navy", "teal", "maroon",
)  # fmt: skip


def supplier_code(index: int) -> str:
    return f"s{index:06d}"


def part_code(index: int) -> str:
    return f"p{index:04d}"


def _color_name(index: int) -> str:
    base = _PALETTE[index % len(_PALETTE)]
    return base if index < len(_PALETTE) else f"{base}{index // len(_PALETTE)}"


@dataclass(frozen=True)
class Dataset:
    """Generated tables plus what the generator guarantees about them."""

    supplies: list[tuple[str, str]]
    parts: list[tuple[str, str]]
    wanted: list[tuple[str]]
    colors: tuple[str, ...]
    num_suppliers: int
    #: (s_no, color) pairs planted so that the supplier covers the colour.
    planted_colors: frozenset[tuple[str, str]]
    #: Suppliers planted to supply every ``wanted`` part.
    planted_wanted: frozenset[str]


def _zipf_weights(count: int, skew: float) -> list[float]:
    return [1.0 / (rank**skew) for rank in range(1, count + 1)]


def apportion(total: int, weights: list[float]) -> list[int]:
    """``total`` items dealt over ``len(weights)`` bins in proportion to the
    weights (largest remainders): the bin index of every item."""
    scale = total / sum(weights)
    shares = [weight * scale for weight in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(len(weights)), key=lambda i: shares[i] - counts[i], reverse=True)
    for index in by_remainder[: total - sum(counts)]:
        counts[index] += 1
    return [index for index, count in enumerate(counts) for _ in range(count)]


def generate(
    seed: int,
    tuples: int,
    num_colors: int = 8,
    containing_fraction: float = 0.25,
    skew: float = 0.8,
) -> Dataset:
    """Generate one dataset; the same arguments give the same tables."""
    if not 1 <= num_colors <= NUM_PARTS // 2:
        raise ValueError(f"need 1 <= num_colors <= {NUM_PARTS // 2}")
    if not 0.0 < containing_fraction <= 1.0:
        raise ValueError("containing_fraction must be in (0, 1]")
    if tuples < MEAN_GROUP:
        raise ValueError(f"need at least one supplier group: tuples >= {MEAN_GROUP}")
    rng = random.Random(seed)

    # Parts: colour group sizes (the per-colour divisors) are unequal but the
    # same for every seed -- colours[0] is the largest group -- so a seed
    # moves parts between colours, not the shape of the workload.
    colors = tuple(_color_name(i) for i in range(num_colors))
    color_of = apportion(NUM_PARTS, [1.0 + weight for weight in _zipf_weights(num_colors, 1.0)])
    rng.shuffle(color_of)
    part_codes = [part_code(i) for i in range(NUM_PARTS)]
    parts = [(part_codes[i], colors[color_of[i]]) for i in range(NUM_PARTS)]
    parts_of_color: list[list[int]] = [[] for _ in colors]
    for index, color in enumerate(color_of):
        parts_of_color[color].append(index)
    # ``wanted``: one part of each of (up to) six colours.
    wanted_parts = [rng.choice(group) for group in parts_of_color[:6]]

    # Part popularity: Zipf over a shuffled ranking.
    ranking = list(range(NUM_PARTS))
    rng.shuffle(ranking)
    cumulative = list(itertools.accumulate(_zipf_weights(NUM_PARTS, skew)))

    # Supplier group sizes: Zipf-shaped, rescaled after clipping so the
    # total stays near the tuple target.
    num_suppliers = max(1, tuples // MEAN_GROUP)
    shape = _zipf_weights(num_suppliers, skew)
    largest = max(1, NUM_PARTS // 2)
    scale = tuples / sum(shape)
    for _ in range(4):
        sizes = [min(largest, max(1, round(weight * scale))) for weight in shape]
        scale *= tuples / sum(sizes)
    rng.shuffle(sizes)

    # Planting: an exact share of the suppliers, colours dealt in fixed
    # proportions (smaller colour groups more often, so planted suppliers do
    # not all need huge groups); every second planted supplier also gets all
    # of ``wanted``.
    num_planted = max(1, round(containing_fraction * num_suppliers))
    planted_color = apportion(num_planted, [1.0 / len(group) for group in parts_of_color])
    rng.shuffle(planted_color)
    planted_at = dict(zip(rng.sample(range(num_suppliers), num_planted), planted_color))

    supplies: list[tuple[str, str]] = []
    planted_colors: set[tuple[str, str]] = set()
    planted_wanted: set[str] = set()
    for supplier in range(num_suppliers):
        code = supplier_code(supplier)
        chosen: set[int] = set()
        color = planted_at.get(supplier)
        if color is not None:
            chosen.update(parts_of_color[color])
            planted_colors.add((code, colors[color]))
            if len(planted_colors) % 2:
                chosen.update(wanted_parts)
                planted_wanted.add(code)
        want = max(sizes[supplier], len(chosen))
        while len(chosen) < want:
            chosen.update(
                rng.choices(ranking, cum_weights=cumulative, k=want - len(chosen))
            )
        supplies.extend((code, part_codes[index]) for index in sorted(chosen))
    return Dataset(
        supplies=supplies,
        parts=parts,
        wanted=[(part_codes[index],) for index in sorted(wanted_parts)],
        colors=colors,
        num_suppliers=num_suppliers,
        planted_colors=frozenset(planted_colors),
        planted_wanted=frozenset(planted_wanted),
    )
