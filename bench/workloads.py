"""The six workloads: data, session options and seeded operation streams.

Every workload builds a :class:`Session` -- a ``repro`` database opened
through the front door, the oracle :class:`~bench.oracle.Model` over the same
generated tables, and an endless, seeded stream of :class:`Op` objects.  The
engine only ever sees generated tables and SQL text rendered here from
:class:`~bench.oracle.QuerySpec`; the oracle sees the spec, never the SQL.

The SQL subset has no join or aggregate syntax (a two-table ``FROM`` is a
product), so the "divide-then-join" and "divide + count" shapes of the
original plan are not expressible as text; join-then-divide uses a join on
the small divisor side (``parts`` x ``wanted``).
"""

from __future__ import annotations

import itertools
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

import repro
from repro import Relation

from bench import oracle
from bench.datagen import Dataset, apportion, generate, part_code, supplier_code
from bench.layers import resolve
from bench.oracle import Model, QuerySpec

__all__ = ["Op", "Session", "Workload", "WORKLOADS", "SCALES", "render_sql", "stop_workers"]

#: ``supplies`` sizes per scale.  ``tiny`` is for the self-check.
SCALES: dict[str, dict[str, int]] = {
    "full": {
        "adhoc_small": 2_000,
        "repeat_hot": 2_000,
        "divide_mem": 300_000,
        "divide_stored": 300_000,
        "divide_parallel": 150_000,
        # Not the planned 100k: there the one re-query per mix cycle costs
        # 230 ms, a run holds 15 to 19 of them and their 90th percentile
        # spreads by 26%; at 30k a run holds more than a hundred.
        "view_churn": 30_000,
    },
    "tiny": dict.fromkeys(
        ("adhoc_small", "repeat_hot", "divide_mem", "divide_stored", "divide_parallel", "view_churn"),
        600,
    ),
}


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Op:
    """One front-door operation and what the oracle needs to check it."""

    kind: str  # "query" | "insert" | "delete" | "view" | "save" | "open"
    text: str = ""  # SQL of a query / of the first query after an open
    spec: Optional[QuerySpec] = None  # expected result of query / view / open
    table: str = ""
    rows: tuple[tuple[str, ...], ...] = ()
    view: str = ""


@dataclass
class Session:
    """One workload instance: database, oracle and operation stream."""

    db: repro.Database
    model: Model
    ops: Iterator[Op]
    #: Operations per mix cycle; a timed run stops only on a cycle boundary
    #: so every run measures the same operation mix.
    cycle: int
    warmup: list[Op]
    #: ``repro.connect`` options, reused when an ``open`` op reconnects.
    options: dict[str, Any]
    workdir: Path
    #: The most recently saved store (``open`` ops connect to it).
    store: Optional[Path] = None
    saves: int = 0
    #: Bytes on disk of the most recent save.
    saved_bytes: int = 0

    def close(self) -> None:
        """Tear down what the session owns: temp stores and the pool."""
        stop_workers()
        shutil.rmtree(self.workdir, ignore_errors=True)


def stop_workers() -> None:
    """Shut the engine's worker pool down and wait for its processes."""
    shutdown_pool = resolve("repro.physical.parallel:shutdown_pool")
    if shutdown_pool is not None:
        shutdown_pool()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, str, Path], Session]
    #: Operations the traced run performs per second of ``--seconds`` (a
    #: fixed count, so exact counters repeat; sized to ~3 s on the seed).
    trace_ops_per_second: float


# ----------------------------------------------------------------------
# SQL rendering
# ----------------------------------------------------------------------
def _quoted(value: str) -> str:
    return f"'{value}'"


def _where(conditions: list[str]) -> str:
    return f" WHERE {' AND '.join(conditions)}" if conditions else ""


def _divide_by(spec: QuerySpec, s: str, p: str, swap_on: bool) -> str:
    """``DIVIDE BY`` spelling; ``s``/``p`` are the correlation names."""
    range_conditions = []
    if spec.supplier_lo is not None:
        range_conditions.append(f"s_no >= {_quoted(spec.supplier_lo)}")
    if spec.supplier_hi is not None:
        range_conditions.append(f"s_no < {_quoted(spec.supplier_hi)}")
    dividend = (
        f"(SELECT s_no, p_no FROM supplies{_where(range_conditions)}) AS {s}"
        if range_conditions
        else f"supplies AS {s}"
    )
    below = [f"p_no < {_quoted(spec.part_below)}"] if spec.part_below is not None else []
    if spec.divisor == oracle.BY_COLOR:
        divisor = f"(SELECT p_no, color FROM parts{_where(below)}) AS {p}" if below else f"parts AS {p}"
    elif spec.divisor == oracle.COLOR:
        conditions = [f"color = {_quoted(spec.color or '')}"] + below
        divisor = f"(SELECT p_no FROM parts{_where(conditions)}) AS {p}"
    elif spec.divisor == oracle.WANTED:
        divisor = f"(SELECT p_no FROM wanted{_where(below)}) AS {p}" if below else f"wanted AS {p}"
    elif spec.divisor == oracle.WANTED_COLOR:
        conditions = ["a.p_no = w.p_no", f"a.color = {_quoted(spec.color or '')}"]
        if spec.part_below is not None:
            conditions.append(f"a.p_no < {_quoted(spec.part_below)}")
        divisor = f"(SELECT a.p_no FROM parts AS a, wanted AS w{_where(conditions)}) AS {p}"
    else:
        raise ValueError(f"unknown divisor shape {spec.divisor!r}")
    on = f"{p}.p_no = {s}.p_no" if swap_on else f"{s}.p_no = {p}.p_no"
    return f"SELECT {', '.join(spec.columns)} FROM {dividend} DIVIDE BY {divisor} ON {on}"


def _not_exists(spec: QuerySpec) -> str:
    """Double ``NOT EXISTS`` spelling (base-table dividend, ``parts`` divisor)."""
    if spec.supplier_lo is not None or spec.supplier_hi is not None:
        raise ValueError("the NOT EXISTS pattern has no dividend selection")
    middle = []
    if spec.divisor == oracle.BY_COLOR:
        outer, middle = "supplies AS s1, parts AS p1", ["p2.color = p1.color"]
    elif spec.divisor == oracle.COLOR:
        outer, middle = "supplies AS s1", [f"p2.color = {_quoted(spec.color or '')}"]
    else:
        raise ValueError(f"no NOT EXISTS spelling for divisor shape {spec.divisor!r}")
    if spec.part_below is not None:
        middle.append(f"p2.p_no < {_quoted(spec.part_below)}")
    return (
        f"SELECT DISTINCT {', '.join(spec.columns)} FROM {outer} WHERE NOT EXISTS ("
        f"SELECT * FROM parts AS p2 WHERE {' AND '.join(middle)} AND NOT EXISTS ("
        "SELECT * FROM supplies AS s2 WHERE s2.p_no = p2.p_no AND s2.s_no = s1.s_no))"
    )


def render_sql(spec: QuerySpec, form: str = "divide") -> str:
    """SQL text for ``spec``: ``divide``, ``divide_alt`` (other correlation
    names and ON order; same canonical fingerprint) or ``not_exists``."""
    if form == "divide":
        return _divide_by(spec, "s", "p", swap_on=False)
    if form == "divide_alt":
        return _divide_by(spec, "dividend", "divisor", swap_on=True)
    if form == "not_exists":
        return _not_exists(spec)
    raise ValueError(f"unknown SQL form {form!r}")


def _query(spec: QuerySpec, form: str = "divide") -> Op:
    return Op("query", text=render_sql(spec, form), spec=spec)


# ----------------------------------------------------------------------
# shared set-up
# ----------------------------------------------------------------------
def _relations(data: Dataset, clustered: bool = False) -> dict[str, Relation]:
    supplies = Relation.from_aligned(["s_no", "p_no"], data.supplies)
    if clustered:
        supplies = supplies.clustered(["s_no"])
    return {
        "supplies": supplies,
        "parts": Relation.from_aligned(["p_no", "color"], data.parts),
        "wanted": Relation.from_aligned(["p_no"], data.wanted),
    }


def _model(data: Dataset) -> Model:
    return Model(data.supplies, data.parts, data.wanted)


def _safe_part_index(data: Dataset) -> int:
    """Smallest ``k`` such that every colour has a part below ``p<k>``.

    A ``p_no < bound`` filter at or above it never empties a colour group
    (the recognizer turns an emptied group into no group at all, which the
    double NOT EXISTS semantics would not).
    """
    first: dict[str, str] = {}
    for code, color in sorted(data.parts):
        first.setdefault(color, code)
    return int(max(first.values())[1:]) + 1


def _supplier_range(data: Dataset, rng: random.Random, tag: str) -> tuple[str, str]:
    low, high = sorted(rng.sample(range(data.num_suppliers + 1), 2))
    return supplier_code(low) + tag, supplier_code(high) + tag


def _division_shapes(data: Dataset) -> list[Op]:
    """Seven recurring division shapes over ``supplies``.

    Latencies cluster per shape, and a percentile that falls on the edge of
    a cluster measures the machine's noise, not the engine.  The shapes
    therefore come at three cost levels -- two over the whole table, three
    over half of the suppliers, two over a quarter -- so that the median
    falls in the middle of the middle cluster and the 90th percentile well
    inside the top one.
    """
    # Colours by group size (largest, middle, smallest): the same divisor
    # sizes for every seed.
    colors = (data.colors[0], data.colors[len(data.colors) // 2], data.colors[-1])
    quarter, middle, three_quarters = (supplier_code(data.num_suppliers * k // 4) for k in (1, 2, 3))
    return [
        # The whole table: the recognized NOT EXISTS spellings of Q3 and Q2.
        _query(QuerySpec(oracle.BY_COLOR), "not_exists"),
        _query(QuerySpec(oracle.COLOR, color=colors[1]), "not_exists"),
        # Half of the suppliers: the selection fuses into a compiled segment.
        _query(QuerySpec(oracle.BY_COLOR, supplier_lo=middle)),  # Q1: great divide
        _query(QuerySpec(oracle.COLOR, color=colors[0], supplier_hi=middle)),  # Q2: small divide per colour
        _query(QuerySpec(oracle.WANTED, supplier_lo=middle)),
        # A quarter of the suppliers.
        _query(QuerySpec(oracle.COLOR, color=colors[2], supplier_hi=quarter)),
        _query(QuerySpec(oracle.BY_COLOR, supplier_lo=three_quarters)),
    ]


# ----------------------------------------------------------------------
# adhoc_small / repeat_hot
# ----------------------------------------------------------------------
def _adhoc_ops(data: Dataset, rng: random.Random, start: int = 0) -> Iterator[Op]:
    """Six templates; a per-operation tag in every constant makes each text
    (and canonical fingerprint) new, so plan and result caches always miss."""
    safe = _safe_part_index(data)
    num_parts = len(data.parts)
    for index in itertools.count(start):
        tag = f"x{index:06d}"
        color = rng.choice(data.colors)
        low, high = _supplier_range(data, rng, tag)
        below = part_code(rng.randrange(safe, num_parts + 1)) + tag
        template = index % 6
        if template == 0:  # Q1 DIVIDE BY over a supplier range
            yield _query(QuerySpec(oracle.BY_COLOR, supplier_lo=low, supplier_hi=high))
        elif template == 1:  # Q2 with a colour constant
            yield _query(QuerySpec(oracle.COLOR, color=color, supplier_lo=low))
        elif template == 2:  # Q3, double NOT EXISTS
            yield _query(QuerySpec(oracle.BY_COLOR, part_below=below), "not_exists")
        elif template == 3:  # Q2 as NOT EXISTS
            yield _query(QuerySpec(oracle.COLOR, color=color, part_below=below), "not_exists")
        elif template == 4:  # sigma-then-divide
            yield _query(QuerySpec(oracle.WANTED, supplier_hi=high))
        else:  # join-then-divide (the join builds the divisor)
            yield _query(QuerySpec(oracle.WANTED_COLOR, color=color, supplier_lo=low))


def _build_adhoc_small(seed: int, scale: str, workdir: Path) -> Session:
    data = generate(seed, SCALES[scale]["adhoc_small"])
    rng = random.Random(seed + 1)
    # Warm-up texts carry tags the timed stream never reaches.
    warmup = list(itertools.islice(_adhoc_ops(data, random.Random(seed + 2), 900_000), 30))
    return Session(
        db=repro.connect(_relations(data)),
        model=_model(data),
        ops=_adhoc_ops(data, rng),
        cycle=6,
        warmup=warmup,
        options={},
        workdir=workdir,
    )


def _hot_texts(data: Dataset) -> list[Op]:
    """44 texts in 16 canonical classes (spellings share a fingerprint)."""
    safe = part_code(_safe_part_index(data))
    classes = [QuerySpec(oracle.BY_COLOR), QuerySpec(oracle.BY_COLOR, part_below=safe)]
    classes += [QuerySpec(oracle.COLOR, color=color) for color in data.colors[:8]]
    classes += [QuerySpec(oracle.COLOR, color=color, part_below=safe) for color in data.colors[:2]]
    parts_based = len(classes)
    classes.append(QuerySpec(oracle.WANTED))
    classes += [QuerySpec(oracle.WANTED_COLOR, color=color) for color in data.colors[:3]]
    texts = []
    for position, spec in enumerate(classes):
        forms = ("divide", "divide_alt", "not_exists") if position < parts_based else ("divide", "divide_alt")
        texts.extend(_query(spec, form) for form in forms)
    return texts


def _build_repeat_hot(seed: int, scale: str, workdir: Path) -> Session:
    data = generate(seed, SCALES[scale]["repeat_hot"])
    rng = random.Random(seed + 1)
    texts = _hot_texts(data)
    # Zipf popularity over a fixed ranking, dealt exactly: every seed runs
    # the same multiset of texts (a NOT EXISTS spelling costs more to parse
    # than a DIVIDE BY one) and shuffles only their order.
    random.Random(0).shuffle(texts)
    weights = [1.0 / rank for rank in range(1, len(texts) + 1)]
    sequence = [texts[index] for index in apportion(4096, weights)]
    rng.shuffle(sequence)
    return Session(
        db=repro.connect(_relations(data)),
        model=_model(data),
        ops=itertools.cycle(sequence),
        cycle=64,  # no mix to preserve: just the block ops_per_s is taken over
        warmup=texts,
        options={},
        workdir=workdir,
    )


# ----------------------------------------------------------------------
# divide_mem / divide_parallel / divide_stored
# ----------------------------------------------------------------------
def _build_divide(name: str, options: dict[str, Any], **knobs: Any) -> Callable[[int, str, Path], Session]:
    """Builder of an in-memory session cycling the division shapes, plans
    warm (the warm-up also starts the worker pool when ``workers`` > 1)."""

    def build(seed: int, scale: str, workdir: Path) -> Session:
        data = generate(seed, SCALES[scale][name], **knobs)
        shapes = _division_shapes(data)
        return Session(
            db=repro.connect(_relations(data), **options),
            model=_model(data),
            ops=itertools.cycle(shapes),
            cycle=len(shapes),
            warmup=shapes,
            options=options,
            workdir=workdir,
        )

    return build


def _save_base_store(seed: int, scale: str, store: str) -> None:
    data = generate(seed, SCALES[scale]["divide_stored"])
    repro.connect(_relations(data, clustered=True)).save(store)


def _build_divide_stored(seed: int, scale: str, workdir: Path) -> Session:
    # The store is written by a child process, so the in-memory relations it
    # is saved from never count in this process's ``peak_rss_mb``.  A plain
    # subprocess, waited for: ``multiprocessing``'s spawn would leave its
    # resource tracker running past the end of the benchmark.
    store = workdir / "base"
    code = "import sys; from bench.workloads import _save_base_store as save; save(int(sys.argv[1]), *sys.argv[2:])"
    subprocess.run(
        [sys.executable, "-c", code, str(seed), scale, str(store.resolve())],
        cwd=Path(__file__).resolve().parent.parent,
        check=True,
    )
    data = generate(seed, SCALES[scale]["divide_stored"])
    largest, smallest = data.colors[0], data.colors[-1]
    middle = supplier_code(data.num_suppliers // 2)
    # Two selective ranges on the clustered key, each a twenty-fifth of the
    # suppliers: zone maps skip most blocks.
    width = max(1, data.num_suppliers // 25)
    selective = [
        _query(
            QuerySpec(
                oracle.COLOR,
                color=color,
                supplier_lo=supplier_code(low),
                supplier_hi=supplier_code(low + width),
            )
        )
        for color, low in zip(data.colors, (data.num_suppliers // 4, 3 * data.num_suppliers // 4))
    ]
    scans = [  # five distinct plans: three full scans, two over half of the suppliers
        _query(QuerySpec(oracle.BY_COLOR)),
        _query(QuerySpec(oracle.COLOR, color=largest)),
        _query(QuerySpec(oracle.COLOR, color=smallest, supplier_hi=middle)),
        _query(QuerySpec(oracle.WANTED)),
        _query(QuerySpec(oracle.BY_COLOR, supplier_lo=middle)),
    ]
    # Per cycle: two selective queries, five full or half scans, one cold
    # open-and-first-query and one save.  A first-seen query costs up to 3 s
    # here and every text is warmed at set-up, hence few texts.  How many
    # blocks a selective range touches depends on where it falls, so selective
    # queries are the minority and both the median and the 90th percentile
    # fall inside a scan shape's cluster, never on the gap.  The first query
    # after an open is Q1: its rewrite inspects no data, so the cycle times
    # the store (connect, decode, divide), not the rewriter loading the table.
    mix = [
        selective[0], scans[0], scans[1],
        Op("open", text=scans[0].text, spec=scans[0].spec),
        selective[1], scans[2], scans[3], scans[4],
        Op("save"),
    ]  # fmt: skip
    options = {"result_cache_size": 0}
    return Session(
        db=repro.connect(store, **options),
        model=_model(data),
        ops=itertools.cycle(mix),
        cycle=len(mix),
        warmup=selective + scans,
        options=options,
        workdir=workdir,
        store=store,
    )


# ----------------------------------------------------------------------
# view_churn
# ----------------------------------------------------------------------
VIEWS = {
    "covers_color": QuerySpec(oracle.BY_COLOR),  # great divide, maintained
    "covers_wanted": QuerySpec(oracle.WANTED),  # small divide, maintained
}


def _churn_layout(rng: random.Random) -> list[str]:
    """50 slots: 32 dividend edits, 2 divisor edits, 15 view reads and one
    ad-hoc query placed directly after a dividend edit."""
    slots = ["insert"] * 16 + ["delete"] * 16 + ["divisor"] * 2 + ["view"] * 15
    rng.shuffle(slots)
    edits = [index for index, kind in enumerate(slots) if kind in ("insert", "delete")]
    slots.insert(rng.choice(edits) + 1, "query")
    return slots


def _churn_ops(data: Dataset, model: Model, rng: random.Random) -> Iterator[Op]:
    """Edits are always effective (inserted rows are new, deleted rows
    exist), so every query after an edit really misses both caches."""
    layout = _churn_layout(rng)
    part_codes = [code for code, _color in data.parts]
    views = itertools.cycle(VIEWS)
    colors = itertools.cycle(data.colors)
    removed: list[tuple[str, str]] = []
    undo: Optional[Op] = None
    fresh_parts = itertools.count(9000)
    for index in itertools.count():
        kind = layout[index % len(layout)]
        if kind == "view":
            name = next(views)
            yield Op("view", view=name, spec=VIEWS[name])
        elif kind == "query":
            yield _query(QuerySpec(oracle.COLOR, color=next(colors)))
        elif kind == "divisor":
            if undo is not None:
                yield undo
                undo = None
            elif index % 4 < 2:  # a new part makes its colour harder to cover
                row = (part_code(next(fresh_parts)), rng.choice(data.colors))
                undo = Op("delete", table="parts", rows=(row,))
                yield Op("insert", table="parts", rows=(row,))
            else:
                row = (rng.choice(sorted(set(part_codes) - {r[0] for r in model.tables["wanted"]})),)
                undo = Op("delete", table="wanted", rows=(row,))
                yield Op("insert", table="wanted", rows=(row,))
        else:
            rows: set[tuple[str, str]] = set()
            want = rng.choice((1, 1, 1, 2, 4))  # single row or small batch
            if kind == "insert" and removed and rng.random() < 0.25:
                # Re-insert a deleted row: coverage can come back.
                candidate = removed.pop(rng.randrange(len(removed)))
                if candidate not in model.tables["supplies"]:
                    rows.add(candidate)
            while len(rows) < want:
                supplier = supplier_code(rng.randrange(data.num_suppliers))
                have = model.parts_of.get(supplier, set())
                if kind == "insert":
                    part = rng.choice(part_codes)
                    if part not in have:
                        rows.add((supplier, part))
                elif have:
                    rows.add((supplier, rng.choice(sorted(have))))
            if kind == "delete":
                removed.extend(sorted(rows))
            yield Op(kind, table="supplies", rows=tuple(sorted(rows)))


def _build_view_churn(seed: int, scale: str, workdir: Path) -> Session:
    data = generate(seed, SCALES[scale]["view_churn"])
    model = _model(data)
    db = repro.connect(_relations(data))
    for name, spec in VIEWS.items():
        db.create_view(name, render_sql(spec))
    warmup = [Op("view", view=name, spec=spec) for name, spec in VIEWS.items()]
    warmup.append(_query(QuerySpec(oracle.COLOR, color=data.colors[0])))
    return Session(
        db=db,
        model=model,
        ops=_churn_ops(data, model, random.Random(seed + 1)),
        cycle=50,
        warmup=warmup,
        options={},
        workdir=workdir,
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "adhoc_small",
            "every SQL text is new, so plan and result caches always miss: sql, algebra, laws "
            "and optimizer do the work, physical little (the cold path of a first-seen query)",
            _build_adhoc_small,
            trace_ops_per_second=60,
        ),
        Workload(
            "repeat_hot",
            "44 texts in 16 canonical classes with Zipf popularity fit both caches: api caches, "
            "sql and algebra fingerprinting do all the work; bypass workload for executor changes",
            _build_repeat_hot,
            trace_ops_per_second=600,
        ),
        Workload(
            "divide_mem",
            "seven division shapes over a 300k-tuple in-memory table, plans warm, no result "
            "cache: physical scan, division kernels, compiled segments and materialize dominate",
            _build_divide("divide_mem", {"workers": 1, "result_cache_size": 0}),
            trace_ops_per_second=3.5,
        ),
        Workload(
            "divide_stored",
            "the divide_mem tables opened from a saved store: selective and full StoredScan "
            "divisions beside periodic save and cold open cycles, so storage reads and writes show",
            _build_divide_stored,
            trace_ops_per_second=4.5,
        ),
        Workload(
            "divide_parallel",
            "the division shapes at workers=2 over Zipf-skewed groups: exchange, pickling and "
            "pool supervision dominate; divide_mem is its serial twin",
            # A steeper Zipf makes hash partitions of the quotient key uneven.
            _build_divide("divide_parallel", {"workers": 2, "result_cache_size": 0}, skew=1.1),
            trace_ops_per_second=2.8,
        ),
        Workload(
            "view_churn",
            "single-row and small-batch edits, two maintained division views and re-queries "
            "right after an edit: the write side (api mutations, relation set ops, view counters)",
            _build_view_churn,
            trace_ops_per_second=100,
        ),
    )
}
