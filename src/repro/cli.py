"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``figures``
    Regenerate all 11 figures of the paper, print them and report how many
    match the paper exactly.
``query {Q1,Q2,Q3}``
    Run one of the Section 4 queries against the textbook
    suppliers-and-parts database through the session API — **one**
    execution supplies the printed plan, rules, statistics and result.
``sql "<query>"``
    Parse, optimize and execute an arbitrary query (``--explain`` prints
    the plan instead; ``--db`` picks a built-in database *or* the path of
    a store directory written by ``Database.save`` — stored tables stream
    lazily from disk; ``--batch-size N`` sets the executor chunk size (unset,
    scans hand up whole blocks);
    ``--workers N`` is an upper bound on the worker pool the planner uses
    where an exchange pays; ``--memory-budget-mb M`` keeps inputs above it
    behind an exchange that spills to disk; ``--compile``/``--no-compile``
    force or disable segment compilation).
``explain {Q1,Q2,Q3}``
    EXPLAIN ANALYZE one of the Section 4 queries (``--verbose`` appends the
    generated source of every compiled segment).
``analyze``
    Collect table statistics (cardinality, distinct counts, min/max,
    scan-order sortedness) for a database — the input the cost-based
    physical planner consumes.
``check``
    Statically verify the prepared plans of the paper workloads — schema
    soundness, operator contracts and compiled-segment audits — without
    executing anything (``--all-workloads`` sweeps every division
    algorithm × compile mode × worker count; ``--json`` emits the findings
    for CI gating; exit code 1 on any severity-``error`` finding).
``views``
    Maintained-view demo: register Q1 as a delta-maintained view over the
    textbook database, churn single-row edits through it and compare
    incremental maintenance against recompute-per-edit (``--edits N``
    sets the churn length; the view is verified RP601–RP604 afterwards).
``claims``
    Re-check the paper's qualitative efficiency claims on synthetic
    workloads (deterministic tuple-count measurements).
``mine``
    Run frequent itemset discovery on a generated basket dataset with both
    the Apriori baseline and the great-divide miner.
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from repro.api.database import connect
from repro.errors import ReproError
from repro.experiments import Q1, Q2, Q3, all_figures
from repro.experiments.claims import all_claims
from repro.mining import apriori, frequent_itemsets_by_great_divide, generate_baskets
from repro.relation.render import render_relation
from repro.workloads import generate_catalog, textbook_catalog

__all__ = ["main", "build_parser"]

_QUERIES = {"Q1": Q1, "Q2": Q2, "Q3": Q3}
_DATABASES = {
    "textbook": textbook_catalog,
    "random": generate_catalog,
}


def _database_source(name: str):
    """Resolve a ``--db`` value: a built-in name or a saved-store path.

    Built-in names win; anything else is treated as the path of a store
    directory written by :meth:`Database.save` and handed to ``connect``
    verbatim (the storage layer reports a clear error for bad paths).
    """
    return _DATABASES.get(name, name)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for the ``repro`` command-line interface."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Laws for Rewriting Queries Containing Division Operators'.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("figures", help="regenerate and verify the 11 figures of the paper")

    query = subparsers.add_parser("query", help="run one of the Section 4 queries")
    query.add_argument("name", choices=sorted(_QUERIES), help="which query to run")
    query.add_argument(
        "--no-recognizer",
        action="store_true",
        help="translate NOT EXISTS queries without the division recognizer",
    )

    sql = subparsers.add_parser("sql", help="run an arbitrary SQL query")
    sql.add_argument("text", help="the SQL text (quote it)")
    sql.add_argument(
        "--explain",
        action="store_true",
        help="print EXPLAIN ANALYZE output instead of the result table",
    )
    sql.add_argument(
        "--db",
        default="textbook",
        metavar="NAME|PATH",
        help="database to run against: "
        f"one of {sorted(_DATABASES)} or the path of a saved store directory",
    )
    sql.add_argument(
        "--no-recognizer",
        action="store_true",
        help="translate NOT EXISTS queries without the division recognizer",
    )
    sql.add_argument(
        "--batch-size",
        type=int,
        default=None,
        metavar="N",
        help="executor chunk size (tuples per chunk, scans included; unset, a scan's "
        "chunk is its whole block; results are unaffected)",
    )
    sql.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="upper bound on the worker pool for partition-parallel execution; "
        "the planner uses it only where the exchange pays (tuple-at-a-time "
        "joins and aggregates, quadratic divisions; results are unaffected)",
    )
    sql.add_argument(
        "--memory-budget-mb",
        type=float,
        default=None,
        metavar="M",
        help="spill budget for partition-parallel exchanges (needs --workers "
        "above 1): an input estimated above it runs behind an exchange whose "
        "buffered partitions spill to disk (results are unaffected)",
    )
    compilation = sql.add_mutually_exclusive_group()
    compilation.add_argument(
        "--compile",
        dest="compile_mode",
        action="store_const",
        const="on",
        default=None,
        help="force segment compilation of the physical plan "
        "(results are unaffected)",
    )
    compilation.add_argument(
        "--no-compile",
        dest="compile_mode",
        action="store_const",
        const="off",
        help="run the interpreted pipeline without segment compilation",
    )

    explain = subparsers.add_parser("explain", help="EXPLAIN ANALYZE a Section 4 query")
    explain.add_argument("name", choices=sorted(_QUERIES), help="which query to explain")
    explain.add_argument(
        "--verbose",
        action="store_true",
        help="also print the generated source of every compiled segment",
    )

    analyze = subparsers.add_parser(
        "analyze", help="collect table statistics (ANALYZE) for a database"
    )
    analyze.add_argument(
        "--db",
        default="textbook",
        metavar="NAME|PATH",
        help="database to analyze: "
        f"one of {sorted(_DATABASES)} or the path of a saved store directory "
        "(stored tables analyze from save-time metadata without a scan)",
    )
    analyze.add_argument(
        "tables", nargs="*", help="tables to analyze (default: all tables)"
    )

    check = subparsers.add_parser(
        "check", help="statically verify the prepared plans of the paper workloads"
    )
    check.add_argument(
        "--db",
        choices=sorted(_DATABASES),
        default="textbook",
        help="which suppliers-and-parts database to plan against",
    )
    check.add_argument(
        "--all-workloads",
        action="store_true",
        help="sweep every division algorithm × compile mode × worker count "
        "(default: each query once with default planner options)",
    )
    check.add_argument(
        "--json",
        action="store_true",
        help="emit the findings as JSON (the CI gate consumes this)",
    )

    views = subparsers.add_parser(
        "views", help="delta-maintained division views demo (insert/delete churn)"
    )
    views.add_argument(
        "--edits",
        type=int,
        default=200,
        metavar="N",
        help="number of single-row edits to churn through the view",
    )
    views.add_argument("--seed", type=int, default=7, help="random seed for the edit stream")

    subparsers.add_parser("claims", help="verify the paper's qualitative claims")

    mine = subparsers.add_parser("mine", help="frequent itemset discovery demo")
    mine.add_argument("--transactions", type=int, default=150, help="number of transactions")
    mine.add_argument("--min-support", type=int, default=30, help="absolute support threshold")
    mine.add_argument("--seed", type=int, default=7, help="random seed for the generator")

    return parser


def _command_figures() -> int:
    figures = all_figures()
    for figure in figures:
        print(figure.render())
        print()
    reproduced = sum(figure.verify() for figure in figures)
    print(f"{reproduced}/{len(figures)} figures reproduced exactly.")
    return 0 if reproduced == len(figures) else 1


def _command_query(name: str, use_recognizer: bool) -> int:
    database = connect(textbook_catalog)
    sql = _QUERIES[name]
    print(sql.strip())
    outcome = database.sql(sql, recognize_division=use_recognizer).run()
    print("\nlogical plan :", outcome.expression.to_text())
    print("rules fired  :", ", ".join(outcome.rules_fired) or "(none)")
    print(
        f"statistics   : max intermediate = {outcome.max_intermediate} tuples, "
        f"elapsed = {outcome.elapsed_seconds * 1000:.2f} ms"
    )
    print(render_relation(outcome.relation, f"result of {name}"))
    return 0


def _command_sql(
    text: str,
    explain: bool,
    db_name: str,
    use_recognizer: bool,
    batch_size: Optional[int],
    workers: Optional[int],
    compile_mode: Optional[str] = None,
    memory_budget_mb: Optional[float] = None,
) -> int:
    try:
        database = connect(
            _database_source(db_name),
            batch_size=batch_size,
            workers=workers,
            compile=compile_mode,
            memory_budget_mb=memory_budget_mb,
        )
        query = database.sql(text, recognize_division=use_recognizer)
        if explain:
            print(query.explain(analyze=True))
            return 0
        outcome = query.run()
    except ReproError as error:
        print(f"error: {error}")
        return 2
    print("logical plan :", outcome.expression.to_text())
    print("rules fired  :", ", ".join(outcome.rules_fired) or "(none)")
    print(
        f"statistics   : {len(outcome.relation)} result tuples, "
        f"max intermediate = {outcome.max_intermediate} tuples, "
        f"elapsed = {outcome.elapsed_seconds * 1000:.2f} ms"
    )
    print(render_relation(outcome.relation, "result"))
    return 0


def _command_explain(name: str, verbose: bool = False) -> int:
    database = connect(textbook_catalog)
    print(database.sql(_QUERIES[name]).explain(analyze=True, verbose=verbose))
    return 0


def _command_analyze(db_name: str, tables: Sequence[str]) -> int:
    try:
        database = connect(_database_source(db_name))
        report = database.analyze(*tables)
    except ReproError as error:
        print(f"error: {error}")
        return 2
    print(f"analyzed {len(report)} table(s) of the {db_name} database")
    print(report.render())
    return 0


def _command_check(db_name: str, all_workloads: bool, as_json: bool) -> int:
    from repro.analysis import check_workloads

    try:
        run = check_workloads(_DATABASES[db_name], all_workloads=all_workloads)
    except ReproError as error:
        print(f"error: {error}")
        return 2
    print(run.to_json() if as_json else run.render())
    return 0 if run.ok else 1


def _command_views(edits: int, seed: int) -> int:
    import random
    import time

    database = connect(textbook_catalog)
    view = database.create_view("q1", database.sql(Q1))
    print(view.explain())
    print(render_relation(view.relation(), "initial contents of q1"))

    suppliers = [f"s{i}" for i in range(1, 8)]
    parts = [f"p{i}" for i in range(1, 6)]
    rng = random.Random(seed)
    stream = [
        (rng.choice(["insert", "delete"]), (rng.choice(suppliers), rng.choice(parts)))
        for _ in range(max(0, edits))
    ]

    started = time.perf_counter()
    for operation, row in stream:
        if operation == "insert":
            database.insert("supplies", [row])
        else:
            database.delete("supplies", [row])
        view.relation()  # read after every edit, like a dashboard would
    maintained_elapsed = time.perf_counter() - started

    baseline = connect(textbook_catalog)
    started = time.perf_counter()
    for operation, row in stream:
        if operation == "insert":
            baseline.insert("supplies", [row])
        else:
            baseline.delete("supplies", [row])
        baseline.clear_cache()  # recompute-per-edit: no result cache
        baseline.sql(Q1).run()
    recompute_elapsed = time.perf_counter() - started

    report = database.verify_view("q1")
    speedup = recompute_elapsed / maintained_elapsed if maintained_elapsed else float("inf")
    print(f"edits applied    : {len(stream)} (deltas routed={view.deltas_applied})")
    print(f"maintained       : {maintained_elapsed * 1000:.1f} ms")
    print(f"recompute/edit   : {recompute_elapsed * 1000:.1f} ms  ({speedup:.1f}x slower)")
    print(f"view verification: {report.summary()}")
    print(render_relation(view.relation(), "final contents of q1"))
    return 0 if report.ok else 1


def _command_claims() -> int:
    checks = all_claims()
    for check in checks:
        print(check.summary())
    confirmed = sum(check.holds for check in checks)
    print(f"\n{confirmed}/{len(checks)} claims confirmed on this substrate.")
    return 0 if confirmed == len(checks) else 1


def _command_mine(transactions: int, min_support: int, seed: int) -> int:
    dataset = generate_baskets(num_transactions=transactions, seed=seed)
    via_divide = frequent_itemsets_by_great_divide(dataset.relation, min_support, algorithm="hash")
    via_apriori = apriori(dataset.baskets, min_support)
    print(f"transactions      : {dataset.num_transactions}")
    print(f"minimum support   : {min_support}")
    print(f"frequent itemsets : {len(via_divide)} (great divide) / {len(via_apriori)} (Apriori)")
    print(f"identical results : {via_divide == via_apriori}")
    for itemset, support in sorted(via_divide.items(), key=lambda kv: (-len(kv[0]), -kv[1]))[:10]:
        print(f"  {sorted(itemset)}  support={support}")
    return 0 if via_divide == via_apriori else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "figures":
        return _command_figures()
    if args.command == "query":
        return _command_query(args.name, not args.no_recognizer)
    if args.command == "sql":
        return _command_sql(
            args.text,
            args.explain,
            args.db,
            not args.no_recognizer,
            args.batch_size,
            args.workers,
            args.compile_mode,
            args.memory_budget_mb,
        )
    if args.command == "explain":
        return _command_explain(args.name, args.verbose)
    if args.command == "analyze":
        return _command_analyze(args.db, args.tables)
    if args.command == "check":
        return _command_check(args.db, args.all_workloads, args.json)
    if args.command == "views":
        return _command_views(args.edits, args.seed)
    if args.command == "claims":
        return _command_claims()
    if args.command == "mine":
        return _command_mine(args.transactions, args.min_support, args.seed)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover
