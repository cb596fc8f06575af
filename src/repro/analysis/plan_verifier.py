"""Schema-soundness and operator-contract verification of plans.

Two passes share this module:

* :func:`verify_expression` walks a **logical** expression bottom-up and
  recomputes every node's output schema from its children with independent
  logic (not the nodes' own cached ``_infer_schema`` results), so a tree
  corrupted *after* construction — a buggy rewrite mutating attributes in
  place, a stale cached schema — is caught even though the constructor-time
  validation never re-runs.

* :func:`verify_physical` walks a **physical** plan and checks (a) the same
  schema laws against each operator class's semantics, (b) the operator
  contracts: every class declares its own
  :class:`~repro.physical.base.PhysicalProperties`, partitioned wrappers
  only wrap algorithms marked
  :attr:`~repro.physical.base.PhysicalOperator.key_disjoint_safe`, exchange
  partition keys cover the grouping/quotient keys and exchange shapes and
  budgets are sane, and (c) join/division
  key **type agreement** by propagating sampled column types up from the
  leaf scans (a warning, since it is data-sampled, not declared).

All checks are static — nothing is executed, no operator state is consumed.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from repro.algebra.expressions import (
    AntiJoin,
    Difference,
    Expression,
    GreatDivide,
    GroupBy,
    Intersection,
    LeftOuterJoin,
    LiteralRelation,
    NaturalJoin,
    Product,
    Project,
    RelationRef,
    Rename,
    Select,
    SemiJoin,
    SmallDivide,
    ThetaJoin,
    Union,
)
from repro.algebra.predicates import Predicate
from repro.analysis.findings import Finding, finding
from repro.errors import ExecutionError, ReproError
from repro.faults import registry as fault_registry
from repro.physical.aggregate import HashAggregate
from repro.physical.base import PhysicalOperator, PhysicalProperties
from repro.physical.basic import (
    DifferenceOp,
    DuplicateElimination,
    Filter,
    IntersectOp,
    ProductOp,
    ProjectOp,
    RenameOp,
    UnionOp,
)
from repro.physical.division.great_divide_ops import (
    GREAT_DIVIDE_ALGORITHMS,
    GreatDivisionOperator,
    _great_division_schemas,
)
from repro.physical.division.small_divide_ops import (
    SMALL_DIVIDE_ALGORITHMS,
    DivisionOperator,
    _division_schemas,
)
from repro.physical.joins import (
    JOIN_ALGORITHMS,
    HashAntiJoin,
    HashJoin,
    HashLeftOuterJoin,
    HashSemiJoin,
    NestedLoopsJoin,
    NestedLoopsNaturalJoin,
)
from repro.physical.parallel.operators import (
    PartitionedAggregate,
    PartitionedDivision,
    PartitionedHashJoin,
    PartitionedOperator,
)
from repro.physical.scans import RelationScan, TableScan
from repro.relation.relation import NULL
from repro.relation.schema import Schema
from repro.storage.scan import StoredScan

__all__ = ["verify_expression", "verify_physical"]

#: How many leaf tuples the type-agreement check samples per scan.
_TYPE_SAMPLE = 200

#: Mapping of name → relation (duck-typed: Catalog or plain dict).
CatalogLike = Any


# ======================================================================
# logical pass
# ======================================================================
def verify_expression(
    expression: Expression, catalog: Optional[CatalogLike] = None
) -> tuple[list[Finding], int]:
    """Schema-soundness findings for a logical expression tree.

    Returns ``(findings, nodes_checked)``.  ``catalog`` (when given) lets
    :class:`RelationRef` declarations be checked against the live tables.
    """
    findings: list[Finding] = []
    seen: set[int] = set()
    order: list[Expression] = []

    def collect(node: Expression) -> None:
        if id(node) in seen:
            return
        seen.add(id(node))
        for child in node.children:
            collect(child)
        order.append(node)  # post-order: children precede parents

    collect(expression)

    for index, node in enumerate(order):
        where = f"{index:02d}:{node._pretty_label()}"
        before = len(findings)
        expected = _expected_logical_schema(node, findings, where, catalog)
        if expected is None or len(findings) > before:
            continue  # a specific finding already explains this node
        try:
            cached = node.schema
        except ReproError as error:
            findings.append(
                finding("RP106", f"schema computation failed: {error}", where, "logical")
            )
            continue
        if cached.name_set != expected.name_set:
            findings.append(
                finding(
                    "RP106",
                    f"cached schema {sorted(cached.name_set)!r} differs from the recomputed "
                    f"schema {sorted(expected.name_set)!r}",
                    where,
                    "logical",
                )
            )
    return findings, len(order)


def _expected_logical_schema(
    node: Expression,
    findings: list[Finding],
    where: str,
    catalog: Optional[CatalogLike],
) -> Optional[Schema]:
    """Recompute ``node``'s output schema from its children's cached schemas.

    Appends specific findings (RP101–RP105, RP107) and returns ``None``
    when the node is too broken for a schema to exist.
    """

    def emit(code: str, message: str) -> None:
        findings.append(finding(code, message, where, "logical"))

    if isinstance(node, RelationRef):
        declared = node.schema
        if catalog is not None:
            try:
                relation = catalog[node.name]
            except KeyError:
                emit("RP107", f"relation {node.name!r} is not in the catalog")
                return None
            if relation.schema.name_set != declared.name_set:
                emit(
                    "RP107",
                    f"relation {node.name!r} declares {sorted(declared.name_set)!r} but the "
                    f"catalog table has {sorted(relation.schema.name_set)!r}",
                )
                return None
        return declared
    if isinstance(node, LiteralRelation):
        return node.relation.schema

    child_schemas = [child.schema for child in node.children]

    if isinstance(node, Project):
        (child,) = child_schemas
        missing = node.attributes.name_set - child.name_set
        if missing:
            emit("RP101", f"projection references unknown attributes {sorted(missing)!r}")
            return None
        return node.attributes
    if isinstance(node, Select):
        (child,) = child_schemas
        missing = node.predicate.attributes - child.name_set
        if missing:
            emit("RP101", f"selection predicate references unknown attributes {sorted(missing)!r}")
            return None
        return child
    if isinstance(node, Rename):
        (child,) = child_schemas
        unknown = set(node.mapping) - child.name_set
        if unknown:
            emit("RP101", f"rename maps unknown attributes {sorted(unknown)!r}")
            return None
        renamed = [node.mapping.get(name, name) for name in child.names]
        duplicates = sorted({name for name in renamed if renamed.count(name) > 1})
        if duplicates:
            emit("RP102", f"rename targets collide on {duplicates!r}")
            return None
        return Schema(tuple(renamed))
    if isinstance(node, GroupBy):
        (child,) = child_schemas
        missing = node.grouping.name_set - child.name_set
        if missing:
            emit("RP101", f"grouping references unknown attributes {sorted(missing)!r}")
            return None
        for spec in node.aggregates:
            if spec.attribute is not None and spec.attribute not in child.name_set:
                emit("RP101", f"aggregate {spec.to_text()} references unknown attribute")
                return None
        outputs = node.grouping.names + tuple(spec.output for spec in node.aggregates)
        duplicates = sorted({name for name in outputs if outputs.count(name) > 1})
        if duplicates:
            emit("RP102", f"grouping output attributes collide on {duplicates!r}")
            return None
        return Schema(outputs)
    if isinstance(node, (Union, Intersection, Difference)):
        left, right = child_schemas
        if left.name_set != right.name_set:
            emit(
                "RP104",
                f"{type(node).__name__.lower()} inputs have different attribute sets: "
                f"{sorted(left.name_set)!r} vs {sorted(right.name_set)!r}",
            )
            return None
        return left
    if isinstance(node, (Product, ThetaJoin)):
        left, right = child_schemas
        shared = left.intersection(right)
        if len(shared):
            emit("RP105", f"both inputs carry attributes {sorted(shared.name_set)!r}")
            return None
        combined = left.union(right)
        if isinstance(node, ThetaJoin):
            missing = node.predicate.attributes - combined.name_set
            if missing:
                emit(
                    "RP101",
                    f"theta-join predicate references unknown attributes {sorted(missing)!r}",
                )
                return None
        return combined
    if isinstance(node, (NaturalJoin, LeftOuterJoin)):
        left, right = child_schemas
        return left.union(right)
    if isinstance(node, (SemiJoin, AntiJoin)):
        return child_schemas[0]
    if isinstance(node, SmallDivide):
        dividend, divisor = child_schemas
        if len(divisor) == 0:
            emit("RP103", "small divide: divisor schema is empty")
            return None
        if not divisor.is_subset(dividend):
            extra = sorted(divisor.difference(dividend).name_set)
            emit("RP103", f"small divide: divisor attributes {extra!r} missing from the dividend")
            return None
        quotient = dividend.difference(divisor)
        if len(quotient) == 0:
            emit("RP103", "small divide: quotient schema A is empty")
            return None
        return quotient
    if isinstance(node, GreatDivide):
        dividend, divisor = child_schemas
        shared = dividend.intersection(divisor)
        if len(shared) == 0:
            emit("RP103", "great divide: dividend and divisor share no attributes (B is empty)")
            return None
        quotient_a = dividend.difference(shared)
        if len(quotient_a) == 0:
            emit("RP103", "great divide: dividend-only attribute set A is empty")
            return None
        return quotient_a.union(divisor.difference(shared))
    # Unknown node kinds (extensions) pass through on their own word.
    return node.schema


# ======================================================================
# physical pass
# ======================================================================
def verify_physical(plan: PhysicalOperator) -> tuple[list[Finding], int]:
    """Schema/contract findings for a physical plan.  ``(findings, count)``."""
    findings: list[Finding] = []
    type_cache: dict[int, dict[str, frozenset[str]]] = {}
    seen: set[int] = set()
    count = 0
    for operator in plan.walk():
        if id(operator) in seen:
            continue
        seen.add(id(operator))
        count += 1
        where = operator.label
        _check_properties_contract(operator, findings, where)
        _check_operator_schema(operator, findings, where, type_cache)
        if isinstance(operator, PartitionedOperator):
            _check_exchange_contract(operator, findings, where)
    _check_one_block_scans(plan, findings)
    _check_fault_plan(findings)
    return findings, count


def _check_one_block_scans(plan: PhysicalOperator, findings: list[Finding]) -> None:
    """RP506: a stored scan set to hand up one block is a division's
    dividend, directly or under one ``Filter`` whose predicate is the only
    one pushed into the scan.

    The block is marked as the table's own, so whatever reads it answers
    from the table's summaries: a division does, and a filter directly
    above restricts it by the same summaries.  Anywhere else a whole
    table's chunk would break a streaming consumer's block bound, and a
    skip predicate other than the filter's own would make the mark claim
    tuples the chunk lacks.
    """
    dividends: set[int] = set()
    for operator in plan.walk():
        if isinstance(operator, (DivisionOperator, GreatDivisionOperator)):
            dividend = operator.children[0]
            if isinstance(dividend, Filter):
                scan = dividend.children[0]
                if isinstance(scan, StoredScan) and scan.skip_predicate in (
                    None,
                    dividend.predicate,
                ):
                    dividends.add(id(scan))
            elif isinstance(dividend, StoredScan) and dividend.skip_predicate is None:
                dividends.add(id(dividend))
    for operator in plan.walk():
        if isinstance(operator, StoredScan) and operator.one_block and id(operator) not in dividends:
            findings.append(
                finding(
                    "RP506",
                    f"{operator.describe()} hands up one block but is not a division's "
                    "dividend, directly or under one filter with the scan's skip predicate",
                    operator.label,
                    "storage",
                )
            )


def _check_fault_plan(findings: list[Finding]) -> None:
    """RP704: every point of the active fault plan must be registered.

    A typo in a ``REPRO_FAULTS`` entry (``spill.write`` misspelled as
    ``spill.writes``) would otherwise arm a plan that silently never
    fires — the chaos run would pass without testing anything.
    """
    plan = fault_registry.active_plan()
    if plan is None:
        return
    for point in sorted(set(plan.points()) - fault_registry.FAULT_POINTS):
        findings.append(
            finding(
                "RP704",
                f"fault plan targets unregistered point {point!r}; "
                f"registered points: {sorted(fault_registry.FAULT_POINTS)}",
                "fault-plan",
                "physical",
            )
        )


def _check_properties_contract(
    operator: PhysicalOperator, findings: list[Finding], where: str
) -> None:
    """RP201: every concrete operator class owns a PhysicalProperties."""
    cls = type(operator)
    if not isinstance(cls.properties, PhysicalProperties):
        findings.append(
            finding(
                "RP201",
                f"{cls.__name__}.properties is {type(cls.properties).__name__}, "
                "not PhysicalProperties",
                where,
                "physical",
            )
        )
        return
    owner = next(base for base in cls.__mro__ if "properties" in vars(base))
    if owner is PhysicalOperator and cls is not PhysicalOperator:
        findings.append(
            finding(
                "RP201",
                f"{cls.__name__} inherits the base-class default PhysicalProperties; "
                "operator classes must declare their own cost descriptor",
                where,
                "physical",
            )
        )


def _check_operator_schema(
    operator: PhysicalOperator,
    findings: list[Finding],
    where: str,
    type_cache: dict[int, dict[str, frozenset[str]]],
) -> None:
    """RP101/102/103/104/105/111/112 for one physical operator."""

    def emit(code: str, message: str) -> None:
        findings.append(finding(code, message, where, "physical"))

    def require_schema(expected: Schema, what: str) -> None:
        if operator.schema.name_set != expected.name_set:
            emit(
                "RP111",
                f"output schema {sorted(operator.schema.name_set)!r} is not {what} "
                f"{sorted(expected.name_set)!r}",
            )

    children = operator.children
    if isinstance(operator, StoredScan):
        require_schema(operator.relation.schema, "the scanned relation's schema")
        _check_stored_scan(operator, findings, where)
        return
    if isinstance(operator, (TableScan, RelationScan)):
        require_schema(operator.relation.schema, "the scanned relation's schema")
        return
    if isinstance(operator, Filter):
        (child,) = children
        require_schema(child.schema, "the child schema")
        predicate = operator.predicate
        if isinstance(predicate, Predicate):
            missing = predicate.attributes - child.schema.name_set
            if missing:
                emit("RP101", f"filter predicate references unknown attributes {sorted(missing)!r}")
        return
    if isinstance(operator, (DuplicateElimination,)):
        require_schema(children[0].schema, "the child schema")
        return
    if isinstance(operator, ProjectOp):
        (child,) = children
        missing = operator.schema.name_set - child.schema.name_set
        if missing:
            emit("RP101", f"projection references unknown attributes {sorted(missing)!r}")
        return
    if isinstance(operator, RenameOp):
        (child,) = children
        unknown = set(operator.mapping) - child.schema.name_set
        if unknown:
            emit("RP101", f"rename maps unknown attributes {sorted(unknown)!r}")
            return
        renamed = [operator.mapping.get(name, name) for name in child.schema.names]
        duplicates = sorted({name for name in renamed if renamed.count(name) > 1})
        if duplicates:
            emit("RP102", f"rename targets collide on {duplicates!r}")
            return
        require_schema(Schema(tuple(renamed)), "the renamed child schema")
        return
    if isinstance(operator, (UnionOp, IntersectOp, DifferenceOp)):
        left, right = children
        if left.schema.name_set != right.schema.name_set:
            emit(
                "RP104",
                f"set-operation inputs have different attribute sets: "
                f"{sorted(left.schema.name_set)!r} vs {sorted(right.schema.name_set)!r}",
            )
            return
        require_schema(left.schema, "the input schema")
        return
    if isinstance(operator, ProductOp):
        left, right = children
        shared = left.schema.intersection(right.schema)
        if len(shared):
            emit("RP105", f"product inputs share attributes {sorted(shared.name_set)!r}")
            return
        require_schema(left.schema.union(right.schema), "the combined input schema")
        return
    if isinstance(operator, NestedLoopsJoin):
        left, right = children
        combined = left.schema.union(right.schema)
        require_schema(combined, "the combined input schema")
        predicate = operator.predicate
        if isinstance(predicate, Predicate):
            missing = predicate.attributes - combined.name_set
            if missing:
                emit("RP101", f"join predicate references unknown attributes {sorted(missing)!r}")
        return
    if isinstance(operator, (HashJoin, NestedLoopsNaturalJoin, HashLeftOuterJoin)):
        left, right = children
        require_schema(left.schema.union(right.schema), "the combined input schema")
        _check_key_types(
            operator,
            left.schema.intersection(right.schema),
            left,
            right,
            findings,
            where,
            type_cache,
        )
        return
    if isinstance(operator, (HashSemiJoin, HashAntiJoin)):
        require_schema(children[0].schema, "the left input schema")
        return
    if isinstance(operator, DivisionOperator):
        if len(children) != 2:
            # Expansion-style algorithms (algebra simulation) replace their
            # children with the expanded sub-plan, which streams the
            # quotient directly.
            require_schema(children[0].schema, "the expanded sub-plan's schema")
            return
        dividend, divisor = children
        try:
            schemas = _division_schemas(dividend, divisor)
        except ExecutionError as error:
            emit("RP103", str(error))
            return
        require_schema(schemas.quotient, "the quotient schema (dividend - divisor)")
        _check_key_types(operator, schemas.b, dividend, divisor, findings, where, type_cache)
        return
    if isinstance(operator, GreatDivisionOperator):
        if len(children) != 2:
            require_schema(children[0].schema, "the expanded sub-plan's schema")
            return
        dividend, divisor = children
        try:
            quotient_a, shared, group_c = _great_division_schemas(dividend, divisor)
        except ExecutionError as error:
            emit("RP103", str(error))
            return
        require_schema(quotient_a.union(group_c), "A + (divisor - B)")
        _check_key_types(operator, shared, dividend, divisor, findings, where, type_cache)
        return
    if isinstance(operator, HashAggregate):
        (child,) = children
        missing = operator._grouping.name_set - child.schema.name_set
        if missing:
            emit("RP101", f"grouping references unknown attributes {sorted(missing)!r}")
            return
        expected = operator._grouping.names + tuple(operator._aggregations.keys())
        duplicates = sorted({name for name in expected if expected.count(name) > 1})
        if duplicates:
            emit("RP102", f"grouping output attributes collide on {duplicates!r}")
            return
        require_schema(Schema(expected), "grouping + aggregate outputs")
        return
    if isinstance(operator, PartitionedDivision):
        dividend, divisor = children
        try:
            if operator.kind == "small":
                schemas = _division_schemas(dividend, divisor)
                expected_key, expected_schema = schemas.a, schemas.quotient
            else:
                quotient_a, _shared, group_c = _great_division_schemas(dividend, divisor)
                expected_key, expected_schema = quotient_a, quotient_a.union(group_c)
        except ExecutionError as error:
            emit("RP103", str(error))
            return
        require_schema(expected_schema, "the quotient schema")
        if operator.partition_key.name_set != expected_key.name_set:
            emit(
                "RP203",
                f"partition key {sorted(operator.partition_key.name_set)!r} does not match the "
                f"quotient attributes {sorted(expected_key.name_set)!r}",
            )
        return
    if isinstance(operator, PartitionedHashJoin):
        left, right = children
        shared = left.schema.intersection(right.schema)
        require_schema(left.schema.union(right.schema), "the combined input schema")
        if len(shared) == 0:
            emit("RP203", "partitioned join over inputs with no shared attributes")
            return
        key = operator.partition_key.name_set
        if not key or not key.issubset(shared.name_set):
            emit(
                "RP203",
                f"partition key {sorted(key)!r} is not a nonempty subset of the shared "
                f"attributes {sorted(shared.name_set)!r}",
            )
        _check_key_types(operator, shared, left, right, findings, where, type_cache)
        return
    if isinstance(operator, PartitionedAggregate):
        (child,) = children
        key = operator.partition_key.name_set
        if not key or not key.issubset(child.schema.name_set):
            emit(
                "RP203",
                f"partition key {sorted(key)!r} is not a nonempty subset of the input "
                f"schema {sorted(child.schema.name_set)!r}",
            )
            return
        if not key.issubset(operator.schema.name_set):
            emit(
                "RP203",
                f"partition key {sorted(key)!r} does not survive into the output schema "
                f"{sorted(operator.schema.name_set)!r} (groups would merge across partitions)",
            )
        return
    # Other operators (extensions, composite internals) carry their own word.


def _check_stored_scan(operator: StoredScan, findings: list[Finding], where: str) -> None:
    """RP501–RP504 for one stored-table scan.

    Cross-checks the operator's schema against the table file header, every
    block's zone map against the stored attributes (an unknown attribute or
    an inverted ``min > max`` interval would silently skip matching blocks),
    the block index's tuple counts against the header total, and any pushed
    skip predicate against the scan schema.  All metadata reads — no block
    is decoded.
    """

    def emit(code: str, message: str) -> None:
        findings.append(finding(code, message, where, "storage"))

    reader = operator.relation.reader
    stored = set(reader.attributes)
    if stored != set(operator.schema.name_set):
        emit(
            "RP501",
            f"scan schema {sorted(operator.schema.name_set)!r} disagrees with the "
            f"table file header {sorted(stored)!r} ({reader.path})",
        )
        return
    checksummed = reader.checksummed
    indexed = 0
    for number, meta in enumerate(reader.blocks):
        indexed += meta.get("count", 0)
        if checksummed and not isinstance(meta.get("crc"), int):
            emit(
                "RP702",
                f"block {number} of checksummed file {reader.path} has no CRC entry; "
                "corruption in it would go undetected",
            )
        zones = meta.get("zones") or {}
        for attribute, bounds in zones.items():
            if attribute not in stored:
                emit(
                    "RP502",
                    f"block {number} has a zone map for unknown attribute {attribute!r}",
                )
                continue
            try:
                low, high = bounds
                inverted = high < low
            except (TypeError, ValueError):
                emit(
                    "RP502",
                    f"block {number} zone map for {attribute!r} is not a comparable "
                    f"(min, max) pair: {bounds!r}",
                )
                continue
            if inverted:
                emit(
                    "RP502",
                    f"block {number} zone map for {attribute!r} is inverted: "
                    f"min {low!r} > max {high!r}",
                )
    if indexed != reader.tuple_count:
        emit(
            "RP504",
            f"block index holds {indexed} tuples but the header declares "
            f"{reader.tuple_count}",
        )
    predicate = operator.skip_predicate
    if predicate is not None:
        missing = predicate.attributes - operator.schema.name_set
        if missing:
            emit(
                "RP503",
                f"skip predicate references attributes {sorted(missing)!r} outside "
                f"the scan schema",
            )


def _check_exchange_contract(
    operator: PartitionedOperator, findings: list[Finding], where: str
) -> None:
    """RP202/RP206/RP505 for one exchange wrapper."""

    def emit(code: str, message: str) -> None:
        findings.append(finding(code, message, where, "physical"))

    budget = getattr(operator, "memory_budget_mb", None)
    if budget is not None and budget <= 0:
        emit("RP505", f"exchange memory budget must be positive, got {budget!r}")

    if operator.partitions < 1:
        emit("RP206", f"exchange shape invalid: partitions={operator.partitions}")

    registry: Optional[dict[str, type]] = None
    if isinstance(operator, PartitionedDivision):
        registry = dict(
            SMALL_DIVIDE_ALGORITHMS if operator.kind == "small" else GREAT_DIVIDE_ALGORITHMS
        )
    elif isinstance(operator, PartitionedHashJoin):
        registry = dict(JOIN_ALGORITHMS)
    if registry is not None:
        algorithm = getattr(operator, "algorithm", None)
        inner = registry.get(algorithm) if algorithm is not None else None
        if inner is None:
            emit(
                "RP202",
                f"wrapped algorithm {algorithm!r} is not registered; "
                f"choose from {sorted(registry)}",
            )
        elif not getattr(inner, "key_disjoint_safe", False):
            emit(
                "RP202",
                f"wrapped algorithm {algorithm!r} ({inner.__name__}) is not marked "
                "key_disjoint_safe; running it per partition is not proven sound",
            )


# ----------------------------------------------------------------------
# sampled column types (RP112)
# ----------------------------------------------------------------------
def _normalize_type(value: Any) -> str:
    name = type(value).__name__
    return "int" if name == "bool" else name


def _column_types(
    operator: PhysicalOperator, cache: dict[int, dict[str, frozenset[str]]]
) -> dict[str, frozenset[str]]:
    """attribute → sampled value-type names, propagated up from leaf scans."""
    key = id(operator)
    cached = cache.get(key)
    if cached is not None:
        return cached
    result: dict[str, frozenset[str]]
    if isinstance(operator, StoredScan):
        # Sample from the leading blocks only — never the whole stored table.
        names = operator.relation.schema.names
        columns = [set() for _ in names]
        for values in operator.relation.sample_tuples(_TYPE_SAMPLE):
            for position, value in enumerate(values):
                if value is not None and value is not NULL:
                    columns[position].add(_normalize_type(value))
        result = {name: frozenset(types) for name, types in zip(names, columns) if types}
    elif isinstance(operator, (TableScan, RelationScan)):
        names = operator.relation.schema.names
        columns: list[set[str]] = [set() for _ in names]
        for values in itertools.islice(operator.relation.aligned_tuples(), _TYPE_SAMPLE):
            for position, value in enumerate(values):
                if value is not None and value is not NULL:
                    columns[position].add(_normalize_type(value))
        result = {name: frozenset(types) for name, types in zip(names, columns) if types}
    else:
        merged: dict[str, set[str]] = {}
        for child in operator.children:
            for name, types in _column_types(child, cache).items():
                merged.setdefault(name, set()).update(types)
        if isinstance(operator, RenameOp):
            merged = {operator.mapping.get(name, name): types for name, types in merged.items()}
        result = {
            name: frozenset(merged[name]) for name in operator.schema.names if merged.get(name)
        }
    cache[key] = result
    return result


def _check_key_types(
    operator: PhysicalOperator,
    key: Schema,
    left: PhysicalOperator,
    right: PhysicalOperator,
    findings: list[Finding],
    where: str,
    type_cache: dict[int, dict[str, frozenset[str]]],
) -> None:
    """RP112: both sides of a join/division key should carry the same types."""
    if len(key) == 0:
        return
    left_types = _column_types(left, type_cache)
    right_types = _column_types(right, type_cache)
    for name in key.names:
        on_left = left_types.get(name)
        on_right = right_types.get(name)
        if on_left and on_right and not (on_left & on_right):
            findings.append(
                finding(
                    "RP112",
                    f"key attribute {name!r} is {'/'.join(sorted(on_left))} on the left but "
                    f"{'/'.join(sorted(on_right))} on the right; equality can never hold",
                    where,
                    "physical",
                )
            )
