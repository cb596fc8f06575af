#!/usr/bin/env python3
"""Engine-contract linter: AST rules the generic ruff set cannot express.

Run by ``make lint`` (and the CI ``static-analysis`` job).  The rules share
the stable-code registry of :mod:`repro.analysis.findings`:

* **RP401** — ``_produce_chunks`` implementations in the physical layer
  must stay on the columnar fast path: no ``.rows()`` calls, no
  ``Row.from_schema``, no ``Chunk.from_rows``, no row ``batched`` slicing.
  Operators with a *reason* to materialize rows (public row-based
  predicate/aggregate APIs, legacy adapters) carry a waiver pragma on or
  directly above the ``def`` line::

      # contract: rows-ok (the public predicate API takes a Row)

* **RP402** — an operator has no row view: nothing in the physical layer
  calls ``rows()`` on a child operator (``self._children[i].rows()`` or a
  name bound from ``self._children``); children are consumed through
  ``chunks()``, so the per-operator counters stay correct.

* **RP403** — every concrete law class under ``src/repro/laws/`` must
  declare its ``conditions`` tuple in the class body (empty tuple =
  explicitly unconditional).

* **RP404** — every physical operator class that declares a ``name`` must
  also declare ``properties`` (its own cost descriptor) in its body or in
  a base class defined in the same file.

* **RP405** — a division operator (any class deriving from a
  ``*DivisionOperator`` base) must read its key columns through the
  key-column seam (``repro.physical.division.keys.encode_keys``): none of
  its methods may touch ``chunk.tuples`` or extract keys itself with a
  ``TupleProjector`` (``keys_of`` / ``tuples_of``).  One seam means one
  place that decides between cached dictionary codes and on-the-fly
  encoding — and no per-algorithm copy of that loop.  The way out is the
  seam's too: under ``src/repro/physical/division/`` outside ``keys.py``
  nothing may call ``chunked(`` or ``value_tuple(`` or concatenate key
  tuples in a generator or comprehension — a quotient leaves as code
  buffers through ``KeyedDivisionOperator._emit``.

* **RP406** — inside ``src/repro/physical/parallel/`` a partition is a
  block of code columns: ``chunk.tuples`` and ``keys_of`` / ``tuples_of``
  may be read in exactly one function, the exchange's tuple route
  (``HashPartitionExchange._route_tuples``), which uncoded chunks and
  budgeted runs go through.  Anything else that walks tuples there has
  brought the per-tuple exchange back.

* **RP407** — inside ``src/repro/storage/`` a block is a set of typed code
  buffers.  Per-value Python lists may be built from one — a call to
  ``decode_columns`` or ``.tolist()``, a comprehension or ``map`` that
  looks a dictionary up per element (``page[code] for code in codes``) —
  only in the decoded views: ``decode_columns`` itself, the reader's
  ``iter_blocks`` (which the scan's raw-page branch reads) and
  ``StoredRelation.aligned_tuples``.  And nothing on the save path
  (``save_database`` and what it writes through) may ask for tuples at
  all: saving a reopened store streams pages, it does not load tables.

* **RP408** — a table edit is O(delta).  ``Database.insert`` and
  ``Database.delete`` record their rows through ``Catalog.apply_delta``:
  neither may call ``.union(`` / ``.difference(`` / ``.intersection(`` or
  ``replace_table(``, and ``self.relation(`` (which folds the table) only
  inside ``delete``'s predicate branch.  Inside ``Catalog`` an existing
  table's value is written only where the pending delta is accounted for:
  ``add_table``, ``replace_table``, ``__getitem__`` and the fold helper.

* **RP409** — the law preconditions in ``src/repro/laws/conditions.py``
  read a relation through its code columns or one sweep over its aligned
  tuples: no ``for … in <relation>`` (a loop or comprehension over a
  ``Relation`` parameter), no ``.rows``, no ``.project(`` and no
  ``values_for(``.  The conditions that still work on rows
  (``condition_c1``, ``is_superset_of``) carry the RP401 waiver pragma
  with their reason.

* **RP410** — ``src/repro/optimizer/physical_cost.py`` binds no
  module-level name to a number.  Cost coefficients live on the operator
  classes' ``PhysicalProperties`` (RP404), next to the code whose cost they
  state and where a measurement can be held against them; a constant in the
  cost model is a price nobody owns.

* **RP411** — numpy stays behind its two seams.  Under ``src/repro/`` only
  ``relation/encoding.py`` (code buffers and masks) and
  ``physical/compile/kernels.py`` (the bitset kernel) may import it, at
  any depth; everything else calls their helpers, which all have a
  numpy-free twin, so the engine runs, and is tested, without numpy.

* **RP412** — nothing under ``src/repro/`` calls the builtins ``compile``,
  ``exec`` or ``eval``: no code is generated at run time, so there is no
  generated source to audit.  Attribute calls (``re.compile``) are fine.

* **RP413** — under ``src/repro/physical/`` a result stays a tuple block:
  ``Row.block``, ``Row.from_schema`` and ``Relation.from_aligned`` may be
  named only inside a function carrying the RP401 waiver pragma (on it or
  on a function around it), so no operator builds rows nobody asked for.

Exit code 1 when any severity-``error`` finding is emitted; ``--json``
prints the findings as a JSON document for the CI gate.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from pathlib import Path
from typing import Iterator, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.findings import Finding, finding  # noqa: E402

SOURCE_DIR = REPO_ROOT / "src" / "repro"
PHYSICAL_DIR = SOURCE_DIR / "physical"
PARALLEL_DIR = PHYSICAL_DIR / "parallel"
DIVISION_DIR = PHYSICAL_DIR / "division"
LAWS_DIR = REPO_ROOT / "src" / "repro" / "laws"
STORAGE_DIR = REPO_ROOT / "src" / "repro" / "storage"
CONDITIONS_FILE = LAWS_DIR / "conditions.py"
DATABASE_FILE = REPO_ROOT / "src" / "repro" / "api" / "database.py"
CATALOG_FILE = REPO_ROOT / "src" / "repro" / "algebra" / "catalog.py"
COST_MODEL_FILE = REPO_ROOT / "src" / "repro" / "optimizer" / "physical_cost.py"
NUMPY_SEAMS = (SOURCE_DIR / "relation" / "encoding.py", PHYSICAL_DIR / "compile" / "kernels.py")

PRAGMA = "# contract: rows-ok"

#: Calls inside _produce_chunks that mean "a Row object was materialized".
ROW_MATERIALIZERS = {"rows", "from_schema", "from_rows", "batched"}


def _python_files(directory: Path) -> Iterator[Path]:
    yield from sorted(directory.rglob("*.py"))


def _has_rows_ok_pragma(source_lines: Sequence[str], def_line: int) -> bool:
    """True when the waiver pragma sits on the ``def`` line or just above.

    ``def_line`` is 1-based (as in AST nodes); decorators are skipped when
    scanning upwards so the pragma can sit above them too.
    """
    for line_number in (def_line, def_line - 1):
        if 1 <= line_number <= len(source_lines):
            line = source_lines[line_number - 1]
            if PRAGMA in line:
                return True
    return False


def _where(path: Path, node: ast.AST) -> str:
    try:
        located = path.relative_to(REPO_ROOT)
    except ValueError:  # files outside the repo (unit tests lint fixtures)
        located = path
    return f"{located}:{getattr(node, 'lineno', 0)}"


# ----------------------------------------------------------------------
# RP401 / RP402: the physical layer's chunk contract
# ----------------------------------------------------------------------
def _row_materializing_calls(function: ast.FunctionDef) -> list[ast.Call]:
    calls = []
    for node in ast.walk(function):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        if isinstance(callee, ast.Attribute) and callee.attr in ROW_MATERIALIZERS:
            calls.append(node)
        elif isinstance(callee, ast.Name) and callee.id in {"batched", "from_schema"}:
            calls.append(node)
    return calls


def _child_bound_names(function: ast.FunctionDef) -> set[str]:
    """Names bound (directly) from ``self._children`` inside ``function``."""
    names: set[str] = set()

    def is_children_ref(node: ast.expr) -> bool:
        if isinstance(node, ast.Attribute) and node.attr in {"_children", "children"}:
            return True
        if isinstance(node, ast.Subscript):
            return is_children_ref(node.value)
        return False

    for node in ast.walk(function):
        if not isinstance(node, ast.Assign) or not is_children_ref(node.value):
            continue
        for target in node.targets:
            elements = target.elts if isinstance(target, ast.Tuple) else [target]
            names.update(
                element.id for element in elements if isinstance(element, ast.Name)
            )
    return names


def _check_physical_file(path: Path) -> Iterator[Finding]:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    for class_node in (n for n in tree.body if isinstance(n, ast.ClassDef)):
        for method in (n for n in class_node.body if isinstance(n, ast.FunctionDef)):
            child_names = _child_bound_names(method)
            # RP402 applies to every method of an operator class, not just
            # _produce_chunks — a child's rows() is wrong anywhere.
            for call in ast.walk(method):
                if not isinstance(call, ast.Call):
                    continue
                callee = call.func
                if not (isinstance(callee, ast.Attribute) and callee.attr == "rows"):
                    continue
                receiver = callee.value
                pulls_child = (
                    isinstance(receiver, ast.Name) and receiver.id in child_names
                ) or (
                    isinstance(receiver, ast.Subscript)
                    and isinstance(receiver.value, ast.Attribute)
                    and receiver.value.attr in {"_children", "children"}
                )
                if pulls_child:
                    yield finding(
                        "RP402",
                        f"{class_node.name}.{method.name} calls rows() on a child "
                        "operator; operators have no row view, consume chunks()",
                        _where(path, call),
                        "engine",
                    )
            if method.name != "_produce_chunks":
                continue
            offenders = _row_materializing_calls(method)
            if offenders and not _has_rows_ok_pragma(lines, method.lineno):
                spelled = sorted(
                    {
                        callee.attr
                        if isinstance(callee := call.func, ast.Attribute)
                        else callee.id
                        for call in offenders
                    }
                )
                yield finding(
                    "RP401",
                    f"{class_node.name}._produce_chunks materializes Row objects "
                    f"({', '.join(spelled)}) without a '{PRAGMA} (reason)' waiver",
                    _where(path, method),
                    "engine",
                )


# ----------------------------------------------------------------------
# RP405: division operators read keys through the key-column seam
# ----------------------------------------------------------------------
#: Attribute reads / calls that mean "this operator walks key values itself".
KEY_EXTRACTORS = {"tuples", "keys_of", "tuples_of"}


def _is_division_class(class_node: ast.ClassDef, classes: dict[str, ast.ClassDef]) -> bool:
    """True when the class derives (within this file) from a
    ``*DivisionOperator`` base."""
    queue = list(_base_names(class_node))
    seen: set[str] = set()
    while queue:
        base = queue.pop()
        if base in seen:
            continue
        seen.add(base)
        if base.endswith("DivisionOperator"):
            return True
        if base in classes:
            queue.extend(_base_names(classes[base]))
    return False


def _check_division_keys(path: Path) -> Iterator[Finding]:
    tree = ast.parse(path.read_text(), filename=str(path))
    classes = {n.name: n for n in tree.body if isinstance(n, ast.ClassDef)}
    for class_node in classes.values():
        if not _is_division_class(class_node, classes):
            continue
        for method in (n for n in class_node.body if isinstance(n, ast.FunctionDef)):
            offenders = sorted(
                {
                    node.attr if isinstance(node, ast.Attribute) else "TupleProjector"
                    for node in ast.walk(method)
                    if (isinstance(node, ast.Attribute) and node.attr in KEY_EXTRACTORS)
                    or (isinstance(node, ast.Name) and node.id == "TupleProjector")
                }
            )
            if offenders:
                yield finding(
                    "RP405",
                    f"{class_node.name}.{method.name} extracts key values itself "
                    f"({', '.join(offenders)}); go through encode_keys()",
                    _where(path, method),
                    "engine",
                )


#: Calls that build a quotient tuple by tuple.
TUPLE_EMITTERS = {"chunked", "value_tuple"}


def _is_key_lookup(node: ast.AST) -> bool:
    """``<side>.keys[...]``: one key of a key side."""
    return (
        isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "keys"
    )


def _check_division_output(path: Path) -> Iterator[Finding]:
    """A division module outside the seam: output goes through ``_emit``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        offender = None
        if isinstance(node, ast.Call):
            callee = node.func
            name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", None)
            if name in TUPLE_EMITTERS:
                offender = f"{name}()"
        elif isinstance(node, (ast.GeneratorExp, ast.ListComp)):
            element = node.elt
            if (
                isinstance(element, ast.BinOp)
                and isinstance(element.op, ast.Add)
                and any(_is_key_lookup(operand) for operand in (element.left, element.right))
            ):
                offender = "key tuples concatenated per row"
        if offender:
            yield finding(
                "RP405",
                f"division output built tuple by tuple ({offender}); emit code buffers "
                "through KeyedDivisionOperator._emit()",
                _where(path, node),
                "engine",
            )


# ----------------------------------------------------------------------
# RP406: the exchange routes code columns; one function routes tuples
# ----------------------------------------------------------------------
#: The one function under physical/parallel/ that may read tuples.
TUPLE_ROUTE = "_route_tuples"


def _check_exchange_file(path: Path) -> Iterator[Finding]:
    tree = ast.parse(path.read_text(), filename=str(path))
    functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    for function in functions:
        if function.name == TUPLE_ROUTE:
            continue
        offenders = sorted(
            {
                node.attr
                for node in ast.walk(function)
                if isinstance(node, ast.Attribute) and node.attr in KEY_EXTRACTORS
            }
        )
        if offenders:
            yield finding(
                "RP406",
                f"{function.name} reads tuples in the exchange layer "
                f"({', '.join(offenders)}); only {TUPLE_ROUTE} may",
                _where(path, function),
                "engine",
            )


# ----------------------------------------------------------------------
# RP407: stored blocks stay code buffers; a save never asks for tuples
# ----------------------------------------------------------------------
#: Calls that turn a block's buffers into one Python object per value.
BLOCK_DECODERS = {"decode_columns", "tolist"}
#: The functions under storage/ that may: the decoded views of a block.
DECODED_VIEWS = {"decode_columns", "iter_blocks", "aligned_tuples"}
#: The save path, and what it may not call.
SAVE_PATH = {"save_database", "_table_source", "write_table_file", "block_zones"}
TUPLE_SOURCES = {"aligned_tuples", "iter_blocks", "decode_columns"}


def _called_name(call: ast.Call) -> Optional[str]:
    callee = call.func
    if isinstance(callee, ast.Attribute):
        return callee.attr
    return callee.id if isinstance(callee, ast.Name) else None


def _per_value_builders(function: ast.FunctionDef) -> set[str]:
    """How ``function`` builds a Python object per stored value, if it does."""
    found: set[str] = set()
    for node in ast.walk(function):
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            bound = {
                name.id
                for generator in node.generators
                for name in ast.walk(generator.target)
                if isinstance(name, ast.Name)
            }
            element = node.elt
            if (
                isinstance(element, ast.Subscript)
                and isinstance(element.slice, ast.Name)
                and element.slice.id in bound
            ):
                found.add("a lookup per element")
        elif isinstance(node, ast.Call):
            name = _called_name(node)
            if name in BLOCK_DECODERS:
                found.add(name)
            elif name == "map" and node.args:
                mapped = node.args[0]
                if isinstance(mapped, ast.Attribute) and mapped.attr == "__getitem__":
                    found.add("a lookup per element")
    return found


def _check_storage_file(path: Path) -> Iterator[Finding]:
    tree = ast.parse(path.read_text(), filename=str(path))
    for function in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
        if function.name not in DECODED_VIEWS:
            builders = sorted(_per_value_builders(function))
            if builders:
                yield finding(
                    "RP407",
                    f"{function.name} builds per-value lists from a stored block "
                    f"({', '.join(builders)}); only {', '.join(sorted(DECODED_VIEWS))} may",
                    _where(path, function),
                    "engine",
                )
        if function.name in SAVE_PATH:
            asked = sorted(
                {
                    name
                    for node in ast.walk(function)
                    if isinstance(node, ast.Call)
                    and (name := _called_name(node)) in TUPLE_SOURCES
                }
            )
            if asked:
                yield finding(
                    "RP407",
                    f"{function.name} is on the save path and asks for tuples "
                    f"({', '.join(asked)}); write from code columns",
                    _where(path, function),
                    "engine",
                )


# ----------------------------------------------------------------------
# RP408: edits record a delta; only the fold writes a table's value
# ----------------------------------------------------------------------
#: Whole-table work an edit must not do.
TABLE_OPERATIONS = {"union", "difference", "intersection", "replace_table"}
EDIT_METHODS = {"insert", "delete"}
#: The Catalog methods that may assign ``self._tables[name]``.
TABLE_WRITERS = {"add_table", "replace_table", "__getitem__", "_fold"}


def _methods(tree: ast.AST, class_name: str) -> Iterator[ast.FunctionDef]:
    for class_node in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        if class_node.name == class_name:
            yield from (n for n in class_node.body if isinstance(n, ast.FunctionDef))


def _is_self_call(node: ast.AST, method: str) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == method
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "self"
    )


def _check_edit_methods(path: Path) -> Iterator[Finding]:
    tree = ast.parse(path.read_text(), filename=str(path))
    for function in _methods(tree, "Database"):
        if function.name not in EDIT_METHODS:
            continue
        offenders = {
            name
            for node in ast.walk(function)
            if isinstance(node, ast.Call) and (name := _called_name(node)) in TABLE_OPERATIONS
        }
        # ``self.relation(...)`` folds the table: only a predicate needs that.
        allowed = {
            id(node)
            for branch in ast.walk(function)
            if isinstance(branch, ast.If)
            and any(isinstance(n, ast.Name) and n.id == "Predicate" for n in ast.walk(branch.test))
            for statement in branch.body
            for node in ast.walk(statement)
        }
        if any(
            _is_self_call(node, "relation") and id(node) not in allowed
            for node in ast.walk(function)
        ):
            offenders.add("self.relation")
        if offenders:
            yield finding(
                "RP408",
                f"Database.{function.name} does whole-table work on the edit path "
                f"({', '.join(sorted(offenders))}); record the rows with Catalog.apply_delta",
                _where(path, function),
                "engine",
            )


def _check_catalog_writes(path: Path) -> Iterator[Finding]:
    tree = ast.parse(path.read_text(), filename=str(path))
    for function in _methods(tree, "Catalog"):
        if function.name in TABLE_WRITERS:
            continue
        for node in ast.walk(function):
            targets = node.targets if isinstance(node, ast.Assign) else []
            for target in targets:
                for element in ast.walk(target):
                    if (
                        isinstance(element, ast.Subscript)
                        and isinstance(element.value, ast.Attribute)
                        and element.value.attr == "_tables"
                    ):
                        yield finding(
                            "RP408",
                            f"Catalog.{function.name} assigns a table's value; only "
                            f"{', '.join(sorted(TABLE_WRITERS))} may",
                            _where(path, node),
                            "engine",
                        )


# ----------------------------------------------------------------------
# RP409: law preconditions read code columns, not a Row per tuple
# ----------------------------------------------------------------------
#: Calls that build a Row set or a value tuple per row.
ROW_PROJECTIONS = {"project", "values_for"}


def _per_row_reads(function: ast.FunctionDef) -> set[str]:
    """How ``function`` reads a relation row by row, if it does."""
    arguments = function.args
    relations = {
        argument.arg
        for argument in arguments.posonlyargs + arguments.args + arguments.kwonlyargs
        if isinstance(argument.annotation, ast.Name) and argument.annotation.id == "Relation"
    }
    found: set[str] = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Attribute) and node.attr == "rows":
            found.add(".rows")
        elif isinstance(node, ast.Call) and (name := _called_name(node)) in ROW_PROJECTIONS:
            found.add(f"{name}(")
        elif isinstance(node, (ast.For, ast.comprehension)):
            if isinstance(node.iter, ast.Name) and node.iter.id in relations:
                found.add(f"for … in {node.iter.id}")
    return found


def _check_conditions_file(path: Path) -> Iterator[Finding]:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    for function in (n for n in tree.body if isinstance(n, ast.FunctionDef)):
        reads = sorted(_per_row_reads(function))
        if reads and not _has_rows_ok_pragma(lines, function.lineno):
            yield finding(
                "RP409",
                f"{function.name} reads a relation row by row ({', '.join(reads)}) "
                f"without a '{PRAGMA} (reason)' waiver; ask _distinct_values",
                _where(path, function),
                "engine",
            )


# ----------------------------------------------------------------------
# RP410: the cost model declares no coefficients of its own
# ----------------------------------------------------------------------
def _check_cost_model_file(path: Path) -> Iterator[Finding]:
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in tree.body:
        value = getattr(node, "value", None)
        if not isinstance(node, (ast.Assign, ast.AnnAssign)) or not isinstance(value, ast.Constant):
            continue
        if type(value.value) in (int, float):
            name = ast.unparse(node.targets[0] if isinstance(node, ast.Assign) else node.target)
            yield finding(
                "RP410",
                f"module-level cost coefficient {name}; declare it on the operator's "
                "PhysicalProperties and read it from there",
                _where(path, node),
                "engine",
            )


# ----------------------------------------------------------------------
# RP411: numpy is imported by its two seams only
# ----------------------------------------------------------------------
def _check_numpy_imports(path: Path) -> Iterator[Finding]:
    if path in NUMPY_SEAMS:
        return
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module or ""]
        else:
            continue
        if any(module.split(".")[0] == "numpy" for module in modules):
            yield finding(
                "RP411",
                "numpy imported outside relation/encoding.py and physical/compile/kernels.py; "
                "call their helpers (each has a numpy-free twin)",
                _where(path, node),
                "engine",
            )


# ----------------------------------------------------------------------
# RP412: no generated code runs
# ----------------------------------------------------------------------
#: The builtins that turn text into running code.
CODE_RUNNERS = {"compile", "exec", "eval"}


def _check_code_runners(path: Path) -> Iterator[Finding]:
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in CODE_RUNNERS:
                yield finding(
                    "RP412",
                    f"{node.func.id}() runs code built at run time; build closures instead",
                    _where(path, node),
                    "engine",
                )


# ----------------------------------------------------------------------
# RP413: the physical layer builds rows only where it is waived
# ----------------------------------------------------------------------
#: (receiver, attribute) pairs that build ``Row`` objects or a row set.
ROW_BUILDERS = {("Row", "block"), ("Row", "from_schema"), ("Relation", "from_aligned")}


def _check_row_builders(path: Path) -> Iterator[Finding]:
    source = path.read_text()
    lines = source.splitlines()

    def visit(node: ast.AST, waived: bool) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                yield from visit(child, waived or _has_rows_ok_pragma(lines, child.lineno))
                continue
            if (
                not waived
                and isinstance(child, ast.Attribute)
                and isinstance(child.value, ast.Name)
                and (child.value.id, child.attr) in ROW_BUILDERS
            ):
                yield finding(
                    "RP413",
                    f"{child.value.id}.{child.attr} builds rows outside a '{PRAGMA} (reason)' "
                    "function; hand the tuple block on",
                    _where(path, child),
                    "engine",
                )
            yield from visit(child, waived)

    yield from visit(ast.parse(source, filename=str(path)), False)


# ----------------------------------------------------------------------
# RP403: laws declare their conditions
# ----------------------------------------------------------------------
def _assigned_names(class_node: ast.ClassDef) -> set[str]:
    names: set[str] = set()
    for statement in class_node.body:
        if isinstance(statement, ast.Assign):
            names.update(
                target.id for target in statement.targets if isinstance(target, ast.Name)
            )
        elif (
            isinstance(statement, ast.AnnAssign)
            and isinstance(statement.target, ast.Name)
            and statement.value is not None
        ):
            names.add(statement.target.id)
    return names


def _base_names(class_node: ast.ClassDef) -> set[str]:
    names = set()
    for base in class_node.bases:
        if isinstance(base, ast.Name):
            names.add(base.id)
        elif isinstance(base, ast.Attribute):
            names.add(base.attr)
    return names


def _check_laws_file(path: Path) -> Iterator[Finding]:
    tree = ast.parse(path.read_text(), filename=str(path))
    for class_node in (n for n in tree.body if isinstance(n, ast.ClassDef)):
        bases = _base_names(class_node)
        if "RewriteRule" not in bases:
            continue
        if "conditions" not in _assigned_names(class_node):
            yield finding(
                "RP403",
                f"law class {class_node.name} does not declare its conditions "
                "(use an empty tuple for 'unconditional')",
                _where(path, class_node),
                "engine",
            )


# ----------------------------------------------------------------------
# RP404: operators declaring a name also declare properties
# ----------------------------------------------------------------------
def _is_operator_class(class_node: ast.ClassDef, classes: dict[str, ast.ClassDef]) -> bool:
    """True when the class (transitively, within this file) is a physical
    operator — non-operator helpers (bitset kernels, dataclasses) are
    exempt from the name/properties pairing rule."""
    queue = list(_base_names(class_node))
    seen: set[str] = set()
    while queue:
        base = queue.pop()
        if base in seen:
            continue
        seen.add(base)
        if base == "PhysicalOperator" or base.endswith("Operator"):
            return True
        if base in classes:
            queue.extend(_base_names(classes[base]))
    return False


def _check_operator_declarations(path: Path) -> Iterator[Finding]:
    tree = ast.parse(path.read_text(), filename=str(path))
    classes = {n.name: n for n in tree.body if isinstance(n, ast.ClassDef)}
    for class_node in classes.values():
        if not _is_operator_class(class_node, classes):
            continue
        assigned = _assigned_names(class_node)
        if "name" not in assigned or "properties" in assigned:
            continue
        # A base class in the same file may carry the descriptor for a
        # family of operators (the scan operators share _ScanBase's).
        inherited = False
        queue = list(_base_names(class_node))
        seen: set[str] = set()
        while queue:
            base = queue.pop()
            if base in seen or base not in classes:
                continue
            seen.add(base)
            if "properties" in _assigned_names(classes[base]):
                inherited = True
                break
            queue.extend(_base_names(classes[base]))
        if not inherited:
            yield finding(
                "RP404",
                f"operator class {class_node.name} declares a name but no "
                "PhysicalProperties descriptor",
                _where(path, class_node),
                "engine",
            )


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def run() -> list[Finding]:
    findings: list[Finding] = []
    for path in _python_files(PHYSICAL_DIR):
        findings.extend(_check_physical_file(path))
        findings.extend(_check_row_builders(path))
        findings.extend(_check_operator_declarations(path))
        findings.extend(_check_division_keys(path))
        if path.parent == DIVISION_DIR and path.name != "keys.py":
            findings.extend(_check_division_output(path))
        if path.parent == PARALLEL_DIR:
            findings.extend(_check_exchange_file(path))
    for path in _python_files(LAWS_DIR):
        findings.extend(_check_laws_file(path))
    for path in _python_files(STORAGE_DIR):
        findings.extend(_check_storage_file(path))
    findings.extend(_check_conditions_file(CONDITIONS_FILE))
    findings.extend(_check_edit_methods(DATABASE_FILE))
    findings.extend(_check_catalog_writes(CATALOG_FILE))
    findings.extend(_check_cost_model_file(COST_MODEL_FILE))
    for path in _python_files(SOURCE_DIR):
        findings.extend(_check_numpy_imports(path))
        findings.extend(_check_code_runners(path))
    return findings


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="AST-based engine-contract linter")
    parser.add_argument("--json", action="store_true", help="emit findings as JSON")
    args = parser.parse_args(argv)
    findings = run()
    errors = [f for f in findings if f.severity.value == "error"]
    if args.json:
        print(
            json.dumps(
                {"ok": not errors, "findings": [f.to_dict() for f in findings]}, indent=2
            )
        )
    else:
        for item in findings:
            print(item.render())
        print(f"lint_engine: {len(findings)} finding(s), {len(errors)} error(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
