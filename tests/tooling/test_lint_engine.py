"""Unit tests for the AST-based engine-contract linter (RP4xx rules)."""

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def lint():
    spec = importlib.util.spec_from_file_location(
        "lint_engine", REPO_ROOT / "scripts" / "lint_engine.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write(tmp_path: Path, source: str) -> Path:
    path = tmp_path / "module.py"
    path.write_text(source)
    return path


def codes(findings):
    return [f.code for f in findings]


class TestRP401RowMaterialization:
    def test_rows_call_in_produce_chunks_is_flagged(self, lint, tmp_path):
        path = write(
            tmp_path,
            "class Op(PhysicalOperator):\n"
            "    def _produce_chunks(self):\n"
            "        for row in self.rows():\n"
            "            yield row\n",
        )
        assert codes(lint._check_physical_file(path)) == ["RP401"]

    def test_waiver_pragma_on_def_line_suppresses(self, lint, tmp_path):
        path = write(
            tmp_path,
            "class Op(PhysicalOperator):\n"
            "    def _produce_chunks(self):  # contract: rows-ok (public Row API)\n"
            "        for row in self.rows():\n"
            "            yield row\n",
        )
        assert list(lint._check_physical_file(path)) == []

    def test_waiver_pragma_above_def_suppresses(self, lint, tmp_path):
        path = write(
            tmp_path,
            "class Op(PhysicalOperator):\n"
            "    # contract: rows-ok (legacy adapter)\n"
            "    def _produce_chunks(self):\n"
            "        return Chunk.from_rows(self.batched())\n",
        )
        assert list(lint._check_physical_file(path)) == []

    def test_chunk_only_implementation_is_clean(self, lint, tmp_path):
        path = write(
            tmp_path,
            "class Op(PhysicalOperator):\n"
            "    def _produce_chunks(self):\n"
            "        yield from self._children[0].chunks()\n",
        )
        assert list(lint._check_physical_file(path)) == []


class TestRP402ChildRows:
    def test_child_rows_via_subscript_is_flagged(self, lint, tmp_path):
        path = write(
            tmp_path,
            "class Op(PhysicalOperator):\n"
            "    def _build(self):\n"
            "        return list(self._children[0].rows())\n",
        )
        assert codes(lint._check_physical_file(path)) == ["RP402"]

    def test_child_rows_via_bound_name_is_flagged(self, lint, tmp_path):
        path = write(
            tmp_path,
            "class Op(PhysicalOperator):\n"
            "    def _build(self):\n"
            "        left, right = self._children\n"
            "        return list(left.rows())\n",
        )
        assert codes(lint._check_physical_file(path)) == ["RP402"]

    def test_own_rows_view_is_not_flagged(self, lint, tmp_path):
        path = write(
            tmp_path,
            "class Op(PhysicalOperator):\n"
            "    def preview(self):\n"
            "        return list(self.rows())\n",
        )
        assert list(lint._check_physical_file(path)) == []


class TestRP403LawConditions:
    def test_law_without_conditions_is_flagged(self, lint, tmp_path):
        path = write(
            tmp_path,
            "class LawX(RewriteRule):\n"
            "    name = 'law_x'\n"
            "    requires_data = False\n",
        )
        assert codes(lint._check_laws_file(path)) == ["RP403"]

    def test_empty_tuple_counts_as_declared(self, lint, tmp_path):
        path = write(
            tmp_path,
            "class LawX(RewriteRule):\n"
            "    name = 'law_x'\n"
            "    conditions = ()\n",
        )
        assert list(lint._check_laws_file(path)) == []

    def test_non_law_classes_are_ignored(self, lint, tmp_path):
        path = write(tmp_path, "class Helper:\n    pass\n")
        assert list(lint._check_laws_file(path)) == []


class TestRP404OperatorDeclarations:
    def test_named_operator_without_properties_is_flagged(self, lint, tmp_path):
        path = write(
            tmp_path,
            "class Op(PhysicalOperator):\n"
            "    name = 'op'\n",
        )
        assert codes(lint._check_operator_declarations(path)) == ["RP404"]

    def test_properties_in_same_file_base_suppresses(self, lint, tmp_path):
        path = write(
            tmp_path,
            "class _Base(PhysicalOperator):\n"
            "    properties = PhysicalProperties(streaming=True)\n"
            "class Op(_Base):\n"
            "    name = 'op'\n",
        )
        assert list(lint._check_operator_declarations(path)) == []

    def test_non_operator_helpers_are_exempt(self, lint, tmp_path):
        path = write(
            tmp_path,
            "class Kernel:\n"
            "    name = 'python'\n",
        )
        assert list(lint._check_operator_declarations(path)) == []


class TestRP405KeyColumnSeam:
    def test_division_operator_walking_tuples_is_flagged(self, lint, tmp_path):
        path = write(
            tmp_path,
            "class MyDivision(DivisionOperator):\n"
            "    def _produce_chunks(self):\n"
            "        for chunk in self._children[0].chunks():\n"
            "            for values in chunk.tuples:\n"
            "                yield values\n",
        )
        assert codes(lint._check_division_keys(path)) == ["RP405"]

    def test_own_tuple_projector_in_a_helper_method_is_flagged(self, lint, tmp_path):
        path = write(
            tmp_path,
            "class Base(GreatDivisionOperator):\n"
            "    pass\n"
            "class MyDivision(Base):\n"
            "    def _keys(self, chunk):\n"
            "        return TupleProjector(self.a).keys_of(chunk)\n",
        )
        findings = list(lint._check_division_keys(path))
        assert codes(findings) == ["RP405"]
        assert "TupleProjector, keys_of" in findings[0].message

    def test_seam_users_and_other_operators_are_clean(self, lint, tmp_path):
        path = write(
            tmp_path,
            "class MyDivision(DivisionOperator):\n"
            "    def _produce_chunks(self):\n"
            "        keys = encode_keys(self._children[0], self.schemas.a)\n"
            "        yield from self._emit(keys.sides, [kernel.full_matches(masks, 1)])\n"
            "class Join(PhysicalOperator):\n"
            "    def _produce_chunks(self):\n"
            "        return [chunk.tuples for chunk in self._children[0].chunks()]\n",
        )
        assert list(lint._check_division_keys(path)) == []
        assert list(lint._check_division_output(path)) == []

    def test_the_way_out_is_the_seams_too(self, lint, tmp_path):
        path = write(
            tmp_path,
            "class MyDivision(GreatDivisionOperator):\n"
            "    def _produce_chunks(self):\n"
            "        quotient = (\n"
            "            candidates.keys[candidate] + groups.keys[group]\n"
            "            for candidate, group in matches\n"
            "        )\n"
            "        yield from chunked(quotient, self._schema, self.batch_size)\n"
            "    def _one(self, side, code):\n"
            "        return side.value_tuple(code)\n"
            "    def _sizes(self, sides):\n"
            "        return [len(side.keys) + 1 for side in sides]\n",  # no tuple is built
        )
        findings = list(lint._check_division_output(path))
        assert codes(findings) == ["RP405"] * 3
        assert sorted(finding.message.split("(")[1].split(")")[0] for finding in findings) == [
            "chunked",
            "key tuples concatenated per row",
            "value_tuple",
        ]

    def test_output_rule_covers_the_division_package_outside_the_seam(self, lint):
        checked = [
            path.name
            for path in lint._python_files(lint.PHYSICAL_DIR)
            if path.parent == lint.DIVISION_DIR and path.name != "keys.py"
        ]
        assert sorted(checked) == ["__init__.py", "great_divide_ops.py", "small_divide_ops.py"]


class TestRP406ExchangeTupleRoute:
    def test_tuple_reads_outside_the_tuple_route_are_flagged(self, lint, tmp_path):
        path = write(
            tmp_path,
            "class Exchange:\n"
            "    def partition(self, source):\n"
            "        return [chunk.tuples for chunk in source.chunks()]\n"
            "    def _route_tuples(self, chunk, buckets):\n"
            "        for values, key in zip(chunk.tuples, self._key_of.keys_of(chunk)):\n"
            "            buckets[hash(key) % len(buckets)].append(values)\n"
            "def collect(source, projector):\n"
            "    return [projector.keys_of(chunk) for chunk in source.chunks()]\n",
        )
        findings = list(lint._check_exchange_file(path))
        assert codes(findings) == ["RP406", "RP406"]
        messages = sorted(finding.message for finding in findings)
        assert messages[0].startswith("collect reads tuples in the exchange layer (keys_of)")
        assert messages[1].startswith("partition reads tuples in the exchange layer (tuples)")

    def test_rule_covers_the_parallel_package_only(self, lint):
        checked = [
            path
            for path in lint._python_files(lint.PHYSICAL_DIR)
            if path.parent == lint.PARALLEL_DIR
        ]
        assert {path.name for path in checked} >= {"exchange.py", "operators.py"}
        for path in checked:
            assert list(lint._check_exchange_file(path)) == []


class TestRP407StoredBlocksStayCodeBuffers:
    def test_per_value_lists_outside_the_decoded_views_are_flagged(self, lint, tmp_path):
        path = write(
            tmp_path,
            "def decode_columns(columns, pages):\n"
            "    return list(zip(*(CodeColumn(p, c).values() for p, c in zip(pages, columns))))\n"
            "class StoredScan:\n"
            "    def _produce_chunks(self):\n"
            "        for meta, columns in self.reader.iter_block_columns():\n"
            "            yield [[page[code] for code in codes] for page, codes in columns]\n"
            "    def iter_blocks(self, should_read=None):\n"
            "        return decode_columns(self.columns, self.pages)\n"
            "def block_bytes(codes, page):\n"
            "    return list(map(page.__getitem__, codes.tolist()))\n"
            "def sizes(blocks):\n"
            "    return [entry[2] for entry in blocks]\n",
        )
        findings = list(lint._check_storage_file(path))
        assert codes(findings) == ["RP407", "RP407"]
        messages = sorted(finding.message for finding in findings)
        assert messages[0].startswith("_produce_chunks builds per-value lists from a stored block")
        assert messages[1].startswith(
            "block_bytes builds per-value lists from a stored block (a lookup per element, tolist)"
        )

    def test_the_save_path_may_not_ask_for_tuples(self, lint, tmp_path):
        path = write(
            tmp_path,
            "def save_database(path, catalog):\n"
            "    for name in catalog:\n"
            "        write_table_file(path, name, catalog[name].aligned_tuples())\n"
            "def load_rows(relation):\n"
            "    return relation.aligned_tuples()\n",
        )
        findings = list(lint._check_storage_file(path))
        assert codes(findings) == ["RP407"]
        assert findings[0].message.startswith(
            "save_database is on the save path and asks for tuples (aligned_tuples)"
        )

    def test_the_payload_pass_through_may_not_ask_for_tuples(self, lint, tmp_path):
        path = write(
            tmp_path,
            "class TableReader:\n"
            "    def iter_block_payloads(self):\n"
            "        for meta, block in self.iter_blocks():\n"
            "            yield meta, encode(block)\n"
            "def assemble_table_file(path, table, attributes, pages, blocks):\n"
            "    return [decode_columns(columns, pages) for _meta, columns in blocks]\n"
            "def encode_blocks(attributes, pages, blocks):\n"
            "    for columns in blocks:\n"
            "        yield {}, narrow(columns)\n",
        )
        findings = list(lint._check_storage_file(path))
        asked = sorted(f.message for f in findings if "on the save path" in f.message)
        assert asked == [
            "assemble_table_file is on the save path and asks for tuples (decode_columns); "
            "write from code columns",
            "iter_block_payloads is on the save path and asks for tuples (iter_blocks); "
            "write from code columns",
        ]

    def test_the_summary_writer_may_not_ask_for_tuples(self, lint, tmp_path):
        path = write(
            tmp_path,
            "def _bitmap_summaries(relation, pages):\n"
            "    return {(0, 1): bitmap_of(relation.aligned_tuples())}\n"
            "def encode_summaries(pages, bitmaps):\n"
            "    return b''.join(words(block) for _meta, block in reader.iter_blocks())\n",
        )
        findings = list(lint._check_storage_file(path))
        assert sorted(f.message for f in findings) == [
            "_bitmap_summaries is on the save path and asks for tuples (aligned_tuples); "
            "write from code columns",
            "encode_summaries is on the save path and asks for tuples (iter_blocks); "
            "write from code columns",
        ]

    def test_rule_covers_the_storage_package(self, lint):
        checked = list(lint._python_files(lint.STORAGE_DIR))
        assert {path.name for path in checked} >= {"format.py", "scan.py", "spill.py", "store.py"}
        for path in checked:
            assert list(lint._check_storage_file(path)) == []


class TestRP408EditsRecordADelta:
    def test_whole_table_work_in_an_edit_is_flagged(self, lint, tmp_path):
        path = write(
            tmp_path,
            "class Database:\n"
            "    def insert(self, table, rows):\n"
            "        current = self.relation(table)\n"
            "        self.catalog.replace_table(table, current.union(rows))\n"
            "    def delete(self, table, rows_or_predicate):\n"
            "        if isinstance(rows_or_predicate, Predicate):\n"
            "            doomed = self.relation(table).select(rows_or_predicate)\n"
            "        else:\n"
            "            doomed = self.relation(table).intersection(rows_or_predicate)\n"
            "    def replace_table(self, name, relation):\n"
            "        old = self.relation(name)\n"
            "        self.catalog.replace_table(name, relation)\n"
            "        return relation.difference(old)\n"
            "class Other:\n"
            "    def insert(self, table, rows):\n"
            "        return self.relation(table).union(rows)\n",
        )
        findings = list(lint._check_edit_methods(path))
        assert codes(findings) == ["RP408", "RP408"]
        assert findings[0].message.startswith(
            "Database.insert does whole-table work on the edit path "
            "(replace_table, self.relation, union)"
        )
        assert findings[1].message.startswith(
            "Database.delete does whole-table work on the edit path (intersection, self.relation)"
        )

    def test_the_predicate_branch_may_read_the_table(self, lint, tmp_path):
        path = write(
            tmp_path,
            "class Database:\n"
            "    def delete(self, table, rows_or_predicate):\n"
            "        if isinstance(rows_or_predicate, Predicate) or callable(rows_or_predicate):\n"
            "            doomed = self.relation(table).select(rows_or_predicate)\n"
            "        else:\n"
            "            doomed = coerce(rows_or_predicate)\n"
            "        return self.catalog.apply_delta(table, (), doomed)\n",
        )
        assert list(lint._check_edit_methods(path)) == []

    def test_only_the_fold_writes_an_existing_table(self, lint, tmp_path):
        path = write(
            tmp_path,
            "class Catalog:\n"
            "    def add_table(self, name, relation):\n"
            "        self._tables[name] = relation\n"
            "    def replace_table(self, name, relation):\n"
            "        self._tables[name] = relation\n"
            "    def __getitem__(self, name):\n"
            "        return self._fold(name)\n"
            "    def _fold(self, name):\n"
            "        relation = self._tables[name] = self._tables[name].with_delta({}, set())\n"
            "        return relation\n"
            "    def apply_delta(self, name, inserted, deleted):\n"
            "        self._tables[name] = self._tables[name].union(inserted)\n"
            "    def declare_key(self, name, attributes):\n"
            "        relation = self._tables[name]\n",
        )
        findings = list(lint._check_catalog_writes(path))
        assert codes(findings) == ["RP408"]
        assert findings[0].message.startswith("Catalog.apply_delta assigns a table's value")

    def test_the_fold_and_its_summary_patches_build_nothing_whole(self, lint, tmp_path):
        relation = tmp_path / "relation.py"
        relation.write_text(
            "class Relation:\n"
            "    def with_delta(self, added, removed):\n"
            "        fold = fold_columns(self._encoding, removed, added)\n"
            "        return self._carried(fold)\n"
            "    def _carried(self, fold):\n"
            "        return {key: patch(value, fold) for key, value in self._summaries.items()}\n"
            "def fold_columns(columns, removed, added):\n"
            "    counts = [code_frequencies(column) for column in columns]\n"
            "    return columns, counts\n"
            "def unreached(relation):\n"
            "    return relation.aligned_tuples()\n"
        )
        keys = tmp_path / "keys.py"
        keys.write_text(
            "def _patched(bitmap, fold):\n"
            "    return kernel.gather_sweep(len(fold), fold.codes, fold.codes, range(3), 3)\n"
            "_SUMMARY_PATCHES['containment'] = _patched\n"
        )
        findings = list(lint._check_fold_path([relation, keys]))
        assert codes(findings) == ["RP408", "RP408"]
        messages = sorted(finding.message for finding in findings)
        assert messages[0].startswith(
            "_patched is on a table's fold path and calls gather_sweep"
        )
        assert messages[1].startswith(
            "fold_columns is on a table's fold path and calls code_frequencies"
        )
        assert list(lint._check_fold_path([keys]))[0].message.startswith("no with_delta")

    def test_rule_covers_the_session_and_the_catalog(self, lint):
        assert list(lint._check_edit_methods(lint.DATABASE_FILE)) == []
        assert list(lint._check_catalog_writes(lint.CATALOG_FILE)) == []
        assert list(lint._check_fold_path(lint.FOLD_MODULES)) == []
        names = {function.name for function in lint._methods(
            lint.ast.parse(lint.DATABASE_FILE.read_text()), "Database"
        )}
        assert names >= lint.EDIT_METHODS


class TestRP409ConditionsReadCodeColumns:
    def test_per_row_reads_are_flagged_by_name(self, lint, tmp_path):
        path = write(
            tmp_path,
            "def inclusion_holds(source: Relation, target: Relation, attributes) -> bool:\n"
            "    values = {row.values_for(attributes) for row in source}\n"
            "    return values <= set(target.project(attributes).rows)\n"
            "def attribute_is_key(relation: Relation, attributes) -> bool:\n"
            "    for row in relation:\n"
            "        pass\n"
            "def projections_disjoint(left: Relation, right: Relation, attributes) -> bool:\n"
            "    return frozenset(_distinct_values(left, attributes)).isdisjoint(\n"
            "        key(values) for values in right.aligned_tuples()\n"
            "    )\n",
        )
        findings = list(lint._check_conditions_file(path))
        assert codes(findings) == ["RP409", "RP409"]
        assert findings[0].message.startswith(
            "inclusion_holds reads a relation row by row "
            "(.rows, for … in source, project(, values_for()"
        )
        assert findings[1].message.startswith(
            "attribute_is_key reads a relation row by row (for … in relation)"
        )

    def test_waiver_pragma_suppresses(self, lint, tmp_path):
        path = write(
            tmp_path,
            "# contract: rows-ok (C-level set operations on the row sets)\n"
            "def is_superset_of(left: Relation, right: Relation) -> bool:\n"
            "    return set(right.rows) <= set(left.rows)\n",
        )
        assert list(lint._check_conditions_file(path)) == []

    def test_rule_covers_the_conditions_module(self, lint):
        assert list(lint._check_conditions_file(lint.CONDITIONS_FILE)) == []
        tree = lint.ast.parse(lint.CONDITIONS_FILE.read_text())
        reads = {
            function.name: lint._per_row_reads(function)
            for function in tree.body
            if isinstance(function, lint.ast.FunctionDef)
        }
        assert {name for name, found in reads.items() if found} == set()
        assert {
            "attribute_is_key",
            "condition_c1",
            "inclusion_holds",
            "is_superset_of",
            "projections_disjoint",
        } <= set(reads)


class TestRepositoryIsClean:
    def test_engine_lint_passes_on_the_repo(self, lint):
        assert lint.run() == []

    def test_main_exit_codes(self, lint, capsys):
        assert lint.main([]) == 0
        assert "0 error(s)" in capsys.readouterr().out


class TestRP410CostModelDeclaresNoCoefficients:
    def test_module_level_numbers_are_flagged_by_name(self, lint, tmp_path):
        """The fixture is the pair of constants the rule was written for:
        prices of the tuple-route exchange that outlived it by six PRs."""
        path = write(
            tmp_path,
            "PARALLEL_WORKER_STARTUP = 4000.0\n"
            "EXCHANGE_PER_TUPLE: float = 0.5\n"
            "__all__ = ['PhysicalCostModel']\n"
            "class PhysicalCostModel:\n"
            "    LITERAL_CACHE_SIZE = 256\n"
            "    def _price(self, output):\n"
            "        half_a_touch = 0.5\n"
            "        return half_a_touch * output\n",
        )
        findings = list(lint._check_cost_model_file(path))
        assert codes(findings) == ["RP410", "RP410"]
        assert findings[0].message.startswith(
            "module-level cost coefficient PARALLEL_WORKER_STARTUP;"
        )
        assert findings[1].message.startswith("module-level cost coefficient EXCHANGE_PER_TUPLE;")

    def test_rule_covers_the_cost_model(self, lint):
        assert list(lint._check_cost_model_file(lint.COST_MODEL_FILE)) == []


class TestRP411NumpyStaysBehindItsSeams:
    def test_every_import_form_is_flagged_at_any_depth(self, lint, tmp_path):
        """The fixture is what a block-at-a-time ``Chunk.selected`` is one
        line away from: ``np.flatnonzero`` called where the mask is held."""
        path = write(
            tmp_path,
            "import numpy as np\n"
            "from numpy.lib import stride_tricks\n"
            "import itertools, numpy.linalg\n"
            "from . import numpy\n"
            "import numpyish\n"
            "class Chunk:\n"
            "    def selected(self, mask):\n"
            "        from numpy import flatnonzero\n"
            "        return flatnonzero(mask)\n",
        )
        findings = list(lint._check_numpy_imports(path))
        assert codes(findings) == ["RP411"] * 4
        assert [f.where.rsplit(":", 1)[1] for f in findings] == ["1", "2", "3", "8"]

    def test_the_seams_are_exempt_and_exist(self, lint):
        for seam in lint.NUMPY_SEAMS:
            assert "import numpy" in seam.read_text()
            assert list(lint._check_numpy_imports(seam)) == []


class TestRP412NoGeneratedCodeRuns:
    def test_the_builtins_are_flagged_and_attribute_calls_are_not(self, lint, tmp_path):
        path = write(
            tmp_path,
            "import re\n"
            "code = compile('x + 1', '<segment>', 'eval')\n"
            "exec(code, {})\n"
            "value = eval('1 + 1')\n"
            "pattern = re.compile(r'_b\\d+')\n"
            "self.compile(plan)\n"
            "compiled = compile_plan\n",
        )
        findings = list(lint._check_code_runners(path))
        assert codes(findings) == ["RP412"] * 3
        assert [f.where.rsplit(":", 1)[1] for f in findings] == ["2", "3", "4"]
        assert findings[0].message.startswith("compile() runs code built at run time")

    def test_rule_covers_the_whole_package(self, lint):
        for path in lint._python_files(lint.SOURCE_DIR):
            assert list(lint._check_code_runners(path)) == [], path


class TestRP413PhysicalResultsStayBlocks:
    def test_row_builders_outside_a_waived_function_are_flagged(self, lint, tmp_path):
        """The fixture is the result boundary the rule was written for:
        ``execute`` turning a drained block into rows nobody asked for."""
        path = write(
            tmp_path,
            "class Operator(PhysicalOperator):\n"
            "    def execute(self):\n"
            "        return Relation.from_aligned(self._schema, self.drain())\n"
            "    def rows(self):\n"
            "        from_schema = Row.from_schema\n"
            "        return [from_schema(self._schema, values) for values in self.drain()]\n"
            "    # contract: rows-ok (the public Row API of aggregates)\n"
            "    def groups(self, chunk):\n"
            "        def members(tuples):\n"
            "            return Row.block(chunk.schema, tuples)\n"
            "        return members\n"
            "    def result(self):\n"
            "        return Relation._from_block(self._schema, self.drain())\n"
            "SHARED = Row.block\n",
        )
        findings = list(lint._check_row_builders(path))
        assert codes(findings) == ["RP413"] * 3
        assert [f.where.rsplit(":", 1)[1] for f in findings] == ["3", "5", "14"]
        assert findings[0].message.startswith("Relation.from_aligned builds rows outside")

    def test_the_waived_sites_are_the_public_row_apis(self, lint, monkeypatch):
        for path in lint._python_files(lint.PHYSICAL_DIR):
            assert list(lint._check_row_builders(path)) == [], path
        monkeypatch.setattr(lint, "_has_rows_ok_pragma", lambda lines, line: False)
        sites = sorted(
            finding.message.split(" ")[0] + " in " + Path(finding.where.split(":")[0]).name
            for path in lint._python_files(lint.PHYSICAL_DIR)
            for finding in lint._check_row_builders(path)
        )
        # Chunk.rows (joins and aggregates hand rows to user code) and a
        # Filter over an opaque callable: nothing builds a result's rows.
        assert sites == ["Row.block in base.py", "Row.from_schema in basic.py"]

    def test_a_row_built_in_a_copy_of_the_catalog_is_flagged(self, lint, tmp_path):
        source = lint.CATALOG_FILE.read_text()
        planted = source.replace(
            "        self._pending.pop(name, None)\n",
            "        self._pending.pop(name, None)\n        Row.block(relation.schema, [])\n",
        )
        assert planted != source
        path = tmp_path / "catalog.py"
        path.write_text(planted)
        (finding,) = lint._check_row_builders(path)
        assert finding.code == "RP413"
        assert finding.message.startswith("Row.block builds rows outside")

    def test_the_rule_covers_the_catalog_session_views_and_laws(self, lint, monkeypatch):
        checked = [
            path
            for path in lint._python_files(lint.SOURCE_DIR)
            if path.relative_to(lint.SOURCE_DIR).parts[0] in lint.ROW_FREE_PACKAGES
        ]
        assert {lint.CATALOG_FILE, lint.DATABASE_FILE, lint.CONDITIONS_FILE} <= set(checked)
        assert [finding for path in checked for finding in lint._check_row_builders(path)] == []
        monkeypatch.setattr(lint, "_has_rows_ok_pragma", lambda lines, line: False)
        sites = [
            finding.message.split(" ")[0] + " in " + Path(finding.where.split(":")[0]).name
            for path in checked
            for finding in lint._check_row_builders(path)
        ]
        # A view input's selection predicate takes a Row; nothing else
        # outside the physical layer builds one.
        assert sites == ["Row.from_schema in view.py"]


class TestRP414QueryPathInterpretsNoExpression:
    def test_interpreter_calls_off_the_context_are_flagged(self, lint, tmp_path):
        """The fixture is the two sites the rule was written for: Law 12's
        ``apply`` interpreting its candidate, and the context's leaf case."""
        path = write(
            tmp_path,
            "class Law12(RewriteRule):\n"
            "    def apply(self, expression, context=None):\n"
            "        candidate = Project(SemiJoin(expression.left, expression.right), attrs)\n"
            "        if len(candidate.evaluate(context.database)) == 1:\n"
            "            return candidate\n"
            "        dividend = context.evaluate(expression.left)\n"
            "        interpret = Expression.evaluate\n"
            "class RewriteContext:\n"
            "    def evaluate(self, expression):\n"
            "        if isinstance(expression, RelationRef):\n"
            "            return expression.evaluate(self.database)  # contract: evaluate-ok (a)\n"
            "        return expression.evaluate(self.database)\n",
        )
        findings = list(lint._check_interpreter_calls(path))
        assert codes(findings) == ["RP414"] * 3
        findings.sort(key=lambda f: int(f.where.rsplit(":", 1)[1]))
        assert [f.where.rsplit(":", 1)[1] for f in findings] == ["4", "7", "12"]
        assert findings[0].message.startswith(
            "candidate.evaluate runs the logical interpreter on the query path"
        )

    def test_the_one_waived_site_is_the_context_leaf(self, lint, monkeypatch):
        monkeypatch.setattr(lint, "EVALUATE_PRAGMA", "# no waiver matches this")
        sites = [
            "/".join(Path(found.where.split(":")[0]).parts[-2:])
            for found in lint.run()
            if found.code == "RP414"
        ]
        assert sites == ["laws/base.py"]


class TestRP415NoOperatorChargesAnothersCounter:
    def test_counter_writes_outside_the_base_class_are_flagged(self, lint, tmp_path):
        """The fixture is the shortcut the rule was written against: an
        operator answering from a cache and charging its input's count."""
        path = write(
            tmp_path,
            "class Division(PhysicalOperator):\n"
            "    def _produce_chunks(self):\n"
            "        self._children[0].tuples_out += len(self.cached)\n"
            "        scan = self._children[0]\n"
            "        scan.tuples_out, other = 0, 1\n"
            "        yield from self._emit()\n"
            "    def chunks(self):\n"
            "        self.tuples_out: int = 5\n"
            "        return iter(())\n"
            "count = scan.tuples_out\n",
        )
        findings = list(lint._check_counter_writes(path))
        assert codes(findings) == ["RP415"] * 3
        assert [f.where.rsplit(":", 1)[1] for f in findings] == ["3", "5", "8"]
        assert findings[0].message.startswith("self._children[0].tuples_out is assigned outside")

    def test_the_base_class_count_and_resets_are_the_only_writers(self, lint):
        for path in lint._python_files(lint.SOURCE_DIR):
            assert list(lint._check_counter_writes(path)) == [], path
        base = lint.PHYSICAL_DIR / "base.py"
        source = base.read_text()
        assert source.count(".tuples_out = 0") == 2 and source.count(".tuples_out += ") == 1


class TestRP416LawsStateTheirSides:
    def test_hand_written_matches_and_apply_are_flagged(self, lint, tmp_path):
        """The fixture is the shape every law had before: a pattern re-derived
        by hand in ``matches`` and a right side in ``apply``."""
        path = write(
            tmp_path,
            "class Law3(RewriteRule):\n"
            "    conditions = ()\n"
            "    def matches(self, expression, context=None):\n"
            "        return isinstance(expression, Select)\n"
            "    def apply(self, expression, context=None):\n"
            "        return expression.child\n"
            "class Helper:\n"
            "    def apply(self, expression):\n"
            "        return expression\n",
        )
        findings = list(lint._check_law_statement(path))
        assert codes(findings) == ["RP416"]
        assert findings[0].where.rsplit(":", 1)[1] == "1"
        assert findings[0].message.startswith(
            "law class Law3 defines no lhs and defines no rhs and hand-writes apply"
        )

    def test_a_law_stating_lhs_rhs_and_holds_is_clean(self, lint, tmp_path):
        path = write(
            tmp_path,
            "class Law3(RewriteRule):\n"
            "    conditions = ('p references A only',)\n"
            "    @staticmethod\n"
            "    def lhs(dividend, divisor, predicate):\n"
            "        return Select(SmallDivide(dividend, divisor), predicate)\n"
            "    @staticmethod\n"
            "    def rhs(dividend, divisor, predicate):\n"
            "        return SmallDivide(Select(dividend, predicate), divisor)\n"
            "    @staticmethod\n"
            "    def holds(context, dividend, divisor, predicate):\n"
            "        return True\n",
        )
        assert list(lint._check_law_statement(path)) == []

    def test_every_law_in_the_repository_states_its_sides(self, lint):
        for path in lint._python_files(lint.LAWS_DIR):
            assert list(lint._check_law_statement(path)) == [], path


class TestRP417RoutingHashesAlikeInEveryProcess:
    def test_a_planted_seeded_hash_on_the_tuple_route_is_flagged(self, lint, tmp_path):
        """Mutation check: the real exchange module with its tuple route put
        back on the builtin ``hash`` fails the rule, at that line."""
        exchange = (lint.PARALLEL_DIR / "exchange.py").read_text()
        assert list(lint._check_seeded_hash(lint.PARALLEL_DIR / "exchange.py")) == []
        planted = "buckets[stable_hash(key) % count]"
        assert exchange.count(planted) == 1
        path = write(tmp_path, exchange.replace(planted, "buckets[hash(key) % count]"))
        findings = list(lint._check_seeded_hash(path))
        assert codes(findings) == ["RP417"]
        line = int(findings[0].where.rsplit(":", 1)[1])
        assert "hash(key) % count" in path.read_text().splitlines()[line - 1]

    def test_only_stable_hash_may_name_the_builtin(self, lint, tmp_path):
        path = write(
            tmp_path,
            "def stable_hash(value):\n"
            "    return hash(value)\n"
            "def route_codes(keys, count):\n"
            "    return np.fromiter(map(hash, keys), dtype=np.int64) % count\n"
            "def route(key, count):\n"
            "    return stable_hash(key) % count\n"
            "class Key:\n"
            "    def __hash__(self):\n"
            "        return hash(self.values)\n",
        )
        findings = list(lint._check_seeded_hash(path))
        assert codes(findings) == ["RP417"] * 2
        assert [f.where.rsplit(":", 1)[1] for f in findings] == ["4", "9"]

    def test_rule_covers_the_physical_layer_and_the_encoding(self, lint, tmp_path, monkeypatch):
        for path in [*lint._python_files(lint.PHYSICAL_DIR), lint.ENCODING_FILE]:
            assert list(lint._check_seeded_hash(path)) == [], path
        encoding = lint.ENCODING_FILE.read_text()
        assert encoding.count("map(stable_hash, keys)") == 1
        path = write(tmp_path, encoding.replace("map(stable_hash, keys)", "map(hash, keys)"))
        monkeypatch.setattr(lint, "ENCODING_FILE", path)
        assert codes(lint.run()) == ["RP417"]
