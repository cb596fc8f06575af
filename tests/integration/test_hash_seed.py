"""The same input gives the same bytes, plans and partitions in every process.

Python seeds its string hash per process (``PYTHONHASHSEED``).  A table's
scan order is the order it was given, not a set's, and the exchange routes
by a hash that no seed moves, so each script below prints the same thing
under three hash seeds: table files byte for byte (tables given in order,
built by the algebra, or edited and folded), ``explain`` text with its
estimated costs, and the partition sizes of a budgeted division.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SEEDS = ("0", "1", "2")

#: Builds one table with ``from_aligned`` and one with the constructor,
#: divides, saves, and prints the ``explain`` text and every table file's
#: bytes in manifest order (file names carry the writer's pid by design).
SAVE_SCRIPT = """
import json, sys
from pathlib import Path
import repro
from repro.relation import Relation

out = Path(sys.argv[1])
supplies = Relation.from_aligned(
    ["s_no", "p_no"],
    [(f"s{i % 37}", f"p{i * 7 % 23}") for i in range(500)] + [("s5", f"p{i}") for i in range(23)],
)
colours = ("red", "blue", "green")
parts = Relation(["p_no", "color"], [{"color": colours[i % 3], "p_no": f"p{i}"} for i in range(23)])
db = repro.connect({"supplies": supplies, "parts": parts})
query = db.sql(
    "SELECT s_no FROM supplies AS s DIVIDE BY (SELECT p_no FROM parts WHERE color = 'red') "
    "AS p ON s.p_no = p.p_no"
)
quotient = sorted(query.run().to_tuples())
db.save(out)
manifest = json.loads((out / "manifest.json").read_text())
files = [(name, (out / file).read_bytes().hex()) for name, file in manifest["tables"].items()]
print(json.dumps({"explain": query.explain(), "quotient": quotient, "files": files}))
"""

#: Registers tables built by the algebra (a projection, a union and a
#: natural join over string keys) and one edited, folded and edited again,
#: saves, and prints every table file's bytes in manifest order.
ALGEBRA_SCRIPT = """
import json, sys
from pathlib import Path
import repro
from repro.algebra import predicates as P
from repro.relation import Relation

out = Path(sys.argv[1])
supplies = Relation.from_aligned(
    ["s_no", "p_no"], [(f"s{i % 37}", f"p{i * 7 % 23}") for i in range(500)]
)
parts = Relation.from_aligned(
    ["p_no", "color"], [(f"p{i}", ("red", "blue", "green")[i % 3]) for i in range(23)]
)
projected = supplies.project(["p_no"])
united = projected.union(Relation.from_aligned(["p_no"], [(f"p{i}",) for i in range(15, 40)]))
db = repro.connect({
    "projected": projected, "united": united, "joined": supplies.natural_join(parts),
    "edited": supplies.rename({"s_no": "s", "p_no": "p"}),
})
db.insert("edited", [("s40", "p1"), ("s41", "p2")])
db.delete("edited", [("s0", "p0"), ("s1", "p7")])
db.sql("SELECT s FROM edited AS e DIVIDE BY (SELECT p FROM edited WHERE s = 's5') AS f ON e.p = f.p").run()
db.delete("edited", P.equals(P.attr("s"), "s2"))
db.insert("edited", Relation.from_aligned(["p", "s"], [("p3", "s42"), ("p4", "s43")]))
db.save(out)
manifest = json.loads((out / "manifest.json").read_text())
files = [(name, (out / file).read_bytes().hex()) for name, file in manifest["tables"].items()]
print(json.dumps({"files": files}))
"""

#: A division over string keys under a memory budget: its exchange routes
#: every tuple by its key and spills; prints each partition's input size.
PARTITION_SCRIPT = """
import json
import repro
from repro.relation import Relation

dividend = Relation.from_aligned(
    ["a", "b"], [(f"s{i % 401}", f"p{i * 7 % 29}") for i in range(8000)]
)
divisor = Relation.from_aligned(["b"], [(f"p{i}",) for i in range(0, 29, 4)])
db = repro.connect({"r1": dividend, "r2": divisor}, memory_budget_mb=0.05)
query = db.sql("SELECT a FROM r1 AS x DIVIDE BY r2 AS y ON x.b = y.b")
quotient = sorted(query.run().to_tuples())
prepared, _cached = db._prepare(query.expression)
sizes = [
    node.partition_input_sizes for node in prepared.plan.walk()
    if getattr(node, "partition_input_sizes", None)
]
print(json.dumps({"sizes": sizes, "quotient": quotient}))
"""


def run_under_each_seed(script, *arguments):
    """The script's JSON output per hash seed."""
    outputs = []
    for seed in SEEDS:
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-c", script, *(str(argument) + seed for argument in arguments)],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT, timeout=120, check=False,
        )  # fmt: skip
        assert done.returncode == 0, done.stderr
        outputs.append(json.loads(done.stdout))
    return outputs


def test_saved_bytes_and_explain_repeat_under_every_hash_seed(tmp_path):
    outputs = run_under_each_seed(SAVE_SCRIPT, tmp_path / "store-")
    first = outputs[0]
    assert [name for name, _bytes in first["files"]] == ["parts", "supplies"]
    assert "Estimated cost : " in first["explain"] and first["quotient"]
    for other in outputs[1:]:
        assert other["files"] == first["files"]
        assert other["explain"] == first["explain"]
        assert other["quotient"] == first["quotient"]


def test_algebra_results_and_edited_tables_save_the_same_bytes_under_every_hash_seed(tmp_path):
    outputs = run_under_each_seed(ALGEBRA_SCRIPT, tmp_path / "algebra-")
    names = [name for name, _bytes in outputs[0]["files"]]
    assert names == ["edited", "joined", "projected", "united"]
    for other in outputs[1:]:
        assert other == outputs[0]


def test_budgeted_partitions_repeat_under_every_hash_seed():
    outputs = run_under_each_seed(PARTITION_SCRIPT)
    (sizes,) = outputs[0]["sizes"]
    assert len([size for size in sizes if size]) > 1  # a real split, not one bucket
    for other in outputs[1:]:
        assert other == outputs[0]
