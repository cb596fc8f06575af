"""A great divide over a containment bitmap answers all its groups at once.

Each divisor group is the AND of its values' rows in the dividend's
value-major bitmap, and the numpy kernel answers every group in one
``intersection_matches`` call; no per-group subset scan remains.
"""

import repro
from repro.physical.compile.kernels import NumpyBitsetKernel, PythonBitsetKernel
from repro.workloads import make_great_division_workload


def test_a_warm_great_divide_scans_its_groups_in_one_pass(monkeypatch):
    workload = make_great_division_workload(
        dividend_groups=9000, dividend_group_size=12, divisor_groups=8,
        divisor_group_size=3, domain_size=24, seed=12,
    )  # fmt: skip
    assert len(workload.dividend) >= 100_000
    assert len(workload.divisor.to_set("c")) == 8
    db = repro.connect({"r1": workload.dividend, "r2": workload.divisor}, result_cache_size=0)
    text = "SELECT a, c FROM r1 AS x DIVIDE BY r2 AS y ON x.b = y.b"
    first = db.sql(text).run()  # plans, statistics and the bitmap warm

    calls = {"intersection_matches": [], "subset_matches": 0}
    intersection = NumpyBitsetKernel.intersection_matches

    def counted_intersection(self, rows, set_codes, *args):
        calls["intersection_matches"].append(len(set(set_codes.tolist())))
        return intersection(self, rows, set_codes, *args)

    def counted_subset(*_args):
        calls["subset_matches"] += 1
        raise AssertionError("a per-group subset scan ran")

    monkeypatch.setattr(NumpyBitsetKernel, "intersection_matches", counted_intersection)
    for cls in (PythonBitsetKernel, NumpyBitsetKernel):
        monkeypatch.setattr(cls, "subset_matches", counted_subset)
    second = db.sql(text).run()
    assert calls == {"intersection_matches": [8], "subset_matches": 0}
    assert second.relation == first.relation and len(second.relation) > 0
    assert second.statistics.tuples_by_operator == first.statistics.tuples_by_operator
