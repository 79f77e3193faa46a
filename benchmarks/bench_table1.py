"""Table 1: benchmarks, model sizes, dataset shapes, and DSL LoC."""

from repro.bench.figures import table1

PAPER_MODEL_KB = {
    "mnist": 2432, "acoustic": 1527, "stock": 31, "texture": 64,
    "tumor": 8, "cancer1": 24, "movielens": 1176, "netflix": 2854,
    "face": 7, "cancer2": 28,
}


def test_table1(regen):
    result = regen(table1)
    by_name = {r["name"]: r for r in result.rows}
    assert len(result.rows) == 10
    for name, kb in PAPER_MODEL_KB.items():
        assert by_name[name]["model_kb"] == kb
    for row in result.rows:
        assert 22 <= row["loc_paper"] <= 55
        assert row["loc_ours"] <= row["loc_paper"]
