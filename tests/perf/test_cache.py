"""Artifact memos held by their owners: a ``Benchmark`` keeps its translations."""

from repro.ml.benchmarks import benchmark


class TestCachedEntryPoints:
    def test_cached_translate_returns_same_object(self):
        bench = benchmark("stock")
        assert bench.translate() is bench.translate()
        assert bench.translate(scaled=True) is bench.translate(scaled=True)

    def test_cached_translate_distinguishes_bindings(self):
        bench = benchmark("stock")
        paper, functional = bench.translate(), bench.translate(scaled=True)
        assert paper is not functional
        assert paper.dfg.extents != functional.dfg.extents
