"""Tests for the performance estimation tool."""

import pytest

from repro.dfg.translate import translate
from repro.dsl.parser import parse
from repro.planner.estimator import (
    FLAT,
    TREE,
    CostParams,
    effective_data_words,
    estimate_thread_cycles,
)

LINREG = """
model_input x[n];
model_output y;
model w[n];
gradient g[n];
iterator i[0:n];
s = sum[i](w[i] * x[i]);
e = s - y;
g[i] = e * x[i];
"""


def lin_dfg(n=1024):
    return translate(parse(LINREG), {"n": n}).dfg


class TestScaling:
    def test_more_pes_fewer_cycles(self):
        dfg = lin_dfg()
        small = estimate_thread_cycles(dfg, n_pe=16, rows=1)
        big = estimate_thread_cycles(dfg, n_pe=256, rows=16)
        assert big.cycles < small.cycles

    def test_saturates_with_enough_pes(self):
        dfg = lin_dfg(64)
        huge = estimate_thread_cycles(dfg, n_pe=65536, rows=48)
        huger = estimate_thread_cycles(dfg, n_pe=262144, rows=48)
        assert huger.cycles == huge.cycles
        assert huge.cycles >= huge.critical_path

    def test_work_scales_with_problem_size(self):
        small = estimate_thread_cycles(lin_dfg(512), n_pe=16, rows=1)
        big = estimate_thread_cycles(lin_dfg(2048), n_pe=16, rows=1)
        assert big.work_cycles == pytest.approx(4 * small.work_cycles, rel=0.05)

    def test_single_pe_allowed(self):
        est = estimate_thread_cycles(lin_dfg(64), n_pe=1, rows=1)
        assert est.work_cycles >= 3 * 64  # mul + add-tree + final mul

    def test_zero_pes_rejected(self):
        with pytest.raises(ValueError):
            estimate_thread_cycles(lin_dfg(64), n_pe=0, rows=1)


class TestInterconnect:
    def test_tree_beats_flat_at_scale(self):
        """The structural reason CoSMIC outperforms TABLA (Figure 17)."""
        dfg = lin_dfg(4096)
        tree = estimate_thread_cycles(dfg, 512, 32, CostParams(interconnect=TREE))
        flat = estimate_thread_cycles(dfg, 512, 32, CostParams(interconnect=FLAT))
        assert flat.comm_cycles > 5 * tree.comm_cycles

    def test_gap_grows_with_pes(self):
        dfg = lin_dfg(4096)

        def gap(n_pe, rows):
            tree = estimate_thread_cycles(dfg, n_pe, rows, CostParams(interconnect=TREE))
            flat = estimate_thread_cycles(dfg, n_pe, rows, CostParams(interconnect=FLAT))
            return flat.cycles / tree.cycles

        assert gap(512, 32) > gap(32, 2)

    def test_ops_first_mapping_adds_traffic(self):
        dfg = lin_dfg(4096)
        data_first = estimate_thread_cycles(
            dfg, 256, 16, CostParams(mapping="data_first")
        )
        ops_first = estimate_thread_cycles(
            dfg, 256, 16, CostParams(mapping="ops_first")
        )
        assert ops_first.comm_cycles > data_first.comm_cycles


class TestDensity:
    def test_sparse_input_reduces_work(self):
        dfg = lin_dfg(4096)
        dense = estimate_thread_cycles(dfg, 64, 4)
        sparse = estimate_thread_cycles(dfg, 64, 4, density={"x": 0.01})
        assert sparse.work_cycles < 0.2 * dense.work_cycles

    def test_density_only_affects_gated_nodes(self):
        dfg = lin_dfg(4096)
        est = estimate_thread_cycles(dfg, 64, 4, density={"x": 0.0})
        # The reduction itself still emits its (dense) scalar output.
        assert est.cycles > 0

    def test_effective_data_words_dense(self):
        dfg = lin_dfg(100)
        assert effective_data_words(dfg) == 101  # x[100] + y

    def test_effective_data_words_sparse(self):
        dfg = lin_dfg(1000)
        words = effective_data_words(dfg, {"x": 0.002})
        # 2 * 1000 * 0.002 = 4 index/value words + dense y
        assert words == pytest.approx(5.0)

    def test_sparse_never_exceeds_dense(self):
        dfg = lin_dfg(100)
        assert effective_data_words(dfg, {"x": 0.9}) <= 101


class TestBreakdown:
    def test_per_node_sums_to_total(self):
        dfg = lin_dfg(256)
        est = estimate_thread_cycles(dfg, 64, 4)
        assert sum(est.per_node.values()) == pytest.approx(
            est.work_cycles + est.comm_cycles
        )

    def test_cycles_property_takes_max(self):
        dfg = lin_dfg(64)
        est = estimate_thread_cycles(dfg, 8192, 48)
        assert est.cycles >= est.work_cycles + est.comm_cycles
        assert est.cycles >= est.critical_path
