"""NodeAccelerator tests: Figure 1's per-node flow."""

import numpy as np
import pytest

from repro.dfg.translate import translate
from repro.dsl.parser import parse
from repro.hw.node import NodeAccelerator
from repro.hw.spec import XILINX_VU9P
from repro.planner.plan import Planner

LINREG = """
minibatch = 1024;
model_input x[n];
model_output y;
model w[n];
gradient g[n];
iterator i[0:n];
s = sum[i](w[i] * x[i]);
g[i] = (s - y) * x[i];
"""


@pytest.fixture
def node():
    t = translate(parse(LINREG), {"n": 16})
    plan = Planner(XILINX_VU9P).plan(t.dfg, 1024)
    return NodeAccelerator(t, plan), t


class TestFunctional:
    def test_partial_equals_full_batch_mean(self, node):
        """Splitting across threads and mean-folding the partials equals
        the whole-partition mean gradient (gradient linearity, Eq. 3)."""
        accel, t = node
        rng = np.random.default_rng(0)
        N, n = 64, 16
        feeds = {"x": rng.normal(size=(N, n)), "y": rng.normal(size=N)}
        model = {"w": rng.normal(size=n)}
        result = accel.process_partition(feeds, model)
        expected = (
            (feeds["x"] @ model["w"] - feeds["y"])[:, None] * feeds["x"]
        ).mean(axis=0)
        # Thread shards may differ in size by one; tolerance covers the
        # resulting tiny weighting difference in the mean-of-means.
        np.testing.assert_allclose(result.partials["g"], expected, atol=1e-2)

    def test_exact_when_shards_even(self, node):
        accel, t = node
        rng = np.random.default_rng(1)
        N = accel.threads * 8  # divisible
        feeds = {"x": rng.normal(size=(N, 16)), "y": rng.normal(size=N)}
        model = {"w": rng.normal(size=16)}
        result = accel.process_partition(feeds, model)
        expected = (
            (feeds["x"] @ model["w"] - feeds["y"])[:, None] * feeds["x"]
        ).mean(axis=0)
        np.testing.assert_allclose(result.partials["g"], expected, rtol=1e-10)

    def test_threads_get_balanced_shards(self, node):
        accel, _ = node
        rng = np.random.default_rng(2)
        N = 37
        feeds = {"x": rng.normal(size=(N, 16)), "y": rng.normal(size=N)}
        result = accel.process_partition(feeds, {"w": np.zeros(16)})
        sizes = list(result.thread_samples.values())
        assert sum(sizes) == N
        assert max(sizes) - min(sizes) <= 1

    def test_rejects_empty_partition(self, node):
        accel, _ = node
        with pytest.raises(ValueError):
            accel.process_partition(
                {"x": np.zeros((0, 16)), "y": np.zeros(0)}, {"w": np.zeros(16)}
            )

    def test_rejects_ragged_feeds(self, node):
        accel, _ = node
        with pytest.raises(ValueError):
            accel.process_partition(
                {"x": np.zeros((4, 16)), "y": np.zeros(5)}, {"w": np.zeros(16)}
            )


class TestTiming:
    def test_seconds_scale_with_partition(self, node):
        accel, _ = node
        assert accel.seconds_for(2048) > 1.8 * accel.seconds_for(1024)

    def test_timing_attached_to_result(self, node):
        accel, _ = node
        rng = np.random.default_rng(3)
        feeds = {"x": rng.normal(size=(32, 16)), "y": rng.normal(size=32)}
        result = accel.process_partition(feeds, {"w": np.zeros(16)})
        assert result.cycles > 0
        assert result.seconds == pytest.approx(
            result.cycles / accel.plan.chip.frequency_hz
        )

    def test_multithreading_beats_single_thread_on_compute(self):
        """A compute-bound DFG processes a partition faster with the
        planned multi-threaded design than forced single-threading."""
        from repro.planner.plan import DesignPoint

        MLP = """
        model_input x[n];
        model_output y[c];
        model w1[n, h];
        model w2[h, c];
        gradient g1[n, h];
        gradient g2[h, c];
        iterator i[0:n];
        iterator j[0:h];
        iterator k[0:c];
        hid[j] = sigmoid(sum[i](w1[i, j] * x[i]));
        out[k] = sigmoid(sum[j](w2[j, k] * hid[j]));
        d2[k] = (out[k] - y[k]) * out[k] * (1 - out[k]);
        g2[j, k] = d2[k] * hid[j];
        d1[j] = sum[k](w2[j, k] * d2[k]) * hid[j] * (1 - hid[j]);
        g1[i, j] = d1[j] * x[i];
        """
        t = translate(parse(MLP), {"n": 784, "h": 784, "c": 10})
        planner = Planner(XILINX_VU9P)
        multi = planner.plan(t.dfg, 10_000)
        single_point = DesignPoint(1, multi.design.rows_per_thread, 16)
        single = planner.evaluate(t.dfg, single_point, 10_000)
        a = NodeAccelerator(t, multi)
        b = NodeAccelerator(t, single)
        assert a.seconds_for(1000) < b.seconds_for(1000)
