"""Operation-registry tests: semantics and hardware metadata."""

import numpy as np
import pytest

from repro.dfg.ops import op_info


class TestRegistry:
    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            op_info("conv2d")

    def test_arities(self):
        assert op_info("neg").arity == 1
        assert op_info("mul").arity == 2
        assert op_info("select").arity == 3

    def test_reduce_flags(self):
        for name in ("reduce_sum", "reduce_prod", "reduce_min", "reduce_max"):
            assert op_info(name).reduce
        assert not op_info("add").reduce


class TestHardwareMetadata:
    def test_lut_ops_marked_nonlinear(self):
        """Section 5.1: sigmoid, gaussian, divide, logarithm use the LUT."""
        for name in ("sigmoid", "gaussian", "div", "log", "exp", "sqrt"):
            assert op_info(name).nonlinear, name

    def test_alu_ops_single_cycle(self):
        for name in ("add", "sub", "mul", "gt", "min", "select"):
            assert op_info(name).cycles == 1
            assert not op_info(name).nonlinear

    def test_nonlinear_ops_cost_more(self):
        assert op_info("div").cycles > op_info("mul").cycles


class TestNumericalSemantics:
    def test_comparisons_return_masks(self):
        lt = op_info("lt").numpy_fn
        out = lt(np.array([1.0, 3.0]), np.array([2.0, 2.0]))
        np.testing.assert_array_equal(out, [1.0, 0.0])

    def test_comparisons_work_on_python_scalars(self):
        assert float(op_info("gt").numpy_fn(3.0, 1.0)) == 1.0
        assert float(op_info("le").numpy_fn(3.0, 1.0)) == 0.0

    def test_select_routes_by_mask(self):
        sel = op_info("select").numpy_fn
        out = sel(np.array([1.0, 0.0]), np.array([10.0, 10.0]),
                  np.array([20.0, 20.0]))
        np.testing.assert_array_equal(out, [10.0, 20.0])

    def test_sigmoid_saturates_safely(self):
        sig = op_info("sigmoid").numpy_fn
        assert float(sig(np.float64(1000.0))) == pytest.approx(1.0)
        assert float(sig(np.float64(-1000.0))) == pytest.approx(0.0)

    def test_log_clamps_at_zero(self):
        log = op_info("log").numpy_fn
        assert np.isfinite(log(np.float64(0.0)))

    def test_sqrt_clamps_negative(self):
        sqrt = op_info("sqrt").numpy_fn
        assert float(sqrt(np.float64(-1.0))) == 0.0

    def test_gaussian_is_exp_minus_square(self):
        g = op_info("gaussian").numpy_fn
        assert float(g(np.float64(2.0))) == pytest.approx(np.exp(-4.0))

    def test_reduce_sum_over_axis(self):
        fn = op_info("reduce_sum").numpy_fn
        out = fn(np.arange(6.0).reshape(2, 3), axis=(1,))
        np.testing.assert_array_equal(out, [3.0, 12.0])
