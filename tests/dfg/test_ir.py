"""Direct unit tests for the DFG IR (graph construction and invariants)."""

import pytest

from repro.dfg.ir import CONST, DATA, MODEL, Dfg


def small_graph():
    """x[i] * w[i] -> reduce -> +1"""
    dfg = Dfg({"i": 4})
    x = dfg.add_value("x", DATA, ("i",))
    w = dfg.add_value("w", MODEL, ("i",))
    prod = dfg.add_node("mul", [x, w], "prod", ("i",))
    total = dfg.add_node(
        "reduce_sum", [prod], "total", (), reduce_axes=("i",)
    )
    one = dfg.add_value("one", CONST, (), const_value=1.0)
    out = dfg.add_node("add", [total, one], "out", (), is_gradient=True)
    dfg.outputs["out"] = out.vid
    return dfg, (x, w, prod, total, out)


class TestConstruction:
    def test_shapes(self):
        dfg, (x, w, prod, total, out) = small_graph()
        assert dfg.shape(x) == (4,)
        assert dfg.shape(total) == ()
        assert dfg.size(prod) == 4

    def test_unknown_axis_rejected(self):
        dfg = Dfg({"i": 4})
        with pytest.raises(ValueError):
            dfg.add_value("x", DATA, ("j",))

    def test_unknown_category_rejected(self):
        dfg = Dfg()
        with pytest.raises(ValueError):
            dfg.add_value("x", "WEIGHTS")

    def test_unknown_op_rejected(self):
        dfg = Dfg()
        a = dfg.add_value("a", CONST, (), const_value=1.0)
        with pytest.raises(KeyError):
            dfg.add_node("fma", [a], "r", ())

    def test_topo_order_is_creation_order(self):
        dfg, _ = small_graph()
        nids = [n.nid for n in dfg.topo_order()]
        assert nids == sorted(nids)


class TestQueries:
    def test_inputs_by_category(self):
        dfg, _ = small_graph()
        assert [v.name for v in dfg.inputs_of_category(DATA)] == ["x"]
        assert [v.name for v in dfg.inputs_of_category(MODEL)] == ["w"]

    def test_gradient_outputs(self):
        dfg, _ = small_graph()
        assert [v.name for v in dfg.gradient_outputs()] == ["out"]

    def test_consumers(self):
        dfg, (x, w, prod, total, out) = small_graph()
        assert [n.op for n in dfg.consumers(prod)] == ["reduce_sum"]
        assert dfg.consumers(out) == []

    def test_node_iter_space(self):
        dfg, _ = small_graph()
        spaces = [dfg.node_iter_space(n) for n in dfg.topo_order()]
        assert spaces == [4, 4, 1]  # mul, reduce, add

    def test_counts(self):
        dfg, _ = small_graph()
        assert dfg.data_words() == 4
        assert dfg.model_words() == 4
        assert dfg.gradient_words() == 1
        assert dfg.total_scalar_ops() == 9

    def test_depth_and_critical_path(self):
        dfg, _ = small_graph()
        assert dfg.depth() == 3
        assert dfg.critical_path_cycles() >= 3

    def test_live_interim_excludes_reduce_feeds(self):
        dfg, _ = small_graph()
        # prod feeds only a reduce; total feeds the gradient add.
        assert dfg.live_interim_words() == 1

    def test_uses_nonlinear(self):
        dfg, _ = small_graph()
        assert not dfg.uses_nonlinear()
        extra = dfg.add_node(
            "sigmoid", [dfg.values[dfg.outputs["out"]]], "s", ()
        )
        assert dfg.uses_nonlinear()


class TestValidation:
    def test_valid_graph_passes(self):
        dfg, _ = small_graph()
        dfg.validate()

    def test_arity_checked(self):
        dfg = Dfg()
        a = dfg.add_value("a", CONST, (), const_value=1.0)
        out = dfg.add_node("add", [a], "r", ())  # add wants 2 inputs
        with pytest.raises(ValueError, match="inputs"):
            dfg.validate()

    def test_reduce_needs_axes(self):
        dfg = Dfg({"i": 4})
        x = dfg.add_value("x", DATA, ("i",))
        dfg.add_node("reduce_sum", [x], "r", ("i",))  # no reduce_axes
        with pytest.raises(ValueError, match="reduce"):
            dfg.validate()

    def test_reduce_axis_must_exist_on_input(self):
        dfg = Dfg({"i": 4, "j": 2})
        x = dfg.add_value("x", DATA, ("i",))
        dfg.add_node("reduce_sum", [x], "r", ("i",), reduce_axes=("j",))
        with pytest.raises(ValueError):
            dfg.validate()

    def test_dangling_output_reference(self):
        dfg, _ = small_graph()
        dfg.outputs["ghost"] = 999
        with pytest.raises(ValueError, match="missing"):
            dfg.validate()
