"""Memory-interface model tests: DRAM, shifter, prefetch, scheduling tie-in."""

import numpy as np
import pytest

from repro.compiler.memsched import build_thread_index_table
from repro.compiler.program import compile_thread
from repro.compiler.scheduling import SHIFTER_LATENCY
from repro.dfg.ir import DATA
from repro.dfg.translate import translate
from repro.dsl.parser import parse
from repro.hw.memory import Dram, MemoryInterface, PrefetchBuffer, Shifter

LINREG = """
model_input x[n];
model_output y;
model w[n];
gradient g[n];
iterator i[0:n];
s = sum[i](w[i] * x[i]);
g[i] = (s - y) * x[i];
"""


def make_program(n=12, rows=2, columns=4):
    dfg = translate(parse(LINREG), {"n": n}).dfg
    return compile_thread(dfg, rows=rows, columns=columns)


class TestDram:
    def test_layout_from_samples(self):
        dram = Dram.from_samples([np.arange(3.0), np.arange(3.0) + 10])
        np.testing.assert_array_equal(
            dram.words, [0, 1, 2, 10, 11, 12]
        )

    def test_read_window(self):
        dram = Dram(np.arange(10.0))
        np.testing.assert_array_equal(dram.read(3, 4), [3, 4, 5, 6])

    def test_out_of_bounds(self):
        dram = Dram(np.arange(4.0))
        with pytest.raises(IndexError):
            dram.read(2, 4)


class TestShifter:
    def test_aligned_burst_passthrough(self):
        s = Shifter(4)
        lanes = s.align(np.array([1.0, 2.0, 3.0, 4.0]), source_lane=0)
        assert lanes == [1.0, 2.0, 3.0, 4.0]
        assert s.rotations == 0

    def test_rotation(self):
        s = Shifter(4)
        lanes = s.align(np.array([1.0, 2.0]), source_lane=3, target_lane=1)
        # shift = (1 - 3) % 4 = 2 -> words land on lanes (3+0+2)%4=1, (3+1+2)%4=2
        assert lanes == [None, 1.0, 2.0, None]
        assert s.rotations == 1

    def test_burst_too_wide(self):
        with pytest.raises(ValueError):
            Shifter(2).align(np.zeros(3), 0)

    def test_zero_columns_rejected(self):
        with pytest.raises(ValueError):
            Shifter(0)


class TestPrefetchBuffer:
    def test_put_drain(self):
        buf = PrefetchBuffer(capacity_words=4)
        buf.put(1, 0.5)
        buf.put(2, 1.5)
        assert buf.occupancy == 2
        assert buf.drain() == [(1, 0.5), (2, 1.5)]
        assert buf.occupancy == 0

    def test_peak_tracked(self):
        buf = PrefetchBuffer(capacity_words=4)
        for i in range(3):
            buf.put(i, 0.0)
        buf.drain()
        assert buf.peak_words == 3

    def test_overrun(self):
        buf = PrefetchBuffer(capacity_words=1)
        buf.put(0, 0.0)
        with pytest.raises(OverflowError):
            buf.put(1, 0.0)


class TestMemoryInterface:
    def test_stream_delivers_all_elements(self):
        prog = make_program()
        n = 12
        sample = np.concatenate([np.arange(n, dtype=float), [99.0]])  # x + y
        dram = Dram.from_samples([sample])
        delivered = {}
        mi = MemoryInterface(prog)
        arrivals = mi.stream_sample(
            dram, 0, lambda pe, vid, w: delivered.__setitem__(vid, (pe, w))
        )
        elements = prog.expansion.input_elements(DATA)
        assert len(arrivals) == len(elements)
        for position, (name, index, vid) in enumerate(elements):
            pe, word = delivered[vid]
            assert word == float(sample[position])
            assert pe == prog.mapping.pe_of_value[vid]

    def test_arrivals_match_scheduler_assumption(self):
        """The hardware's delivery cycles equal the gates the static
        scheduler used — schedule and memory system cannot drift."""
        from repro.compiler.scheduling import _data_arrivals

        prog = make_program()
        n = 12
        dram = Dram.from_samples(
            [np.concatenate([np.arange(n, dtype=float), [0.0]])]
        )
        mi = MemoryInterface(prog)
        arrivals = mi.stream_sample(dram, 0, lambda pe, vid, w: None)
        assert arrivals == _data_arrivals(prog.mapping)

    def test_second_sample_offsets_address(self):
        prog = make_program()
        n = 12
        s0 = np.concatenate([np.zeros(n), [0.0]])
        s1 = np.concatenate([np.arange(n, dtype=float) + 100, [7.0]])
        dram = Dram.from_samples([s0, s1])
        got = {}
        MemoryInterface(prog).stream_sample(
            dram, 1, lambda pe, vid, w: got.__setitem__(vid, w)
        )
        elements = prog.expansion.input_elements(DATA)
        x_first = next(vid for nm, idx, vid in elements if nm == "x" and idx == (0,))
        assert got[x_first] == 100.0

    def test_thread_offset_shifts_pes(self):
        prog = make_program(rows=1, columns=4)
        table = build_thread_index_table(
            threads=2, rows_per_thread=1, columns=4, words_per_thread=13
        )
        dram = Dram(np.arange(26.0))
        pes0, pes1 = set(), set()
        MemoryInterface(prog, table, thread=0).stream_sample(
            dram, 0, lambda pe, vid, w: pes0.add(pe)
        )
        MemoryInterface(prog, table, thread=1).stream_sample(
            dram, 0, lambda pe, vid, w: pes1.add(pe)
        )
        assert {p + 4 for p in pes0} == pes1  # PE Offset applied

    def test_thread_memory_region(self):
        prog = make_program(rows=1, columns=4)
        table = build_thread_index_table(2, 1, 4, words_per_thread=13)
        dram = Dram(np.arange(26.0))
        got = {}
        MemoryInterface(prog, table, thread=1).stream_sample(
            dram, 0, lambda pe, vid, w: got.__setitem__(vid, w)
        )
        assert min(got.values()) >= 13.0  # reads the second region

    def test_preload_broadcast(self):
        prog = make_program()
        from repro.dfg.ir import MODEL

        elements = prog.expansion.input_elements(MODEL)
        model_words = {vid: float(i) for i, (_, _, vid) in enumerate(elements)}
        delivered = {}
        cycles = MemoryInterface(prog).preload_model(
            model_words, lambda pe, vid, w: delivered.__setitem__(vid, w)
        )
        assert delivered == model_words
        assert cycles >= len(prog.memory.preload)

    def test_invalid_thread(self):
        prog = make_program()
        with pytest.raises(ValueError):
            MemoryInterface(prog, thread=3)

    def test_drain_collects_full_gradient(self):
        """End-to-end: stream + preload + execute + drain through the
        memory interface yields the interpreter's gradient."""
        from repro.dfg.interpreter import Interpreter
        from repro.hw.accelerator import ThreadSimulator

        n = 12
        prog = make_program(n=n)
        rng = np.random.default_rng(4)
        feeds = {
            "x": rng.normal(size=n),
            "y": np.float64(0.3),
            "w": rng.normal(size=n),
        }
        sim = ThreadSimulator(prog)
        sim.run(feeds)  # loads via the interface and executes
        mi = MemoryInterface(prog)
        drained = mi.drain_gradients(
            lambda pe, vid: sim._pes[pe].buffers.interim[vid]
        )
        assert len(drained) == n
        t = translate(parse(LINREG), {"n": n})
        expected = Interpreter(t.dfg).run(feeds)["g"]
        dfg = prog.expansion.dfg
        for value in dfg.gradient_outputs():
            # g[i] element names encode their index.
            index = int(value.name.split("[")[1].rstrip("]"))
            assert drained[value.vid] == pytest.approx(expected[index])

    def test_shifter_latency_included(self):
        prog = make_program()
        dram = Dram(np.arange(13.0))
        arrivals = MemoryInterface(prog).stream_sample(
            dram, 0, lambda pe, vid, w: None
        )
        assert min(arrivals.values()) >= 1 + SHIFTER_LATENCY
