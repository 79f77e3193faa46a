"""Whole studies regenerate identically on the event-driven reference.

Figure 7 (a small, a medium and a large model), Figure 16 and a
16-node quorum fraction x deadline grid run twice: on the shipping
replay engine, and with every cluster iteration routed through the
event-driven reference
(:func:`~tests.runtime.event_reference.reference_engine`). Every row
and every :class:`IterationTiming` must be equal.
"""

from repro.bench import figures
from repro.runtime import schedule
from repro.runtime.cluster import ClusterSimulator, ClusterSpec, QuorumConfig
from tests.runtime.event_reference import reference_engine
from tests.test_golden import result_payload


def _memoised_timings():
    return sum(map(len, schedule.TIMINGS.values()))


def _on_both_engines(study):
    """``study()`` on the reference engine, then on replay from an empty
    timing table; each leg must have run cluster iterations."""
    with reference_engine():
        reference = study()
        assert _memoised_timings() > 0
    schedule.TIMINGS.clear()
    shipped = study()
    assert _memoised_timings() > 0
    return reference, shipped


def test_figure_rows_identical_on_reference_engine():
    def regenerate():
        return [
            figures.figure7(("stock", "movielens", "mnist")),
            figures.figure16(),
        ]

    reference, shipped = _on_both_engines(regenerate)
    assert result_payload(shipped) == result_payload(reference)


def test_quorum_grid_identical_on_reference_engine():
    nodes = 16
    # Node n computes (1 + n%5) ms, so every window has early closers and
    # genuine deadline casualties.
    compute = [1e-3 * (1 + n % 5) for n in range(nodes)]
    sim = ClusterSimulator(
        ClusterSpec(nodes=nodes, groups=4),
        lambda node_id, samples: compute[node_id],
        update_bytes=1_000_000,
    )
    grid = [
        QuorumConfig(fraction=f, deadline_s=d)
        for f in (0.5, 0.75, 0.9, 1.0)
        for d in (1e-3, 5e-3, 20e-3, 80e-3)
    ]

    def sweep():
        return [sim.iteration(16_000, quorum=rule) for rule in grid]

    reference, shipped = _on_both_engines(sweep)
    assert any(t.dropped for t in shipped)
    for rule, event, replayed in zip(grid, reference, shipped):
        assert replayed == event, rule
