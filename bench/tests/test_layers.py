"""Self time, busy time and counts computed from recorded spans."""

import pytest

from layers import PER_LAYER, layer_metrics, self_times, union_length


def span(name, start, end, parent=None, thread=1, **extra):
    return {"name": name, "start": start, "end": end, "parent": parent, "thread": thread,
            **extra}


def test_union_length_merges_overlaps_and_skips_empty_intervals():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (4.0, 4.0)]) == pytest.approx(4.0)
    assert union_length([(0.0, 1.0), (1.0, 2.0)]) == pytest.approx(2.0)


def test_self_time_subtracts_the_union_of_overlapping_pool_thread_children():
    spans = [
        span("sim.run_experiment", 0.0, 10.0),
        # two replications on two pool threads, overlapping on [3, 5]
        span("sim.simulate_dgp", 1.0, 5.0, parent=0, thread=2),
        span("sim.simulate_dgp", 3.0, 8.0, parent=0, thread=3),
        # a grandchild is covered by its parent already
        span("factors.make_panel", 4.0, 4.5, parent=2, thread=3),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 7.0)  # not 10 - 9
    assert own[1] == pytest.approx(4.0)
    assert own[2] == pytest.approx(5.0 - 0.5)
    assert own[3] == pytest.approx(0.5)


def test_layer_metrics_busy_time_can_exceed_wall_time():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("bootstrap.residual_bootstrap", 1.0, 9.0, parent=0),
        span("gls.fit_iterative", 2.0, 6.0, parent=1, thread=2),
        span("gls.fit_iterative", 2.0, 6.0, parent=1, thread=3),
        span("gls.gls_step", 2.5, 3.0, parent=2, thread=2),
        span("bootstrap.write_plot_csv", 9.0, 9.5, parent=0, bytes=100),
        span("bootstrap.write_plot_csv", 9.5, 9.75, parent=0, bytes=50),
        span("wavelet.evaluate_basis", 0.5, 0.75, parent=0, key=["haar", 5, 1024]),
        span("wavelet.evaluate_basis", 0.75, 1.0, parent=0, key=["haar", 5, 1024]),
    ]
    values = layer_metrics({"import_s": 1.25, "spans": spans})
    assert set(values) == {name for name, _ in PER_LAYER}
    assert values["cli.import_s"] == 1.25
    assert values["gls.fit_iterative_s"] == pytest.approx(8.0)
    assert values["gls.fit_iterative_calls"] == 2
    assert values["gls.gls_step_calls"] == 1
    # residual_bootstrap minus its overlapping fits, plus the plot writers
    assert values["bootstrap.self_s"] == pytest.approx(8.0 - 4.0 + 0.75)
    assert values["bootstrap.write_plot_csv_calls"] == 2
    assert values["bootstrap.write_plot_csv_bytes"] == 150
    assert values["wavelet.evaluate_basis_calls"] == 2
    assert values["wavelet.evaluate_basis_distinct"] == 1
    assert values["cli.self_s"] == pytest.approx(10.0 - 8.0 - 0.5 - 0.25 - 0.5)
    assert values["factors.read_panel_csv_s"] == 0.0


def test_a_function_nested_in_itself_is_busy_once():
    spans = [span("gls.fit_iterative", 0.0, 4.0), span("gls.fit_iterative", 1.0, 2.0, parent=0)]
    values = layer_metrics({"import_s": 0.0, "spans": spans})
    assert values["gls.fit_iterative_s"] == pytest.approx(4.0)
    assert values["gls.fit_iterative_calls"] == 2
