"""Per-layer metrics from the spans of one traced tvload command.

A span's self time is its duration minus the union of its children's
intervals, so two children that overlap on pool threads are not subtracted
twice.  A function's busy time sums the spans of that function that have no
ancestor of the same name; busy sums can exceed wall time when pool threads
overlap.
"""

from __future__ import annotations

from collections import defaultdict

# Every per-layer metric the benchmark prints, with its unit.  ``<f>_s`` is the
# busy time of function f, ``<f>_calls`` its call count, ``<f>_bytes`` the
# bytes its calls wrote, ``<layer>.self_s`` the summed self time of the
# layer's spans.
PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli.self_s", "s"),
    ("factors.read_panel_csv_s", "s"),
    ("factors.select_num_factors_s", "s"),
    ("factors.standardize_s", "s"),
    ("factors.pca_factors_s", "s"),
    ("factors.restore_level_s", "s"),
    ("factors.nonstationary_factors_s", "s"),
    ("wavelet.evaluate_basis_s", "s"),
    ("wavelet.evaluate_basis_calls", "count"),
    ("wavelet.evaluate_basis_distinct", "count"),
    ("gls.fit_iterative_s", "s"),
    ("gls.fit_iterative_calls", "count"),
    ("gls.gls_step_s", "s"),
    ("gls.gls_step_calls", "count"),
    ("gls.build_design_s", "s"),
    ("gls.build_design_calls", "count"),
    ("gls.regularize_covariance_s", "s"),
    ("gls.loadings_from_coeffs_s", "s"),
    ("gls.residual_cov_s", "s"),
    ("gls.write_loadings_csv_s", "s"),
    ("gls.write_loadings_csv_bytes", "bytes"),
    ("gls.write_coefficients_csv_s", "s"),
    ("gls.write_covariance_csv_s", "s"),
    ("metrics.procrustes_rotation_s", "s"),
    ("metrics.r2_factors_s", "s"),
    ("metrics.loading_mse_s", "s"),
    ("sim.simulate_dgp_s", "s"),
    ("sim.self_s", "s"),
    ("bootstrap.self_s", "s"),
    ("bootstrap.write_bands_csv_s", "s"),
    ("bootstrap.write_bands_csv_bytes", "bytes"),
    ("bootstrap.write_plot_csv_s", "s"),
    ("bootstrap.write_plot_csv_calls", "count"),
    ("bootstrap.write_plot_csv_bytes", "bytes"),
)

# Metrics of the traced run as a whole, added by the benchmark itself.
RUN_LEVEL = (
    ("trace.command_s", "s"),
    ("trace.overhead_s", "s"),
)


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    out = []
    for sid, span in enumerate(spans):
        s, e = span["start"], span["end"]
        covered = union_length(
            (max(c["start"], s), min(c["end"], e)) for c in children[sid]
        )
        out.append(e - s - covered)
    return out


def _outermost(spans) -> list[bool]:
    """True for spans with no ancestor of the same name."""
    flags = []
    for span in spans:
        parent = span["parent"]
        while parent is not None and spans[parent]["name"] != span["name"]:
            parent = spans[parent]["parent"]
        flags.append(parent is None)
    return flags


def layer_metrics(trace) -> dict[str, float]:
    """Values of every ``PER_LAYER`` metric for one traced command."""
    spans = trace["spans"]
    busy = defaultdict(float)
    calls = defaultdict(int)
    written = defaultdict(int)
    keys = defaultdict(set)
    layer_self = defaultdict(float)
    for span, outer, own in zip(spans, _outermost(spans), self_times(spans)):
        name = span["name"]
        calls[name] += 1
        if outer:
            busy[name] += span["end"] - span["start"]
        written[name] += span.get("bytes", 0)
        if "key" in span:
            keys[name].add(tuple(span["key"]))
        layer_self[name.split(".", 1)[0]] += own

    values = {}
    for metric, _unit in PER_LAYER:
        if metric == "cli.import_s":
            values[metric] = trace["import_s"]
        elif metric.endswith(".self_s"):
            values[metric] = layer_self[metric[: -len(".self_s")]]
        elif metric.endswith("_distinct"):
            values[metric] = len(keys[metric[: -len("_distinct")]])
        elif metric.endswith("_calls"):
            values[metric] = calls[metric[: -len("_calls")]]
        elif metric.endswith("_bytes"):
            values[metric] = written[metric[: -len("_bytes")]]
        else:
            values[metric] = busy[metric[: -len("_s")]]
    return values
