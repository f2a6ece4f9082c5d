"""Per-layer metrics from the spans of a traced run.

Times are per traced job (set-up layers: per set-up) and come from the spans
the worker recorded around heatflow's public functions. ``_s`` metrics are a
function's inclusive time, except the three solver/wavelet overhead metrics
and the ``<layer>.self_s`` totals, which are self time: span minus the spans
it directly contains. A layer a workload never calls reads 0.
"""

import statistics

from tracer import LAYERS, self_times_ns

# metric name -> (unit, description); the order is the order printed.
METRICS = {
    "mesh.load_mesh_s": ("s", "load_mesh per set-up"),
    "mesh.bytes_read": ("bytes", "mesh file bytes per set-up"),
    "mesh.assemble_s": ("s", "assemble_lb_operator per set-up"),
    "expansion.lambda_max_s": ("s", "estimate_lambda_max per set-up"),
    "expansion.apply_expansion_s": ("s", "apply_expansion per job"),
    "expansion.apply_expansion_calls": ("count", "apply_expansion calls per job"),
    "expansion.matvecs": ("count", "operator applications per job (degree x columns)"),
    "expansion.ns_per_vertex_degree": ("ns", "apply_expansion time per vertex per degree"),
    "expansion.bytes_per_degree_computed": ("bytes", "computed bytes one degree moves"),
    "expansion.degree_useful_ratio": ("ratio", "useful degree / degree run"),
    "expansion.heat_coefficients_s": ("s", "heat_coefficients per job"),
    "special.scaled_bessel_i_s": ("s", "scaled_bessel_i per job"),
    "expansion.coeff_to_recurrence_ratio": ("ratio", "heat_coefficients / apply_expansion time"),
    "expansion.numeric_coefficients_s": ("s", "numeric_coefficients per job"),
    "expansion.numeric_coefficients_calls": ("count", "numeric_coefficients calls per job"),
    "wavelets.kernel_coefficients_s": ("s", "kernel_coefficients per job"),
    "wavelets.coeff_distinct_ratio": ("ratio", "distinct kernel coefficient vectors / numeric_coefficients calls"),
    "solvers.heat_smooth_s": ("s", "heat_smooth self time per job"),
    "solvers.iterative_smooth_s": ("s", "iterative_smooth self time per job"),
    "wavelets.wavelet_stack_s": ("s", "wavelet_stack self time per job"),
    "fields.read_stack_csv_s": ("s", "read_stack_csv per job"),
    "fields.read_field_csv_s": ("s", "read_field_csv per job"),
    "fields.bytes_read": ("bytes", "field and stack CSV bytes read per job"),
    "fields.write_field_csv_s": ("s", "write_field_csv per job"),
    "fields.bytes_written": ("bytes", "field and stack CSV bytes written per job"),
    "stats.hotelling_t2_map_s": ("s", "hotelling_t2_map per job"),
    "stats.two_sample_t_map_s": ("s", "two_sample_t_map per job"),
    "stats.write_statmap_s": ("s", "write_statmap per job"),
    "cli.main_s": ("s", "heatflow.cli.main per job"),
    **{f"{layer}.self_s": ("s", f"self time of all {layer} functions per job") for layer in LAYERS},
    "trace.spans_per_job": ("count", "spans recorded per traced job"),
    "trace.overhead_s": ("s", "median traced job minus median untraced job"),
}

_SELF_TIME = {"solvers.heat_smooth", "solvers.iterative_smooth", "wavelets.wavelet_stack"}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, report):
    """{name: (value, unit)} for every metric in METRICS."""
    self_ns = self_times_ns(spans)
    jobs = [j for j in report["jobs"] if j["traced"]]
    untraced = [j["seconds"] for j in report["jobs"] if not j["traced"]]
    n_jobs = len(jobs)
    n_setups = len(report["setup_seconds"])

    incl, own, calls, attrs = {}, {}, {}, {}
    for span, s_ns in zip(spans, self_ns):
        name, start, end, _, job, extra = span
        phase = "setup" if job.startswith("setup-") else "job"
        key = (phase, name)
        incl[key] = incl.get(key, 0) + (end - start)
        own[key] = own.get(key, 0) + s_ns
        calls[key] = calls.get(key, 0) + 1
        if extra:
            attrs.setdefault(key, []).append(extra)

    def per_setup(name, table=incl):
        return _ratio(table.get(("setup", name), 0) * 1e-9, n_setups)

    def per_job(name, table=incl):
        return _ratio(table.get(("job", name), 0) * 1e-9, n_jobs)

    def attr_sum(phase, name, field):
        return sum(a.get(field, 0) for a in attrs.get((phase, name), []))

    expansions = attrs.get(("job", "expansion.apply_expansion"), [])
    matvecs = sum(a.get("degree", 0) * a.get("cols", 1) for a in expansions)
    vertex_degrees = sum(a.get("degree", 0) * a.get("cols", 1) * a.get("n", 0) for a in expansions)
    moved = sum(a.get("bytes_per_degree", 0) * a.get("degree", 0) for a in expansions)
    useful = sum(a.get("useful_degree", 0) for a in expansions)
    degrees = sum(a.get("degree", 0) for a in expansions)
    apply_ns = incl.get(("job", "expansion.apply_expansion"), 0)
    digests = {a.get("digest") for a in attrs.get(("job", "wavelets.kernel_coefficients"), [])}
    numeric_calls = calls.get(("job", "expansion.numeric_coefficients"), 0)
    traced_times = [j["seconds"] for j in jobs]

    values = {
        "mesh.load_mesh_s": per_setup("mesh.load_mesh"),
        "mesh.bytes_read": _ratio(attr_sum("setup", "mesh.load_mesh", "bytes"), n_setups),
        "mesh.assemble_s": per_setup("mesh.assemble_lb_operator"),
        "expansion.lambda_max_s": per_setup("expansion.estimate_lambda_max"),
        "expansion.apply_expansion_s": per_job("expansion.apply_expansion"),
        "expansion.apply_expansion_calls": _ratio(len(expansions), n_jobs),
        "expansion.matvecs": _ratio(matvecs, n_jobs),
        "expansion.ns_per_vertex_degree": _ratio(apply_ns, vertex_degrees),
        "expansion.bytes_per_degree_computed": _ratio(moved, degrees),
        "expansion.degree_useful_ratio": _ratio(useful, degrees),
        "expansion.heat_coefficients_s": per_job("expansion.heat_coefficients"),
        "special.scaled_bessel_i_s": per_job("special.scaled_bessel_i"),
        "expansion.coeff_to_recurrence_ratio": _ratio(
            incl.get(("job", "expansion.heat_coefficients"), 0), apply_ns
        ),
        "expansion.numeric_coefficients_s": per_job("expansion.numeric_coefficients"),
        "expansion.numeric_coefficients_calls": _ratio(numeric_calls, n_jobs),
        "wavelets.kernel_coefficients_s": per_job("wavelets.kernel_coefficients"),
        "wavelets.coeff_distinct_ratio": _ratio(len(digests - {None}), numeric_calls),
        "fields.read_stack_csv_s": per_job("fields.read_stack_csv"),
        "fields.read_field_csv_s": per_job("fields.read_field_csv"),
        "fields.bytes_read": _ratio(
            attr_sum("job", "fields.read_stack_csv", "bytes")
            + attr_sum("job", "fields.read_field_csv", "bytes"),
            n_jobs,
        ),
        "fields.write_field_csv_s": per_job("fields.write_field_csv"),
        "fields.bytes_written": _ratio(
            attr_sum("job", "fields.write_field_csv", "bytes")
            + attr_sum("job", "fields.write_stack_csv", "bytes"),
            n_jobs,
        ),
        "stats.hotelling_t2_map_s": per_job("stats.hotelling_t2_map"),
        "stats.two_sample_t_map_s": per_job("stats.two_sample_t_map"),
        "stats.write_statmap_s": per_job("stats.write_statmap"),
        "cli.main_s": per_job("cli.main"),
        "trace.spans_per_job": _ratio(sum(calls[k] for k in calls if k[0] == "job"), n_jobs),
        "trace.overhead_s": (
            statistics.median(traced_times) - statistics.median(untraced)
            if traced_times and untraced
            else 0.0
        ),
    }
    for name in _SELF_TIME:
        values[name + "_s"] = per_job(name, own)
    for layer in LAYERS:
        total = sum(v for (phase, name), v in own.items() if phase == "job" and name.startswith(layer + "."))
        values[f"{layer}.self_s"] = _ratio(total * 1e-9, n_jobs)
    return {name: (values[name], unit) for name, (unit, _) in METRICS.items()}
