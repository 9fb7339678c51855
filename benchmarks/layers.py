"""Which library calls are traced, and the per-layer metrics made from them.

Layers are the qderiv modules; ``survey`` is split into the probe scan and
the certificates.  Every ``_s`` metric is self time (a span's time minus
its traced children's) per pass, so the layer times of a pass add up to the
mean traced pass time (``trace.wall_s``) less the benchmark's own glue
(``bench.glue_s``).  What tracing adds is given twice: measured, as the
median of traced minus untraced pass time over the run's pairs of passes
(``trace.overhead_s``), and modelled, as the number of wrapped calls and
timed row pulls times their cost on no-ops (``trace.span_cost_s``).
"""

from __future__ import annotations

import statistics

from qderiv import derivative, parastrophe, reportio, survey

from tracing import ROOT_SPAN, STOLEN_SPAN, Tracer

# span name -> per-layer time metric
LAYER_TIME = {
    "corpus.rows": "corpus.rows_s",
    "survey.probe_scan": "survey.scan_self_s",
    "survey.build_certificate": "survey.cert_s",
    "survey.verify_certificate": "survey.cert_verify_s",
    "survey.run_survey": "survey.other_s",
    "survey.run_survey_multi": "survey.other_s",
    "survey.minimal_counterexample": "survey.other_s",
    "survey.convention_agreement_table": "survey.other_s",
    "survey.diff_against_paper": "survey.other_s",
    "survey.embedded_paper_table": "survey.other_s",
    "qcore.from_table": "qcore.from_table_s",
    "derivative.apply_derivative": "derivative.apply_s",
    "reportio.survey_to_json": "reportio.emit_json_s",
    "reportio.certificate_to_doc": "reportio.emit_json_s",
    "reportio.survey_from_json": "reportio.parse_json_s",
    "reportio.diff_report_markdown": "reportio.emit_md_s",
    ROOT_SPAN: "bench.glue_s",
}

# every per-layer metric, in report order, with its unit
METRICS = {
    "corpus.rows": "count",
    "corpus.rows_s": "s",
    "survey.scan_calls": "count",
    "survey.scan_self_s": "s",
    "survey.probes_in": "count",
    "survey.probes_survived": "count",
    "survey.scan_useful_frac": "fraction",
    "survey.scan_overshoot": "count",
    "survey.certs_built": "count",
    "survey.cert_s": "s",
    "survey.cert_emitted_frac": "fraction",
    "survey.cert_verify_s": "s",
    "survey.other_s": "s",
    "qcore.from_table_calls": "count",
    "qcore.from_table_s": "s",
    "derivative.apply_calls": "count",
    "derivative.apply_s": "s",
    "reportio.emit_json_s": "s",
    "reportio.parse_json_s": "s",
    "reportio.emit_md_s": "s",
    "reportio.json_bytes": "bytes",
    "bench.glue_s": "s",
    "trace.layers_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.span_cost_s": "s",
}


def _after_scan(tracer: Tracer, span, result) -> None:
    """Probe counts, useful squares and overshoot of one probe_scan call.

    A square is useful when it settled at least one probe.  Overshoot counts
    the squares pulled after the last probe settled; while a probe survives
    the scan must exhaust the corpus, so nothing pulled is overshoot.
    """
    rows = span.rows[0] if span.rows else None
    pulled = rows.count if rows else 0
    kills = [k for k in result.values() if k is not None]
    positions = {rows.order_start[order] + idx for order, idx, _a, _rows in kills}
    tracer.count("survey.probes_in", len(result))
    tracer.count("survey.probes_survived", len(result) - len(kills))
    tracer.count("scan.useful", len(positions))
    tracer.count("scan.pulled", pulled)
    if positions and len(kills) == len(result):
        tracer.count("survey.scan_overshoot", pulled - max(positions) - 1)


def _after_emit(tracer: Tracer, span, text: str) -> None:
    tracer.count("reportio.json_bytes", len(text.encode()))


def make_tracer() -> Tracer:
    t = Tracer()
    t.wrap_rows(survey, "iter_corpus_rows", "corpus.rows")
    t.wrap(survey, "probe_scan", "survey.probe_scan", after=_after_scan)
    for name in (
        "build_certificate",
        "verify_certificate",
        "run_survey",
        "run_survey_multi",
        "minimal_counterexample",
        "convention_agreement_table",
        "diff_against_paper",
        "embedded_paper_table",
    ):
        t.wrap(survey, name, f"survey.{name}")
    for module in (survey, derivative, parastrophe):
        t.wrap(module, "from_table", "qcore.from_table")
    t.wrap(survey, "apply_derivative", "derivative.apply_derivative")
    t.wrap(reportio, "survey_to_json", "reportio.survey_to_json", after=_after_emit)
    for name in ("certificate_to_doc", "survey_from_json", "diff_report_markdown"):
        t.wrap(reportio, name, f"reportio.{name}")
    return t


def metrics(
    tracer: Tracer,
    op_scale: dict,
    traced: list[float],
    untraced: list[float],
    unit_costs: tuple[float, float],
) -> dict:
    """Per-layer values per traced pass, at reference speed.

    ``op_scale`` maps each op id to the speed factor of its pass.
    ``traced`` and ``untraced`` are the pass times, in the order they ran,
    each traced pass right after its untraced partner.  ``unit_costs`` are
    the seconds one wrapped call and one timed row pull add, at reference
    speed (``tracing.unit_costs``).
    """
    passes = len(traced)
    self_s, calls = tracer.self_times(op_scale)
    c = tracer.counts
    out = dict.fromkeys(METRICS, 0.0)
    for span, metric in LAYER_TIME.items():
        out[metric] += self_s.get(span, 0.0) / passes
    built = calls.get("survey.build_certificate", 0)
    pulled = c.get("scan.pulled", 0)
    wrapped = sum(n for name, n in calls.items() if name != STOLEN_SPAN)
    call_s, row_s = unit_costs
    out.update(
        {
            "corpus.rows": pulled / passes,
            "survey.scan_calls": calls.get("survey.probe_scan", 0) / passes,
            "survey.probes_in": c.get("survey.probes_in", 0) / passes,
            "survey.probes_survived": c.get("survey.probes_survived", 0) / passes,
            "survey.scan_useful_frac": c.get("scan.useful", 0) / pulled if pulled else 0.0,
            "survey.scan_overshoot": c.get("survey.scan_overshoot", 0) / passes,
            "survey.certs_built": built / passes,
            "survey.cert_emitted_frac": (
                calls.get("reportio.certificate_to_doc", 0) / built if built else 0.0
            ),
            "qcore.from_table_calls": calls.get("qcore.from_table", 0) / passes,
            "derivative.apply_calls": calls.get("derivative.apply_derivative", 0) / passes,
            "reportio.json_bytes": c.get("reportio.json_bytes", 0) / passes,
            "trace.wall_s": statistics.fmean(traced),
            "trace.overhead_s": statistics.median(t - u for u, t in zip(untraced, traced)),
            "trace.span_cost_s": (wrapped * call_s + pulled * row_s) / passes,
        }
    )
    out["trace.layers_s"] = sum(
        out[m] for m in set(LAYER_TIME.values()) if m != "bench.glue_s"
    )
    return out
