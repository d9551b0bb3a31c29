"""Per-layer metrics derived from traced invocations.

Each metric is named ``<module>.<function>.<stat>``: ``calls`` counts calls,
``s`` is inclusive seconds, ``self_s`` is ``s`` minus the time in child spans
of the same thread, and ``rows`` sums each call's batch size (its ``size`` or
``trials`` argument, else the leading dimension of its first array).  Counts
are taken from the first traced invocation of a run, and every later one
must repeat them; timed metrics are the median over the run's traced
invocations, with quartiles in the detail record.  A module a workload never
calls reports 0.
"""

from __future__ import annotations

import statistics


def _span(name, stat):
    return lambda s, c: s.get(name, {}).get(stat, 0)


def _counter(name):
    return lambda s, c: c.get(name, 0)


def _ratio(num, den):
    def value(s, c):
        d = den(s, c)
        return num(s, c) / d if d else 0.0

    return value


def _span_metrics(name, *stats):
    """Entries for ``name.<stat>``; times are timed, the rest are counts."""
    units = {"calls": "count", "rows": "count", "s": "s", "self_s": "s"}
    return [
        (f"{name}.{stat}", units[stat], stat in ("s", "self_s"), _span(name, stat))
        for stat in stats
    ]


# (metric name, unit, timed, value from (span stats, counters))
PER_LAYER = [
    *_span_metrics("reconstruct.sample_offset", "calls", "self_s", "rows"),
    ("reconstruct.estimator.queries", "count", False,
     _span("reconstruct.estimator", "rows")),
    *_span_metrics("reconstruct.estimator", "self_s"),
    ("reconstruct.queries_per_bit", "count", False,
     _ratio(_counter("reconstruct.queries_in_bits"),
            _span("reconstruct.reconstruct_bit", "calls"))),
    *_span_metrics("reconstruct.reconstruct_bit", "calls", "self_s"),
    *_span_metrics("reconstruct.certify_estimator", "s"),
    *_span_metrics("signvectors.random_packed", "self_s"),
    *_span_metrics("signvectors.packed_inner_products", "self_s", "rows"),
    *_span_metrics("signvectors.random_signs", "self_s", "rows"),
    *_span_metrics("sources.sample_rounded_laplace", "self_s", "rows"),
    *_span_metrics("channels.sample_batch", "calls", "self_s", "rows"),
    *_span_metrics("channels.transcript", "calls", "self_s"),
    *_span_metrics("channels.dp_audit", "self_s"),
    *_span_metrics("channels.distinguisher", "calls"),
    *_span_metrics("keyagreement.run_ka_rounds", "self_s", "rows"),
    *_span_metrics("keyagreement.ka_transcript", "calls", "self_s"),
    *_span_metrics("keyagreement.adversary", "calls", "self_s"),
    ("keyagreement.rounds_per_s", "1/s", True,
     _ratio(_span("keyagreement.run_ka_rounds", "rows"),
            _span("cli.run_chunked", "s"))),
    *_span_metrics("condense.search_eve_params", "s"),
    *_span_metrics("condense.eve_distinguisher", "calls", "self_s"),
    ("condense.eve_abort_frac", "ratio", False,
     _ratio(_counter("condense.eve_aborts"),
            _span("condense.eve_distinguisher", "calls"))),
    *_span_metrics("condense.reconstruct_product_bit", "calls", "self_s"),
    *_span_metrics("condense.masked_views", "self_s"),
    ("condense.estimator_queries", "count", False,
     _span("condense.estimator", "rows")),
    *_span_metrics("hashing.hash_bits", "calls", "self_s"),
    *_span_metrics("hashing.sample_toeplitz_hash", "calls"),
    *_span_metrics("amplify.hashed_parity_trials", "self_s", "rows"),
    *_span_metrics("amplify.run_hashed_parity_round", "calls", "self_s"),
    *_span_metrics("amplify.repeat_until_success", "s"),
    ("amplify.attempts_per_success", "ratio", False,
     _ratio(_counter("amplify.attempts"), _counter("amplify.successes"))),
    *_span_metrics("amplify.gl_decode", "calls", "self_s"),
    ("amplify.gl_oracle.rows_per_decode", "count", False,
     _ratio(_span("amplify.gl_oracle", "rows"), _span("amplify.gl_decode", "calls"))),
    *_span_metrics("rng.hash_uniform01", "self_s"),
    *_span_metrics("rng.rng_from_seed", "calls"),
    *_span_metrics("rng.spawn_rngs", "calls"),
    *_span_metrics("cli.run_chunked", "s"),
    ("cli.chunks", "count", False, _span("cli.chunk", "calls")),
    ("cli.chunk_busy_s", "s", True, _span("cli.chunk", "s")),
    ("cli.pool_util", "ratio", True,
     _ratio(_span("cli.chunk", "s"), _counter("cli.pool_capacity_s"))),
    ("cli.ckpt.writes", "count", False, _span("cli.ckpt", "calls")),
    ("cli.ckpt.s", "s", True, _span("cli.ckpt", "s")),
    ("cli.ckpt.bytes", "bytes", False, _counter("cli.ckpt.bytes")),
    ("reporting.serialize_s", "s", True, _span("reporting.serialize", "s")),
]

OVERHEAD = ("trace.overhead_s", "s")


def quartiles(values):
    """(q1, median, q3) of the values; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def per_layer_metrics(summaries, traced_walls, untraced_walls):
    """(metrics for the result line, spread and repeat record per metric)."""
    metrics, spread = {}, {}
    for name, unit, timed, fn in PER_LAYER:
        values = [fn(s["spans"], s["counters"]) for s in summaries]
        if timed:
            q1, med, q3 = quartiles(values)
            metrics[name] = {"value": med, "unit": unit}
            spread[name] = {"q1": q1, "q3": q3, "n": len(values)}
        else:
            metrics[name] = {"value": values[0], "unit": unit}
            spread[name] = {"repeats": all(v == values[0] for v in values)}
    name, unit = OVERHEAD
    metrics[name] = {
        "value": statistics.median(traced_walls) - statistics.median(untraced_walls),
        "unit": unit,
    }
    return metrics, spread
