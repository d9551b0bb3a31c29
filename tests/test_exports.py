"""The package's public names: the reference list a lazy ``noisyip`` must keep."""

import json
import types

import noisyip
from test_cli import run_python

EXPORTS = [
    "ABORT", "AccuracyReport", "Channel", "DimensionMismatch", "DpAuditReport",
    "EstimatorHandle", "EstimatorProfile", "EveParams", "EveViews",
    "OffsetParams", "PreconditionViolation", "SvSourceSpec", "ToeplitzHash",
    "Transcript", "UnsupportedModel", "adversary_to_ip_estimator",
    "agreement_rate", "as_signs", "bits_to_signs", "blind_adversary",
    "brute_force_vote_mean", "certify_estimator", "channel_from_config",
    "condense_mod_experiment", "constant_channel", "count_rounds", "dp_audit",
    "ensure_rng", "equality_channel", "equality_leakage_rate",
    "estimate_accuracy", "eve_amplified", "eve_distinguisher",
    "exact_estimator", "exact_ip_channel", "flip", "flip_distinguisher",
    "gl_decode", "inner_product", "laplace_estimator", "laplace_ip_channel",
    "laplace_lambda", "offset_pmf", "offset_vote", "open_transcript_estimator",
    "openbook_adversary", "random_signs", "randomized_response_channel",
    "randomized_response_variance", "readout_adversary", "reconstruct_all",
    "reconstruct_bit", "reconstruct_product_bit", "repeat_until_success",
    "repeat_until_success_batch", "rng_from_seed", "rounded_laplace_pmf",
    "rounded_laplace_tail", "run_ka_rounds", "sample_offset",
    "sample_rounded_laplace", "sample_span", "sample_sv_source", "sample_width",
    "search_eve_params", "seeded_condense_experiment", "signs_to_bits",
    "span_pmf", "spawn_rngs", "v_hat_grid", "vote_on_bit", "width_pmf",
    "zero_estimator", "__version__",
]

REMOVED = ["AmplifiedView", "HashedRound", "run_hashed_parity_round",
           "sample_toeplitz_hash"]

_PROBE = """
import json, sys
import noisyip
names = json.loads(sys.argv[1])
print(json.dumps([n for n in names if not hasattr(noisyip, n)]))
"""


def _missing_after_bare_import(names):
    out = run_python("-c", _PROBE, json.dumps(names))
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_every_export_resolves_after_a_bare_import():
    assert _missing_after_bare_import(EXPORTS) == []
    assert _missing_after_bare_import(REMOVED) == REMOVED


def test_export_list_is_complete():
    # every public non-module name the package binds is on the list
    bound = {k for k, v in vars(noisyip).items()
             if not k.startswith("_") and not isinstance(v, types.ModuleType)}
    assert bound <= set(EXPORTS)
