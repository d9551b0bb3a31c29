"""Noisy inner-product channels over sign vectors.

A library and experiment harness for two-party differentially-private
inner-product estimation: noisy channels and their accuracy/privacy audits,
bit-reconstruction attacks from low-confidence inner-product estimates,
min-entropy (condenser) experiments for weak bit sources, and key-agreement
protocols built on top of accurate channels, including a hash-and-parity
amplifier with a Goldreich-Levin style decoder.

``import noisyip`` loads no submodule: every public name below and every
submodule resolves on first use (PEP 562).  Resolved names are not cached
here, so ``noisyip.<name>`` always reads the submodule's current attribute.
"""

import importlib

__version__ = "0.1.0"

# Every public name, by the submodule that defines it.
_EXPORTS = {
    "errors": ("DimensionMismatch", "PreconditionViolation", "UnsupportedModel"),
    "reporting": ("Rate",),
    "rng": ("ensure_rng", "rng_from_seed", "spawn_rngs"),
    "signvectors": ("as_signs", "bits_to_signs", "flip", "inner_product",
                    "random_signs", "signs_to_bits"),
    "sources": ("SvSourceSpec", "rounded_laplace_pmf", "rounded_laplace_tail",
                "sample_rounded_laplace", "sample_sv_source"),
    "channels": ("Channel", "DpAuditReport", "Transcript", "channel_from_config",
                 "constant_channel", "dp_audit", "equality_channel",
                 "estimate_accuracy", "exact_ip_channel", "laplace_ip_channel",
                 "randomized_response_channel", "randomized_response_variance"),
    "reconstruct": ("EstimatorHandle", "EstimatorProfile", "OffsetParams",
                    "brute_force_vote_mean", "certify_estimator", "exact_estimator",
                    "laplace_estimator", "laplace_lambda", "offset_pmf", "offset_vote",
                    "reconstruct_all", "reconstruct_bit", "sample_offset",
                    "sample_span", "sample_width", "span_pmf", "vote_on_bit",
                    "width_pmf", "zero_estimator"),
    "keyagreement": ("EveViews", "adversary_to_ip_estimator", "agreement_rate",
                     "blind_adversary", "count_rounds", "equality_leakage_rate",
                     "openbook_adversary", "readout_adversary", "run_ka_rounds"),
    "condense": ("ABORT", "EveParams", "condense_mod_experiment", "eve_distinguisher",
                 "flip_distinguisher", "open_transcript_estimator",
                 "reconstruct_product_bit", "search_eve_params",
                 "seeded_condense_experiment", "v_hat_grid"),
    "hashing": ("ToeplitzHash",),
    "amplify": ("eve_amplified", "gl_decode", "repeat_until_success",
                "repeat_until_success_batch"),
}
_SUBMODULES = (*_EXPORTS, "cli")
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULES, *_MODULE_OF})
