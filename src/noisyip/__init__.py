"""Noisy inner-product channels over sign vectors.

A library and experiment harness for two-party differentially-private
inner-product estimation: noisy channels and their accuracy/privacy audits,
bit-reconstruction attacks from low-confidence inner-product estimates,
min-entropy (condenser) experiments for weak bit sources, and key-agreement
protocols built on top of accurate channels, including a hash-and-parity
amplifier with a Goldreich-Levin style decoder.
"""

from .errors import DimensionMismatch, PreconditionViolation, UnsupportedModel
from .reporting import Rate
from .rng import ensure_rng, rng_from_seed, spawn_rngs
from .signvectors import (
    as_signs,
    bits_to_signs,
    flip,
    inner_product,
    random_signs,
    signs_to_bits,
)
from .sources import (
    SvSourceSpec,
    rounded_laplace_pmf,
    rounded_laplace_tail,
    sample_rounded_laplace,
    sample_sv_source,
)
from .channels import (
    Channel,
    DpAuditReport,
    Transcript,
    channel_from_config,
    constant_channel,
    dp_audit,
    equality_channel,
    estimate_accuracy,
    exact_ip_channel,
    laplace_ip_channel,
    randomized_response_channel,
    randomized_response_variance,
)
from .reconstruct import (
    EstimatorHandle,
    EstimatorProfile,
    OffsetParams,
    brute_force_vote_mean,
    certify_estimator,
    exact_estimator,
    laplace_estimator,
    laplace_lambda,
    offset_pmf,
    offset_vote,
    reconstruct_all,
    reconstruct_bit,
    sample_offset,
    sample_span,
    sample_width,
    span_pmf,
    vote_on_bit,
    width_pmf,
    zero_estimator,
)
from .keyagreement import (
    EveViews,
    adversary_to_ip_estimator,
    agreement_rate,
    blind_adversary,
    count_rounds,
    equality_leakage_rate,
    openbook_adversary,
    readout_adversary,
    run_ka_rounds,
)
from .condense import (
    ABORT,
    EveParams,
    condense_mod_experiment,
    eve_distinguisher,
    flip_distinguisher,
    open_transcript_estimator,
    reconstruct_product_bit,
    search_eve_params,
    seeded_condense_experiment,
    v_hat_grid,
)
from .hashing import ToeplitzHash
from .amplify import (
    eve_amplified,
    gl_decode,
    repeat_until_success,
    repeat_until_success_batch,
)

__version__ = "0.1.0"
