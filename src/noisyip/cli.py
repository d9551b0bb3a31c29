"""Batch experiment driver.

Subcommands: recon | ka | condense | amplify | audit | gl.  Every run is
fully determined by (config, seed): trials are partitioned into fixed-size
chunks, each chunk draws from its own spawned generator stream, and chunk
results merge in index order, so neither --threads nor interruptions change
the output bytes.  The ``ka`` rounds and ``amplify`` trial rounds checkpoint
the sum of their finished prefix of chunks, so interrupted runs resume.

Exit codes: 0 ok, 2 invalid configuration, 3 precondition violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import sys
import time

import numpy as np

from . import amplify, channels, condense, keyagreement, reconstruct
from .errors import PreconditionViolation
from .reporting import ExperimentReport, Rate
from .rng import CHUNK_TRIALS, rng_from_seed, spawn_rngs, sum_chunks
from .rng import _save_ckpt  # noqa: F401  the benchmark's tracer counts saves here
from .signvectors import packed_inner_products, random_bits, random_signs
from .sources import SvSourceSpec, ip_laplace_scale


class ConfigError(ValueError, argparse.ArgumentTypeError):
    """Invalid input (exit 2); argparse prints its message for a flag's type."""


# ---------------------------------------------------------------------------
# Chunked, resumable, thread-parallel trial loops
# ---------------------------------------------------------------------------


def run_chunked(config: dict, seed: int, trials: int, chunk_fn, threads: int = 1,
                out_path: str | None = None) -> np.ndarray:
    """``rng.sum_chunks`` of ``chunk_fn(rng, size)`` over chunks of
    ``CHUNK_TRIALS`` trials, checkpointed to ``<out_path>.ckpt`` when
    ``out_path`` is given, keyed by a hash of (config, seed, trials)."""
    key = hashlib.sha256(json.dumps({"config": config, "seed": seed, "trials": trials},
                                    sort_keys=True).encode()).hexdigest()
    return sum_chunks(chunk_fn, rng_from_seed(seed), trials, CHUNK_TRIALS, threads,
                      out_path and (f"{out_path}.ckpt", key))


def _rate_metric(report, name, hits, trials):
    rate = Rate(hits, trials)
    report.add_metric(name, rate.rate, trials, rate.half_width)
    return rate.rate


# ---------------------------------------------------------------------------
# Channel / estimator construction from flags
# ---------------------------------------------------------------------------


# The flags each --channel reads, with their defaults (None: required).
_CHANNEL_FLAGS = {
    "exact": {},
    "exact_open": {},
    "laplace": {"eps": None},
    "randomized_response": {"eps": None},
    "constant": {"z": 0, "alpha": 1.0},
    "equality": {"alpha": None},
}


def _channel_config(args) -> dict:
    kind = args.channel
    reads = _CHANNEL_FLAGS[kind]
    # --eps is let through: a config file may set it for a noisy channel that
    # a --channel flag then overrides
    _reject_unread(args, [f for f in ("z", "alpha") if f not in reads],
                   f"--channel {kind}")
    cfg = {"kind": kind, "n": args.n}
    for flag, default in reads.items():
        value = getattr(args, flag)
        if value is None and default is None:
            raise ConfigError(f"--{flag} is required for channel {kind}")
        cfg[flag] = default if value is None else value
    if kind == "constant":
        cfg["alpha_a"] = cfg["alpha_b"] = cfg.pop("alpha")
    return cfg


def _reject_unread(args, flags, where: str) -> None:
    for flag in flags:
        if getattr(args, flag) is not None:
            raise ConfigError(f"--{flag} does not apply to {where}")


def _build_estimator(spec: str, z, eps, rng):
    n = len(z)
    if spec == "exact":
        return reconstruct.exact_estimator(z)
    if spec == "zero":
        return reconstruct.zero_estimator(n)
    if spec == "laplace":
        if eps is None:
            raise ConfigError("--eps is required for the laplace estimator")
        return reconstruct.laplace_estimator(z, ip_laplace_scale(eps), rng)
    if spec.startswith("replay:"):
        return _replay_estimator(spec.split(":", 1)[1], n)
    raise ConfigError(f"unknown estimator {spec!r}")


def _replay_estimator(path: str, n: int):
    try:
        with open(path) as fh:
            data = json.load(fh)
        file_n = int(data["n"])
        table = {str(k): int(v) for k, v in data["answers"].items()}
        default = int(data.get("default", 0))
    except (OSError, ValueError, TypeError, KeyError, AttributeError) as exc:
        raise ConfigError(f"cannot read replay file {path!r}: {exc!r}") from exc
    if file_n != n:
        raise ConfigError(f"replay file is for n={file_n}, expected {n}")
    for key in table:
        if len(key) != n or set(key) - {"+", "-"}:
            raise ConfigError(f"replay key {key!r} is not {n} characters of '+'/'-'")

    def batch(R):
        out = np.empty(R.shape[0], dtype=np.int64)
        for idx in range(R.shape[0]):
            key = "".join("+" if v == 1 else "-" for v in R[idx])
            out[idx] = table.get(key, default)
        return out

    return reconstruct.EstimatorHandle.from_signs(batch, n)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_recon(args) -> ExperimentReport:
    rng = rng_from_seed(args.seed)
    z = random_signs(args.n, rng)
    est = _build_estimator(args.estimator, z, args.eps, rng)  # rejects a missing eps
    ell = args.ell or (reconstruct.best_laplace_ell(args.n, ip_laplace_scale(args.eps))
                       if args.estimator == "laplace" else 1)
    profile = reconstruct.certify_estimator(est, z, ell, args.trials, rng)
    samples = args.samples or reconstruct.default_num_samples(args.n)
    result = reconstruct.reconstruct_all(
        z, est, ell, samples, rng, threads=args.threads
    )
    config = {
        "n": args.n,
        "ell": ell,
        "estimator": args.estimator,
        "eps": args.eps,
        "certify_trials": args.trials,
        "samples_per_bit": samples,
    }
    report = ExperimentReport("recon", args.seed, config)
    report.add_metric("lambda_hat", profile.lambda_hat, profile.trials)
    report.add_metric("frac_correct", result.frac_correct, args.n)
    report.query_counts = {"estimator": int(est.query_count)}
    report.record = {
        "n": args.n,
        "ell": ell,
        "lambda_hat": profile.lambda_hat,
        "frac_correct": result.frac_correct,
        "queries": int(result.queries),
        "seed": args.seed,
    }
    return report


def cmd_ka(args) -> ExperimentReport:
    cfg = _channel_config(args)
    ell = args.ell or max(2, math.isqrt(args.n))
    config = {"channel": cfg, "ell": ell, "adversary": args.adversary}

    if args.adversary == "openbook" and cfg["kind"] != "exact_open":
        raise ConfigError(
            "the openbook adversary reads leaked inputs and requires "
            "--channel exact_open"
        )
    channel = channels.channel_from_config(cfg)
    # each --adversary choice but none names a keyagreement.<choice>_adversary
    adv = (None if args.adversary == "none"
           else getattr(keyagreement, f"{args.adversary}_adversary")(ell))

    agree, leak_hits = map(int, run_chunked(
        config, args.seed, args.trials,
        lambda rng, size: keyagreement.count_rounds(channel, ell, size, rng, adv),
        threads=args.threads, out_path=args.out))
    report = ExperimentReport("ka", args.seed, config)
    agreement = _rate_metric(report, "agreement", agree, args.trials)
    leakage = None
    if args.adversary != "none" and agree > 0:
        leakage = _rate_metric(report, "equality_leakage", leak_hits, agree)
    report.record = {
        "protocol": "ka_round",
        "n": args.n,
        "ell": ell,
        "agreement": agreement,
        "leakage": leakage,
        "abort_rate": None,
        "seed": args.seed,
        "trials": args.trials,
    }
    return report


def cmd_condense(args) -> ExperimentReport:
    if args.mode == "mod":
        _reject_unread(args, ["trials"], "--mode mod")
        trials = None  # exact laws: nothing is sampled
        modulus = args.modulus or max(2, math.isqrt(args.n))
    else:
        _reject_unread(args, ["modulus"], "--mode seeded")
        trials = args.trials or 64  # conditionings
        modulus = None
    config = {
        "mode": args.mode,
        "n": args.n,
        "alphas": args.alphas,
        "modulus": modulus,
        "trials": trials,
    }
    report = ExperimentReport("condense", args.seed, config)
    rng = rng_from_seed(args.seed)
    child = spawn_rngs(rng, len(args.alphas))
    record_estimates = {}
    for alpha, crng in zip(args.alphas, child):
        spec = SvSourceSpec(alpha=alpha, n=args.n)
        if args.mode == "mod":
            rep = condense.condense_mod_experiment(spec, spec, modulus)
            name, bits = "min_entropy_bits", rep.min_entropy_bits
        else:
            rep = condense.seeded_condense_experiment(spec, spec, trials, crng)
            name, bits = "quantile_bits", rep.quantile_bits
        report.add_metric(f"{name}[alpha={alpha:g}]", bits, trials or 0)
        record_estimates[f"{alpha:g}"] = bits
    report.record = {
        "experiment": args.mode,
        "n": args.n,
        "alpha": args.alphas[0] if len(args.alphas) == 1 else None,
        "params": {"modulus": modulus},
        "estimate": record_estimates,
        "ci": None,
        "seed": args.seed,
        "trials": trials,
    }
    return report


def cmd_amplify(args) -> ExperimentReport:
    alpha = args.alpha
    if not 0 < alpha <= 1 or 5 / alpha > CHUNK_TRIALS:  # a wrapper run fits one chunk
        raise ConfigError(f"--alpha must lie in [{5 / CHUNK_TRIALS}, 1] for amplify, got {alpha}")
    m = args.m or amplify.default_hash_width(alpha)
    cfg = {"kind": "equality", "n": args.n, "alpha": alpha}
    config = {"channel": cfg, "m": m, "trials": args.trials,
              "wrapper_runs": args.wrapper_runs}

    channel = channels.channel_from_config(cfg)

    def chunk(rng, size):
        aborted, bit_a, bit_b = amplify.hashed_parity_trials(channel, m, size, rng)
        return (~aborted).sum(), ((bit_a == bit_b) & ~aborted).sum()

    ok_count, match = map(int, run_chunked(config, args.seed, args.trials, chunk,
                                           threads=args.threads, out_path=args.out))
    report = ExperimentReport("amplify", args.seed, config)
    abort_rate = _rate_metric(report, "abort_rate", args.trials - ok_count, args.trials)
    agreement = None
    if ok_count:
        agreement = _rate_metric(
            report, "conditional_agreement", match, ok_count
        )

    def wrapper_chunk(rng, runs):
        return amplify.repeat_until_success_batch(
            channel, alpha, runs, rng, m).all_failed.sum()

    runs_per_chunk = CHUNK_TRIALS // math.ceil(5 / alpha)
    all_failed = sum_chunks(wrapper_chunk, rng_from_seed(args.seed + 1),
                            args.wrapper_runs, runs_per_chunk, args.threads)
    _rate_metric(report, "all_fail_rate", int(all_failed), args.wrapper_runs)
    report.record = {
        "protocol": "hashed_parity",
        "n": args.n,
        "m": m,
        "agreement": agreement,
        "leakage": None,
        "abort_rate": abort_rate,
        "seed": args.seed,
        "trials": args.trials,
    }
    return report


def cmd_audit(args) -> ExperimentReport:
    if not args.search:
        _reject_unread(args, ["ell", "budget"], "an audit without --search")
    elif args.channel != "exact_open":
        raise ConfigError(
            "--search reads inputs from the transcript and requires "
            "--channel exact_open"
        )
    cfg = _channel_config(args)
    channel = channels.channel_from_config(cfg)
    search = args.search and {"ell": args.ell or 1, "eps": args.eps or 0.0,
                              "budget": args.budget or 2_000_000}
    config = {"channel": cfg, "trials": args.trials, "flip_index": args.flip_index,
              "distinguisher": args.distinguisher, "search": search}
    rng = rng_from_seed(args.seed)
    dist = _build_distinguisher(args.distinguisher)
    audit = channels.dp_audit(channel, dist, args.flip_index, args.trials,
                              rng, args.threads)
    report = ExperimentReport("audit", args.seed, config)
    report.add_metric("p_real", audit.p_real, args.trials)
    report.add_metric("p_flipped", audit.p_flipped, args.trials)
    report.add_metric("eps_hat_lower", audit.eps_hat_lower, args.trials)
    record = {
        "channel": cfg,
        "eps_hat_lower": audit.eps_hat_lower,
        "seed": args.seed,
        "trials": args.trials,
    }
    if search:
        est = condense.open_transcript_estimator(channel.n)
        best = condense.search_eve_params(
            channel, est, search["ell"], search["eps"], search["budget"], rng
        )
        report.add_metric("eve_gap", best.gap, best.num_triplets)
        record["eve_params"] = dataclasses.asdict(best.params)
    report.record = record
    return report


def _build_distinguisher(spec: str):
    width = spec.removeprefix("near:")
    if width == spec or not width.isdecimal():
        raise ConfigError(f"--distinguisher must be near:w with an integer w >= 0, "
                          f"got {spec!r}")
    return lambda i, px, py, b: (
        np.abs(b.outs - packed_inner_products(px, py, b.n)) <= int(width)
    )


def cmd_gl(args) -> ExperimentReport:
    config = {"n": args.n, "noise": args.noise, "runs": args.runs}
    rng = rng_from_seed(args.seed)
    hits = 0
    for _ in range(args.runs):
        x = random_bits(args.n, rng)
        oracle = amplify.parity_oracle(x, args.noise, int(rng.integers(0, 2**62)))
        hits += int(np.array_equal(amplify.gl_decode(oracle, args.n, rng), x))
    report = ExperimentReport("gl", args.seed, config)
    _rate_metric(report, "recovery_rate", hits, args.runs)
    report.record = {"n": args.n, "noise": args.noise, "seed": args.seed,
                     "trials": args.runs}
    return report


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _at_least(low):
    return lambda v: v is None or v >= low


def _alpha_list(text) -> tuple[float, ...]:
    """condense --alpha: comma-separated alphas whose metric names differ,
    so no alpha's run overwrites another's metric."""
    alphas = tuple(float(a) for a in str(text).split(","))
    if len({f"{a:g}" for a in alphas}) < len(alphas):
        raise ConfigError(f"two alphas share a metric name in {text!r}")
    return alphas


# Every flag by destination: its argparse keywords ("option" when it is not
# spelled after its destination) and the check its merged value must pass.
_FLAGS = {
    "config": ({"help": "JSON config file; flags override it"}, None),
    "n": ({"type": int}, _at_least(1)),
    "seed": ({"type": int}, None),
    "out": ({}, None),
    "format": ({"choices": ("csv", "json")}, None),
    "threads": ({"type": int, "help": "worker threads for chunked trial loops; "
                 "changes no bytes; audit --search runs on one"}, _at_least(1)),
    "trials": ({"type": int}, _at_least(1)),
    "ell": ({"type": int}, _at_least(1)),
    "eps": ({"type": float}, lambda v: v is None or v > 0),  # also rejects nan
    "alpha": ({"type": float}, None),
    "alphas": ({"option": "--alpha", "type": _alpha_list, "metavar": "ALPHA,..."},
               None),
    "samples": ({"type": int, "help": "recon query count, one batch shared by "
                 "every bit (default 64*n^3, the analysis-scale budget; far "
                 "smaller values suffice in practice)"}, _at_least(1)),
    "estimator": ({"help": "exact | zero | laplace | replay:<path>"}, None),
    "channel": ({"choices": tuple(_CHANNEL_FLAGS)}, None),
    "z": ({"type": int}, None),
    "adversary": ({"choices": ("none", "blind", "readout", "openbook")}, None),
    "mode": ({"choices": ("mod", "seeded")}, None),
    "modulus": ({"type": int}, _at_least(2)),
    "m": ({"type": int}, _at_least(1)),
    "wrapper_runs": ({"type": int}, _at_least(1)),
    "flip_index": ({"type": int}, None),
    "distinguisher": ({}, None),
    "search": ({"action": "store_true"}, None),
    "budget": ({"type": int, "help": "--search queries (default 2,000,000): per "
                "(triplet, side) the gate and the reconstruction each get "
                "max(64, budget // 2E), E = 2 x 48 triplets x (up to 72) "
                "parameter triples, and every triple reads the same ones"},
               _at_least(1)),
    "noise": ({"type": float}, lambda v: 0 <= v <= 1),  # also rejects nan
    "runs": ({"type": int}, _at_least(1)),
}

_COMMON = {"config": None, "n": 64, "seed": 1, "out": None, "format": "json"}

# Every subcommand: its function, its help and {flag: default} for exactly
# the flags it reads.  A None default leaves the subcommand to work the value
# out (ka's --ell) or to reject a flag it reads only in other settings
# (condense --trials with --mode mod).
_SUBCOMMANDS = {
    "recon": (cmd_recon, "estimator certification + bit reconstruction", {
        **_COMMON, "estimator": "laplace", "eps": None, "ell": None,
        "trials": 20_000, "samples": None, "threads": 1}),
    "ka": (cmd_ka, "key-agreement round statistics", {
        **_COMMON, "channel": "exact", "eps": None, "z": None, "alpha": None,
        "ell": None, "trials": 10_000, "adversary": "none", "threads": 1}),
    "condense": (cmd_condense, "min-entropy experiments", {
        **_COMMON, "mode": "mod", "alphas": (1.0,), "modulus": None,
        "trials": None}),
    "amplify": (cmd_amplify, "hash-and-parity amplification statistics", {
        **_COMMON, "alpha": 0.25, "m": None, "trials": 100_000,
        "wrapper_runs": 2000, "threads": 1}),
    "audit": (cmd_audit, "privacy lower-bound audit", {
        **_COMMON, "channel": "laplace", "eps": None, "z": None, "alpha": None,
        "trials": 2_000, "flip_index": 0, "distinguisher": "near:0",
        "search": False, "ell": None, "budget": None, "threads": 1}),
    "gl": (cmd_gl, "parity decoder benchmark", {
        **_COMMON, "noise": 0.2, "runs": 100}),
}


def _option(dest: str) -> str:
    return _FLAGS[dest][0].get("option", "--" + dest.replace("_", "-"))


@functools.cache  # one parser per process: main leaves no parser as garbage
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisyip", description="noisy inner-product experiment driver"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text, defaults) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for dest in defaults:
            kwargs = {k: v for k, v in _FLAGS[dest][0].items() if k != "option"}
            # None until merged: a config-file value fills it before the default
            p.add_argument(_option(dest), dest=dest, default=None, **kwargs)
    return parser


def _config_value(key: str, value, kwargs: dict):
    """A config-file value checked against its flag and converted as the flag
    would: switches take a bool, int flags an int, float flags a number, and
    other flags a string or a number."""
    if kwargs.get("action") == "store_true":
        ok = isinstance(value, bool)
    else:
        convert = kwargs.get("type", str)
        kinds = {int: int, float: (int, float)}.get(convert, (str, int, float))
        ok = isinstance(value, kinds) and not isinstance(value, bool)
        value = convert(value) if ok else value
    if not ok or ("choices" in kwargs and value not in kwargs["choices"]):
        raise ConfigError(f"invalid value for config key {key!r}: {value!r}")
    return value


def _merge_config(args) -> None:
    """Fill every flag the command line left out from the config file, then
    from the subcommand's default, and check it."""
    defaults = _SUBCOMMANDS[args.subcommand][2]
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        dests = {_option(d): d for d in defaults if d != "config"}
        for key, value in file_cfg.items():
            dest = dests.get("--" + key.replace("_", "-"))
            if dest is None:
                raise ConfigError(f"unknown config key {key!r}")
            value = _config_value(key, value, _FLAGS[dest][0])
            if getattr(args, dest) is None:
                setattr(args, dest, value)
    for dest, default in defaults.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        check = _FLAGS[dest][1]
        if check is not None and not check(getattr(args, dest)):
            raise ConfigError(f"invalid value for {_option(dest)}: "
                              f"{getattr(args, dest)}")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 2 for a usage error, 0 for --help
        return exc.code
    try:
        _merge_config(args)
        start = time.monotonic()
        report = _SUBCOMMANDS[args.subcommand][0](args)
        wall = time.monotonic() - start
        payload = (
            report.to_json_bytes() if args.format == "json" else report.to_csv_bytes()
        )
        if args.out:
            with open(args.out, "wb") as fh:
                fh.write(payload)
        else:
            sys.stdout.buffer.write(payload)
    except PreconditionViolation as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # bad input, or a file that cannot be used
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"[noisyip] {args.subcommand} done in {wall:.2f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
