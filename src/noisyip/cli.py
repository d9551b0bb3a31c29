"""Batch experiment driver.

Subcommands: recon | ka | condense | amplify | audit | gl.  Every run is
fully determined by (config, seed): trials are partitioned into fixed-size
chunks, each chunk draws from its own spawned generator stream, and chunk
results merge in index order, so neither --threads nor interruptions change
the output bytes.  Long trial loops checkpoint their per-chunk aggregates
so interrupted runs resume.

Exit codes: 0 ok, 2 invalid configuration, 3 precondition violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import amplify, channels, condense, keyagreement, reconstruct
from .errors import PreconditionViolation
from .reporting import ExperimentReport, wald_half_width
from .rng import CHUNK_TRIALS, map_streams, rng_from_seed, spawn_rngs, sum_chunks
from .signvectors import packed_inner_products, random_bits, random_signs
from .sources import SvSourceSpec


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Chunked, resumable, thread-parallel trial loops
# ---------------------------------------------------------------------------


def _config_hash(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()
    ).hexdigest()


def run_chunked(
    config: dict,
    seed: int,
    trials: int,
    chunk_fn,
    threads: int = 1,
    out_path: str | None = None,
) -> list[int]:
    """Deterministic chunked sum over trials.

    ``chunk_fn(rng, size) -> list of ints`` runs one chunk of at most
    ``CHUNK_TRIALS`` trials; the lists are summed elementwise.  When
    ``out_path`` is given, a sidecar checkpoint stores completed chunk
    aggregates keyed by a hash of (config, seed) and is removed on completion.
    """
    num_chunks = (trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS
    key = _config_hash({"config": config, "seed": seed, "trials": trials})
    ckpt_path = f"{out_path}.ckpt" if out_path else None

    done: dict[int, list[int]] = {}
    if ckpt_path and os.path.exists(ckpt_path):
        try:
            with open(ckpt_path) as fh:
                saved = json.load(fh)
            if saved["key"] != key:
                raise ValueError("it was written for another configuration")
            done = {int(k): v for k, v in saved["chunks"].items()}
        except (OSError, ValueError, TypeError, KeyError, AttributeError) as exc:
            print(f"note: ignoring checkpoint {ckpt_path}: {exc}", file=sys.stderr)

    def run_one(i, rng):
        return i, chunk_fn(rng, min(CHUNK_TRIALS, trials - i * CHUNK_TRIALS))

    root = rng_from_seed(seed)
    for i, agg in map_streams(run_one, root, num_chunks, threads, set(done)):
        done[i] = agg
        if ckpt_path and len(done) < num_chunks:
            _save_ckpt(ckpt_path, key, done)

    result = [sum(col) for col in zip(*(done[i] for i in range(num_chunks)))]
    if ckpt_path and os.path.exists(ckpt_path):
        os.remove(ckpt_path)
    return result


def _save_ckpt(path, key, done):
    # write-then-rename, so an interrupted write never leaves a torn file
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump({"key": key, "chunks": {str(k): v for k, v in done.items()}}, fh)
    os.replace(tmp, path)


def _rate_metric(report, name, hits, trials):
    rate = hits / trials
    report.add_metric(name, rate, trials, wald_half_width(rate, trials))
    return rate


# ---------------------------------------------------------------------------
# Channel / estimator construction from flags
# ---------------------------------------------------------------------------


def _channel_config(args) -> dict:
    cfg = {"kind": args.channel, "n": args.n}
    if args.channel in ("laplace", "randomized_response"):
        if args.eps is None:
            raise ConfigError(f"--eps is required for channel {args.channel}")
        cfg["eps"] = args.eps
    if args.channel == "constant":
        cfg["z"] = args.z
        cfg["alpha_a"] = args.alpha if args.alpha is not None else 1.0
        cfg["alpha_b"] = args.alpha if args.alpha is not None else 1.0
    if args.channel == "equality":
        if args.alpha is None:
            raise ConfigError("--alpha is required for the equality channel")
        cfg["alpha"] = args.alpha
    return cfg


def _build_estimator(spec: str, z, eps, rng):
    n = len(z)
    if spec == "exact":
        return reconstruct.exact_estimator(z)
    if spec == "zero":
        return reconstruct.zero_estimator(n)
    if spec == "laplace":
        if eps is None:
            raise ConfigError("--eps is required for the laplace estimator")
        return reconstruct.laplace_estimator(z, 2.0 / eps, rng)
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
    ell = args.ell
    if ell is None:
        laplace = args.estimator == "laplace"
        ell = reconstruct.best_laplace_ell(args.n, 2.0 / args.eps) if laplace else 1
    certify_trials = args.trials if args.trials is not None else 20_000
    profile = reconstruct.certify_estimator(est, z, ell, certify_trials, rng)
    samples = args.samples
    if samples is None:
        samples = reconstruct.default_num_samples(args.n)
    result = reconstruct.reconstruct_all(
        z, est, ell, samples, rng, threads=args.threads
    )
    config = {
        "n": args.n,
        "ell": ell,
        "estimator": args.estimator,
        "eps": args.eps,
        "certify_trials": certify_trials,
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
    ell = args.ell if args.ell is not None else max(2, math.isqrt(args.n))
    trials = args.trials if args.trials is not None else 10_000
    config = {"channel": cfg, "ell": ell, "adversary": args.adversary}

    if args.adversary == "openbook" and cfg["kind"] != "exact_open":
        raise ConfigError(
            "the openbook adversary reads leaked inputs and requires "
            "--channel exact_open"
        )
    channel = channels.channel_from_config(cfg)
    adv = None if args.adversary == "none" else _build_adversary(args.adversary, ell)

    def chunk(rng, size):
        return [*keyagreement.count_rounds(channel, ell, size, rng, adv), size]

    agree, leak_hits, total = run_chunked(
        config, args.seed, trials, chunk, threads=args.threads, out_path=args.out
    )
    report = ExperimentReport("ka", args.seed, config)
    agreement = _rate_metric(report, "agreement", agree, total)
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
        "trials": total,
    }
    return report


def _build_adversary(spec: str, ell: int):
    if spec == "blind":
        return keyagreement.blind_adversary(ell)
    if spec == "readout":
        return keyagreement.readout_adversary(ell)
    if spec == "openbook":
        return keyagreement.openbook_adversary(ell)
    raise ConfigError(f"unknown adversary {spec!r}")


def cmd_condense(args) -> ExperimentReport:
    alphas = [float(a) for a in str(args.alpha or "1.0").split(",")]
    if args.mode == "mod":
        trials = None  # exact laws: nothing is sampled
        modulus = args.modulus or max(2, math.isqrt(args.n))
    else:
        trials = args.trials if args.trials is not None else 64  # conditionings
        modulus = None
    config = {
        "mode": args.mode,
        "n": args.n,
        "alphas": alphas,
        "modulus": modulus,
        "trials": trials,
    }
    report = ExperimentReport("condense", args.seed, config)
    rng = rng_from_seed(args.seed)
    child = spawn_rngs(rng, len(alphas))
    record_estimates = {}
    for alpha, crng in zip(alphas, child):
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
        "alpha": alphas[0] if len(alphas) == 1 else None,
        "params": {"modulus": modulus},
        "estimate": record_estimates,
        "ci": None,
        "seed": args.seed,
        "trials": trials,
    }
    return report


def cmd_amplify(args) -> ExperimentReport:
    alpha = args.alpha if args.alpha is not None else 0.25
    if not 0 < alpha <= 1:
        raise ConfigError(f"--alpha must lie in (0, 1] for amplify, got {alpha}")
    m = args.m if args.m is not None else amplify.default_hash_width(alpha)
    trials = args.trials if args.trials is not None else 100_000
    cfg = {"kind": "equality", "n": args.n, "alpha": alpha}
    config = {"channel": cfg, "m": m, "trials": trials,
              "wrapper_runs": args.wrapper_runs}

    channel = channels.channel_from_config(cfg)

    def chunk(rng, size):
        aborted, bit_a, bit_b = amplify.hashed_parity_trials(
            channel, m, size, rng
        )
        ok = ~aborted
        return [int(ok.sum()), int((bit_a[ok] == bit_b[ok]).sum()), size]

    ok_count, match, total = run_chunked(
        config, args.seed, trials, chunk, threads=args.threads, out_path=args.out
    )
    report = ExperimentReport("amplify", args.seed, config)
    abort_rate = _rate_metric(report, "abort_rate", total - ok_count, total)
    agreement = None
    if ok_count:
        agreement = _rate_metric(
            report, "conditional_agreement", match, ok_count
        )

    def wrapper_chunk(rng, runs):
        return amplify.repeat_until_success_batch(
            channel, alpha, runs, rng, m).all_failed.sum()

    runs_per_chunk = max(1, CHUNK_TRIALS // math.ceil(5 / alpha))
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
        "trials": total,
    }
    return report


def cmd_audit(args) -> ExperimentReport:
    cfg = _channel_config(args)
    if args.search and cfg["kind"] != "exact_open":
        raise ConfigError(
            "--search reads inputs from the transcript and requires "
            "--channel exact_open"
        )
    channel = channels.channel_from_config(cfg)
    trials = args.trials if args.trials is not None else 2_000
    search = args.search and {"ell": args.ell or 1, "eps": args.eps or 0.0,
                              "budget": args.budget}
    config = {"channel": cfg, "trials": trials, "flip_index": args.flip_index,
              "distinguisher": args.distinguisher, "search": search}
    rng = rng_from_seed(args.seed)
    dist = _build_distinguisher(args.distinguisher)
    audit = channels.dp_audit(channel, dist, args.flip_index, trials, rng, args.threads)
    report = ExperimentReport("audit", args.seed, config)
    report.add_metric("p_real", audit.p_real, trials)
    report.add_metric("p_flipped", audit.p_flipped, trials)
    report.add_metric("eps_hat_lower", audit.eps_hat_lower, trials)
    record = {
        "channel": cfg,
        "eps_hat_lower": audit.eps_hat_lower,
        "seed": args.seed,
        "trials": trials,
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


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--alpha", default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument(
        "--samples", type=int, default=None,
        help="recon query count, one batch shared by every bit (default 64*n^3, the analysis-scale budget; far smaller values suffice in practice)",
    )
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.add_argument("--threads", type=int, default=None, help="worker threads for "
                   "chunked trial loops; changes no bytes; audit --search runs on one")


_CHANNEL_CHOICES = (
    "exact",
    "exact_open",
    "laplace",
    "randomized_response",
    "constant",
    "equality",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisyip", description="noisy inner-product experiment driver"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("recon", help="estimator certification + bit reconstruction")
    _add_common(p)
    p.add_argument("--estimator", help="exact | zero | laplace | replay:<path>")

    p = sub.add_parser("ka", help="key-agreement round statistics")
    _add_common(p)
    p.add_argument("--channel", choices=_CHANNEL_CHOICES)
    p.add_argument("--z", type=int)
    p.add_argument("--adversary", help="none | blind | readout | openbook")

    p = sub.add_parser("condense", help="min-entropy experiments")
    _add_common(p)
    p.add_argument("--mode", choices=("mod", "seeded"))
    p.add_argument("--modulus", type=int, default=None)

    p = sub.add_parser("amplify", help="hash-and-parity amplification statistics")
    _add_common(p)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--wrapper-runs", type=int)

    p = sub.add_parser("audit", help="privacy lower-bound audit")
    _add_common(p)
    p.add_argument("--channel", choices=_CHANNEL_CHOICES)
    p.add_argument("--z", type=int)
    p.add_argument("--flip-index", type=int)
    p.add_argument("--distinguisher")
    p.add_argument("--search", action="store_true", default=None)
    p.add_argument("--budget", type=int, help="--search queries (default 2,000,000): "
                   "per (triplet, side) the gate and the reconstruction each get "
                   "max(64, budget // 2E), E = 2 x 48 triplets x (up to 72) "
                   "parameter triples, and every triple reads the same ones")

    p = sub.add_parser("gl", help="parity decoder benchmark")
    _add_common(p)
    p.add_argument("--noise", type=float)
    p.add_argument("--runs", type=int)

    return parser


# Flags parse to None when absent from the command line, so a config-file
# value fills them first and these defaults fill what is left.
_DEFAULTS = {"n": 64, "seed": 1, "threads": 1, "format": "json"}
_COMMAND_DEFAULTS = {
    "recon": {"estimator": "laplace"},
    "ka": {"channel": "exact", "z": 0, "adversary": "none"},
    "condense": {"mode": "mod"},
    "amplify": {"wrapper_runs": 2000},
    "audit": {"channel": "laplace", "z": 0, "flip_index": 0,
              "distinguisher": "near:0", "search": False, "budget": 2_000_000},
    "gl": {"noise": 0.2, "runs": 100},
}

_VALIDATORS = {
    "n": lambda v: v >= 1,
    "trials": lambda v: v is None or v >= 1,
    "samples": lambda v: v is None or v >= 1,
    "threads": lambda v: v >= 1,
    "ell": lambda v: v is None or v >= 1,
    "eps": lambda v: v is None or v > 0,  # also rejects nan
    "m": lambda v: v is None or v >= 1,
    "wrapper_runs": lambda v: v >= 1,
    "runs": lambda v: v >= 1,
    "budget": lambda v: v >= 1,
    "modulus": lambda v: v is None or v >= 2,
    "noise": lambda v: 0 <= v <= 1,  # also rejects nan
}


def _config_value(key: str, value, action: argparse.Action):
    """A config-file value checked against its flag and converted as the flag
    would: switches take a bool, int flags an int, float flags a number, and
    untyped flags a string or a number."""
    if action.nargs == 0:
        ok = isinstance(value, bool)
    else:
        kinds = {int: int, float: (int, float)}.get(action.type, (str, int, float))
        ok = isinstance(value, kinds) and not isinstance(value, bool)
        value = (action.type or str)(value) if ok else value
    if not ok or (action.choices is not None and value not in action.choices):
        raise ConfigError(f"invalid value for config key {key!r}: {value!r}")
    return value


def _merge_config(args, parser: argparse.ArgumentParser) -> None:
    file_cfg = {}
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in sub.choices[args.subcommand]._actions}
    for key, value in file_cfg.items():
        attr = key.replace("-", "_")
        if attr not in actions or not hasattr(args, attr):
            raise ConfigError(f"unknown config key {key!r}")
        value = _config_value(key, value, actions[attr])
        if getattr(args, attr) is None:
            setattr(args, attr, value)
    for key, value in {**_DEFAULTS, **_COMMAND_DEFAULTS[args.subcommand]}.items():
        if getattr(args, key) is None:
            setattr(args, key, value)
    if args.subcommand == "condense":
        unused = {"mod": "trials", "seeded": "modulus"}[args.mode]
        if getattr(args, unused) is not None:
            raise ConfigError(f"--{unused} does not apply to --mode {args.mode}")
    if getattr(args, "alpha", None) is not None and args.subcommand != "condense":
        args.alpha = float(args.alpha)
    for key, check in _VALIDATORS.items():
        if hasattr(args, key) and not check(getattr(args, key)):
            flag = key.replace("_", "-")
            raise ConfigError(f"invalid value for --{flag}: {getattr(args, key)}")


_COMMANDS = {
    "recon": cmd_recon,
    "ka": cmd_ka,
    "condense": cmd_condense,
    "amplify": cmd_amplify,
    "audit": cmd_audit,
    "gl": cmd_gl,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _merge_config(args, parser)
        start = time.monotonic()
        report = _COMMANDS[args.subcommand](args)
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
