"""Output checks: every artifact against an exact law the library provides.

Each rate is tested as a binomial count at the trial count the artifact
states, with an exact two-sided test at level ``ALPHA`` per check.  A run
makes at most a few hundred checks, so a correct program fails one with
probability well under 1e-3, while a law that is off by more than a few
standard errors fails at once.
"""

from __future__ import annotations

import math

ALPHA = 1e-6


def _log_pmf(j: int, n: int, p: float) -> float:
    return (
        math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
        + j * math.log(p) + (n - j) * math.log1p(-p)
    )


def _tail(k: int, n: int, p: float, step: int) -> float:
    """P[K <= k] (step -1) or P[K >= k] (step +1) for K ~ Bin(n, p).

    Only called for k beyond the mean on the side of the tail, where terms
    shrink monotonically away from k, so the sum stops once they vanish.
    """
    total = 0.0
    j = k
    while 0 <= j <= n:
        term = math.exp(_log_pmf(j, n, p))
        total += term
        if term < 1e-20 * total or term == 0.0:
            break
        j += step
    return total


def binomial_ok(k: int, n: int, p: float, alpha: float = ALPHA) -> bool:
    """Exact two-sided test of k successes in n trials against rate p."""
    if not 0 <= k <= n:
        return False
    if p <= 0.0 or p >= 1.0:
        return k == round(p * n)
    mean = n * p
    if k < mean:
        return _tail(k, n, p, -1) > alpha / 2
    if k > mean:
        return _tail(k, n, p, +1) > alpha / 2
    return True


def _count(metric: dict) -> int:
    return round(metric["value"] * metric["trials"])


class Checker:
    """Collects named failures for one artifact."""

    def __init__(self):
        self.failures: list[str] = []

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def rate(self, metric: dict, p: float, what: str) -> None:
        k = _count(metric)
        self.require(
            binomial_ok(k, metric["trials"], p),
            f"{what}: {k}/{metric['trials']} is not Bin(n, {p:.6g})",
        )


def ka_agreement_law(ell: int, scale: float, pmf) -> float:
    """Pr[o_A = o_B] = sum_e pmf(e) * max(0, ell - |e|) / ell."""
    return sum(pmf(e, scale) * (ell - abs(e)) / ell for e in range(-ell, ell + 1))


def check_recon(rep: dict, lib) -> list[str]:
    c = Checker()
    cfg, m = rep["config"], rep["metrics"]
    n, ell, scale = cfg["n"], cfg["ell"], 2.0 / cfg["eps"]
    c.require(m["frac_correct"]["value"] >= 0.90, "frac_correct < 0.90")
    lam = lib.reconstruct.laplace_lambda(n, ell, scale)
    hit_rate = lam * ell / math.sqrt(n)
    lam_hat = m["lambda_hat"]
    c.rate(
        {"value": lam_hat["value"] * ell / math.sqrt(n), "trials": lam_hat["trials"]},
        hit_rate, "lambda_hat vs laplace_lambda",
    )
    budget = cfg["certify_trials"] + n * cfg["samples_per_bit"]
    c.require(
        rep["query_counts"]["estimator"] <= budget,
        f"estimator queries {rep['query_counts']['estimator']} > {budget}",
    )
    return c.failures


def check_ka(rep: dict, lib) -> list[str]:
    c = Checker()
    cfg, m = rep["config"], rep["metrics"]
    scale = 2.0 / cfg["channel"]["eps"]
    p = ka_agreement_law(cfg["ell"], scale, lib.sources.rounded_laplace_pmf)
    c.rate(m["agreement"], p, "agreement")
    c.require(
        m["equality_leakage"]["trials"] == _count(m["agreement"]),
        "equality_leakage.trials != agreement events",
    )
    return c.failures


def amplify_laws(n: int, m: int, alpha: float) -> tuple[float, float, float]:
    """(abort rate, agreement given no abort, all-fail rate of the wrapper)."""
    same = alpha + (1 - alpha) * 2.0**-n
    differ_collide = (1 - alpha) * (1 - 2.0**-n) * 2.0**-m
    abort = (1 - alpha) * (1 - 2.0**-n) * (1 - 2.0**-m)
    # on a hash collision of unequal inputs the parities agree half the time
    cond_agree = (same + differ_collide / 2) / (same + differ_collide)
    return abort, cond_agree, abort ** math.ceil(5 / alpha)


def check_amplify(rep: dict, lib) -> list[str]:
    c = Checker()
    cfg, m = rep["config"], rep["metrics"]
    ch = cfg["channel"]
    abort, cond, all_fail = amplify_laws(ch["n"], cfg["m"], ch["alpha"])
    c.rate(m["abort_rate"], abort, "abort_rate")
    c.rate(m["conditional_agreement"], cond, "conditional_agreement")
    c.rate(m["all_fail_rate"], all_fail, "all_fail_rate")
    return c.failures


def check_audit(rep: dict, lib) -> list[str]:
    c = Checker()
    cfg, m = rep["config"], rep["metrics"]
    kind = cfg["channel"]["kind"]
    if kind == "laplace":
        scale = 2.0 / cfg["channel"]["eps"]
        pmf = lib.sources.rounded_laplace_pmf
        c.rate(m["p_real"], pmf(0, scale), "p_real")
        c.rate(m["p_flipped"], pmf(2, scale), "p_flipped")
    elif kind == "exact_open":
        c.require(m["p_real"]["value"] == 1.0, "p_real != 1")
        c.require(m["p_flipped"]["value"] == 0.0, "p_flipped != 0")
        c.require(
            math.isclose(m["eps_hat_lower"]["value"], math.log(cfg["trials"]),
                         rel_tol=1e-12),
            "eps_hat_lower != log(trials)",
        )
        c.require(-1.0 <= m["eve_gap"]["value"] <= 1.0, "eve_gap outside [-1, 1]")
    else:
        c.require(False, f"no law for channel {kind!r}")
    return c.failures


CHECKS = {
    "recon": check_recon,
    "ka": check_ka,
    "amplify": check_amplify,
    "audit": check_audit,
}


def check_artifact(rep: dict, lib) -> list[str]:
    """Schema validation plus the subcommand's exact laws; returns failures."""
    try:
        lib.reporting.validate_report(rep)
    except lib.reporting.jsonschema.ValidationError as exc:
        return [f"schema: {exc.message}"]
    try:
        return CHECKS[rep["subcommand"]](rep, lib)
    except KeyError as exc:
        return [f"artifact lacks {exc}"]


def frac_correct(reps: list[dict]) -> float:
    """The workload's fraction of correct outcomes, from its first artifact:
    bits recovered (recon), rounds whose keys agree (ka), unaborted rounds
    whose bits agree (amplify), balanced accuracy of the audit's
    real-vs-flipped decisions (audit)."""
    m = reps[0]["metrics"]
    kind = reps[0]["subcommand"]
    if kind == "recon":
        return m["frac_correct"]["value"]
    if kind == "ka":
        return m["agreement"]["value"]
    if kind == "amplify":
        return m["conditional_agreement"]["value"]
    return (m["p_real"]["value"] + 1.0 - m["p_flipped"]["value"]) / 2
