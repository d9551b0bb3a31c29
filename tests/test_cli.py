import argparse
import csv
import gc
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import pytest

import noisyip
from noisyip.cli import _merge_config, build_parser, main
from noisyip.reporting import validate_report


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_recon_exact_estimator(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main([
        "recon", "--estimator", "exact", "--n", "36", "--ell", "2",
        "--trials", "500", "--samples", "30000", "--seed", "3",
        "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    validate_report(payload)
    assert payload["record"]["frac_correct"] == 1.0
    assert payload["metrics"]["lambda_hat"]["value"] == pytest.approx(3.0)
    assert payload["record"]["queries"] <= 36 * 30000 + 500


def test_recon_zero_estimator_trivial(tmp_path):
    # the trivial estimator carries no signal: averaged over seeds it
    # recovers half the bits (the per-run fraction is noisy, since all bits
    # share one query batch and their coins are correlated)
    out = tmp_path / "r.json"
    fracs = []
    for seed in range(50):
        code = main([
            "recon", "--estimator", "zero", "--n", "64", "--ell", "2",
            "--trials", "500", "--samples", "301", "--seed", str(seed),
            "--out", str(out),
        ])
        assert code == 0
        fracs.append(json.loads(out.read_text())["record"]["frac_correct"])
    assert 0.4 < sum(fracs) / len(fracs) < 0.6


def test_ka_exact_channel(tmp_path):
    out = tmp_path / "ka.json"
    code = main([
        "ka", "--channel", "exact", "--n", "32", "--ell", "4",
        "--trials", "2000", "--seed", "7", "--adversary", "blind",
        "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["metrics"]["agreement"]["value"] == 1.0
    assert payload["record"]["protocol"] == "ka_round"


def test_byte_identical_reruns(tmp_path):
    args = [
        "ka", "--channel", "laplace", "--eps", "1.0", "--n", "64",
        "--ell", "8", "--trials", "12000", "--seed", "11",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    assert main(args + ["--format", "csv", "--out", str(c)]) == 0
    assert main(args + ["--format", "csv", "--out", str(d)]) == 0
    assert c.read_bytes() == d.read_bytes()


def test_threads_do_not_change_bytes(tmp_path):
    for base in (
        ["ka", "--channel", "constant", "--n", "64", "--ell", "8",
         "--trials", "25000", "--seed", "13"],
        # the benchmark's channel and adversary
        ["ka", "--channel", "laplace", "--eps", "1.0", "--n", "100", "--ell", "8",
         "--trials", "25000", "--adversary", "blind", "--seed", "13"],
        # a randomized estimator: its noise is keyed by the query
        ["recon", "--estimator", "laplace", "--eps", "0.25", "--n", "64",
         "--samples", "2000", "--seed", "7"],
        # the wrapper runs, 1,111 to a chunk at alpha = 0.6 (cap 9)
        ["amplify", "--n", "24", "--alpha", "0.6", "--trials", "15000",
         "--wrapper-runs", "4000", "--seed", "11"],
        # the audit's three chunks of trials
        ["audit", "--channel", "laplace", "--eps", "1.0", "--n", "64",
         "--trials", "25000"],
        # the leaked lanes, read by the openbook adversary
        ["ka", "--channel", "exact_open", "--n", "70", "--ell", "4",
         "--trials", "25000", "--adversary", "openbook", "--seed", "3"],
    ):
        outs = []
        for threads in ("1", "2", "3"):
            out = tmp_path / f"{base[0]}{threads}.json"
            assert main(base + ["--threads", threads, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]


class Interrupted(Exception):
    """Stops a run between two chunks, as a kill would."""


def test_checkpoint_resume_matches_fresh(tmp_path, monkeypatch):
    args = [
        "ka", "--channel", "constant", "--n", "32", "--ell", "4",
        "--trials", "30000", "--seed", "17",
    ]
    fresh = tmp_path / "fresh.json"
    assert main(args + ["--out", str(fresh)]) == 0

    # an interrupted run: chunk 0 finishes and is checkpointed, then the run
    # stops before chunk 1; the resumed run computes only chunks 1 and 2
    import noisyip.cli as cli_mod
    from noisyip.rng import rng_from_seed, spawn_rngs

    resumed = tmp_path / "resumed.json"
    ckpt = str(resumed) + ".ckpt"
    orig = cli_mod.run_chunked
    sizes, stop_after, first = [], [1], []

    def counted(config, seed, trials, chunk_fn, **kw):
        first[:] = chunk_fn(spawn_rngs(rng_from_seed(seed), 3)[0], cli_mod.CHUNK_TRIALS)

        def chunk(rng, size):
            if len(sizes) == stop_after[0]:
                raise Interrupted
            sizes.append(size)
            return chunk_fn(rng, size)

        return orig(config, seed, trials, chunk, **kw)

    monkeypatch.setattr(cli_mod, "run_chunked", counted)
    with pytest.raises(Interrupted):
        main(args + ["--out", str(resumed)])
    with open(ckpt) as fh:
        saved = json.load(fh)
    # the checkpoint holds the sum of the finished prefix: chunk 0's counts
    assert sorted(saved) == ["done", "key", "sums"]
    assert saved["done"] == 1 and saved["sums"] == list(first)

    sizes.clear()
    stop_after[0] = None
    assert main(args + ["--out", str(resumed)]) == 0
    assert sizes == [cli_mod.CHUNK_TRIALS] * 2  # not chunk 0 again
    assert resumed.read_bytes() == fresh.read_bytes()
    assert not os.path.exists(ckpt)


def test_torn_checkpoint_resumes_to_fresh_bytes(tmp_path, capsys):
    args = [
        "ka", "--channel", "constant", "--n", "32", "--ell", "4",
        "--trials", "30000", "--seed", "17",
    ]
    fresh = tmp_path / "fresh.json"
    assert main(args + ["--out", str(fresh)]) == 0
    resumed = tmp_path / "resumed.json"
    ckpt = tmp_path / "resumed.json.ckpt"
    ckpt.write_text('{"key": "')  # a write cut off mid-file
    assert main(args + ["--out", str(resumed)]) == 0
    assert "ignoring checkpoint" in capsys.readouterr().err
    assert resumed.read_bytes() == fresh.read_bytes()
    assert not ckpt.exists()


@pytest.mark.parametrize("sums", [[5], [1e300, 1]], ids=["one-sum", "huge-float"])
def test_checkpoint_with_malformed_sums_resumes_to_fresh_bytes(
        tmp_path, capsys, monkeypatch, sums):
    # a checkpoint saved under the run's own key, its sums edited: one sum
    # used to be broadcast into both counts, and a float past int64 to raise
    import noisyip.rng as rng_mod

    args = ["ka", "--channel", "laplace", "--eps", "1.0", "--n", "64",
            "--trials", "30000", "--seed", "3"]
    fresh = tmp_path / "fresh.json"
    assert main(args + ["--out", str(fresh)]) == 0
    resumed = tmp_path / "resumed.json"
    ckpt = tmp_path / "resumed.json.ckpt"
    save = rng_mod._save_ckpt

    def save_then_stop(*a):
        save(*a)
        raise Interrupted

    monkeypatch.setattr(rng_mod, "_save_ckpt", save_then_stop)
    with pytest.raises(Interrupted):
        main(args + ["--out", str(resumed)])
    monkeypatch.undo()
    saved = json.loads(ckpt.read_text())
    assert saved["done"] == 1
    ckpt.write_text(json.dumps({**saved, "sums": sums}))
    capsys.readouterr()
    assert main(args + ["--out", str(resumed)]) == 0
    assert "ignoring checkpoint" in capsys.readouterr().err
    assert resumed.read_bytes() == fresh.read_bytes()
    assert not ckpt.exists()


def test_csv_format_and_column_order(tmp_path):
    out = tmp_path / "r.csv"
    code = main([
        "ka", "--channel", "exact", "--n", "16", "--ell", "2",
        "--trials", "500", "--seed", "19", "--format", "csv",
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == (
        "schema_version,subcommand,seed,metric,value,half_width,trials,config_json"
    )
    assert any(line.split(",")[3] == "agreement" for line in lines[1:])


def test_condense_modes(tmp_path):
    # with the modulus wider than the distribution spread, stronger bias
    # concentrates the masked product and lowers the exact entropy
    out = tmp_path / "c.json"
    code = main([
        "condense", "--mode", "mod", "--n", "256", "--modulus", "128",
        "--alpha", "1.0,0.2", "--seed", "23",
        "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    bits_uniform = payload["metrics"]["min_entropy_bits[alpha=1]"]["value"]
    bits_biased = payload["metrics"]["min_entropy_bits[alpha=0.2]"]["value"]
    assert bits_biased <= bits_uniform
    # exact values: nothing sampled, no interval
    for metric in payload["metrics"].values():
        assert metric["trials"] == 0 and metric["half_width"] is None
    assert payload["config"]["trials"] is None
    assert payload["record"]["params"] == {"modulus": 128}


def test_condense_seeded_mode(tmp_path):
    out = tmp_path / "s.json"
    code = main([
        "condense", "--mode", "seeded", "--n", "256", "--alpha", "1.0",
        "--trials", "12", "--seed", "5",
        "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    # uniform sources: every conditional masked product is a shifted
    # binomial with -log2(central binomial) ~ 4.3 bits of min-entropy
    bits = payload["metrics"]["quantile_bits[alpha=1]"]["value"]
    assert 3.5 < bits < 5.0
    assert bits == pytest.approx(-math.log2(math.comb(256, 128) / 2.0**256), abs=1e-9)
    assert payload["metrics"]["quantile_bits[alpha=1]"]["trials"] == 12
    assert "inner" not in payload["config"]


def test_condense_zero_min_entropy_is_written_as_zero(tmp_path):
    # alpha = 1e-20 makes every entry all but certain, so a probability is 1
    for mode in ("mod", "seeded"):
        out = tmp_path / f"{mode}.json"
        assert main(["condense", "--mode", mode, "--n", "16", "--alpha", "1e-20",
                     "--seed", "1", "--out", str(out)]) == 0
        text = out.read_text()
        assert "-0.0" not in text, mode
        (metric,) = json.loads(text)["metrics"].values()
        assert metric["value"] == 0.0


@pytest.mark.parametrize("mode,flag,value", [
    ("mod", "trials", 10),  # nothing is sampled
    ("seeded", "modulus", 8),  # there is no reduction
])
def test_condense_rejects_flags_of_the_other_mode(tmp_path, capsys, mode, flag, value):
    argv = ["condense", "--mode", mode, "--n", "16", "--seed", "1"]
    assert main(argv + [f"--{flag}", str(value)]) == 2
    assert f"--{flag} does not apply" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": mode, flag: value}))
    assert main(["condense", "--config", str(cfg), "--n", "16"]) == 2
    assert f"--{flag} does not apply" in capsys.readouterr().err
    if mode == "mod":  # the default mode
        assert main(["condense", "--n", "16", "--trials", "10"]) == 2
    assert main(["condense", "--mode", mode, "--n", "16"]) == 0


def test_amplify_command(tmp_path):
    out = tmp_path / "a.json"
    code = main([
        "amplify", "--n", "24", "--alpha", "0.25", "--trials", "20000",
        "--wrapper-runs", "200", "--seed", "29",
        "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["metrics"]["conditional_agreement"]["value"] >= 0.9
    assert "gl_recovery_rate" not in payload["metrics"]
    assert payload["record"]["m"] == 10


def test_audit_command(tmp_path):
    out = tmp_path / "audit.json"
    code = main([
        "audit", "--channel", "exact", "--n", "16", "--trials", "400",
        "--seed", "31", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["metrics"]["eps_hat_lower"]["value"] > 2.0


def test_near_distinguisher_matches_row_definition():
    from noisyip import inner_product, laplace_ip_channel, rng_from_seed
    from noisyip.cli import _build_distinguisher

    b = laplace_ip_channel(16, 1.0).sample_batch(400, rng_from_seed(3))
    for width in (0, 2):
        got = _build_distinguisher(f"near:{width}")(5, b.px, b.py, b)
        expected = [abs(int(b.outs[i]) - inner_product(b.xs[i], b.ys[i])) <= width
                    for i in range(len(b))]
        assert got.tolist() == expected


@pytest.mark.parametrize("spec", ["near:x", "near:"])
def test_malformed_near_width_is_a_config_error(spec, capsys):
    assert main(["audit", "--channel", "laplace", "--eps", "1.0", "--n", "16",
                 "--trials", "10", "--distinguisher", spec]) == 2
    err = capsys.readouterr().err
    assert "--distinguisher" in err and repr(spec) in err
    assert "invalid literal" not in err


AUDIT_LAPLACE = ["audit", "--channel", "laplace", "--eps", "1.0", "--n", "64",
                 "--trials", "20000"]


@pytest.mark.parametrize("argv, digest", [
    (AUDIT_LAPLACE + ["--seed", "1", "--flip-index", "0"],
     "ee8ad880b3f30e47fe3842800f799fd768c400154b2b51481c8b9028181c9fe0"),
    (AUDIT_LAPLACE + ["--seed", "1", "--flip-index", "70"],
     "7afa463c9ba37a768509d0d6cc52d21e5289ef00335971d35689775b8a63757e"),
    (AUDIT_LAPLACE + ["--seed", "5", "--flip-index", "0"],
     "6a4aa301fe074b64e35bca8a41a671506031d973e67c32bf58e5f4e60ca051ae"),
    (AUDIT_LAPLACE + ["--seed", "5", "--flip-index", "70"],
     "ee3b23d308173bc456eaa56ac509c15737489445144af4e167468758e3ba6254"),
    (AUDIT_LAPLACE + ["--seed", "7", "--flip-index", "0"],
     "0acc4e9d1dd688619c7a78eecf5ad0eb6b8e961264b74b3bfd26d398f3ff50c8"),
    (AUDIT_LAPLACE + ["--seed", "7", "--flip-index", "70"],
     "84f1beffd7f495c9d57e9f0eef030be6a81d0046e53fcb83ecebe6e894cfccd3"),
    (["audit", "--channel", "exact_open", "--n", "64", "--search", "--seed", "7"],
     "e7ce38c6098906b1c3493f53b9164962034f8784259b2ec7bb7beec52a2dba8f"),
], ids=["s1-x", "s1-y", "s5-x", "s5-y", "s7-x", "s7-y", "s7-search"])
def test_audit_artifacts_are_pinned(tmp_path, argv, digest):
    # the artifacts as the chunked audit writes them, x half and y half
    out = tmp_path / "audit.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    if argv[:len(AUDIT_LAPLACE)] == AUDIT_LAPLACE:
        # near:0 accepts a real pair when the noise is 0 and a flipped pair
        # when it is -+2: both rates lie within 4 sigma of the exact law
        from noisyip import rounded_laplace_pmf

        metrics = json.loads(out.read_text())["metrics"]
        for name, k in (("p_real", 0), ("p_flipped", 2)):
            p = rounded_laplace_pmf(k, 2.0)
            sigma = math.sqrt(p * (1 - p) / 20_000)
            assert abs(metrics[name]["value"] - p) <= 4 * sigma, name


@pytest.mark.parametrize("argv, digest", [
    (["ka", "--channel", "exact_open", "--n", "70", "--ell", "4", "--trials", "25000",
      "--adversary", "openbook", "--seed", "3"],
     "402df32ad33f20e9a805dfb1d8c81b27e67361a57cfcc3579a79dbd069cfdaef"),
    (["ka", "--channel", "randomized_response", "--eps", "1.0", "--n", "70",
      "--trials", "25000", "--adversary", "readout", "--seed", "3"],
     "3219fff83add18e5a8f6565090883413bb3f9c5834fdd9186e7cf54feb5a5f6e"),
    (["audit", "--channel", "exact_open", "--n", "70", "--trials", "20000", "--seed", "3"],
     "9fb5dda5497bc1e6b53ab71a5708813388435ee8c13619f53558cce8773cc07b"),
    (["audit", "--channel", "randomized_response", "--eps", "1.0", "--n", "70",
      "--trials", "20000", "--seed", "3"],
     "a795135970d5da44fbc2505f7364a024786b7e3f721b047b3255fa20a7818d84"),
    (["audit", "--channel", "exact_open", "--n", "70", "--search", "--seed", "1"],
     "5ae9a8fa095dc8deca6efde67cc4babaa811877fe5a3532c90af6f0f2712f8b7"),
], ids=["ka-openbook", "ka-rr-readout", "audit-open", "audit-rr", "audit-search"])
def test_transcript_artifacts_are_pinned(tmp_path, argv, digest):
    # the channels whose transcripts carry vectors, at n = 70: two lanes
    # and pad bits, read by the openbook adversary and the search estimator
    out = tmp_path / "artifact.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


AMPLIFY = ["amplify", "--n", "32", "--alpha", "0.25", "--trials", "20000"]
GL = ["gl", "--n", "32", "--noise", "0.2", "--runs", "10"]


@pytest.mark.parametrize("argv, digest", [
    (AMPLIFY + ["--seed", "1"],
     "632d2381f01825dbcbebc3fcc0e1509513c9add700909e5998ee51f74a75f1be"),
    (AMPLIFY + ["--seed", "5"],
     "6b9656ee56ddee7c18d85ac4bb4b73de1afbd12ed2546374bfb4b90d2eec4425"),
    (AMPLIFY + ["--seed", "7"],
     "af0526ded09c7bb276f4252dabe869c78b6bd6e6d2a839e3a92690e5028075e9"),
    (GL + ["--seed", "1"],
     "a195568df07249018e20006694af5fd097a45e0538c7a196a2ae0a9284fb1a31"),
    (GL + ["--seed", "5"],
     "ae3341b6a160d6394ff2cc8c463792d0e0d90b6aba433482271cf73db95c1605"),
    (GL + ["--seed", "7"],
     "e0b165c7444c6b3d0033c5e7f057dc7cd978087fbd24d2e584fb55d468f8c415"),
], ids=["amplify-s1", "amplify-s5", "amplify-s7", "gl-s1", "gl-s5", "gl-s7"])
def test_amplify_and_gl_artifacts_are_pinned(tmp_path, argv, digest):
    # the packed hash and mask draws of the amplifier, and the GL probes
    out = tmp_path / "artifact.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_audit_search_grid_membership(tmp_path):
    out = tmp_path / "audit.json"
    code = main([
        "audit", "--channel", "exact_open", "--n", "64", "--trials", "200",
        "--seed", "33", "--search", "--budget", "400000",
        "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    from noisyip import v_hat_grid
    import numpy as np

    grid = v_hat_grid(64, 1, 0.0)
    assert np.any(np.isclose(payload["record"]["eve_params"]["v_hat"], grid))
    # the search's own inputs, as used
    assert payload["config"]["search"] == {"ell": 1, "eps": 0.0, "budget": 400000}


def test_gl_command(capsys):
    for argv in (
        ["gl", "--n", "32", "--noise", "0.0", "--runs", "4", "--seed", "37"],
        # the GL runs amplify --seed 29 used to embed drew from seed 29 + 2
        ["gl", "--n", "24", "--noise", "0.2", "--runs", "3", "--seed", "31"],
    ):
        code, out = run_cli(argv, capsys)
        assert code == 0
        assert json.loads(out)["metrics"]["recovery_rate"]["value"] == 1.0


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 16, "ell": 2, "trials": 300, "seed": 41,
                               "channel": "exact"}))
    code, out = run_cli(
        ["ka", "--config", str(cfg), "--trials", "500"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["ell"] == 2
    assert payload["metrics"]["agreement"]["trials"] == 500  # flag wins


def test_config_fills_flags_that_have_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 16, "eps": 1, "channel": "laplace",
                               "adversary": "blind"}))
    base = ["ka", "--config", str(cfg), "--trials", "100", "--ell", "2"]
    code, out = run_cli(base, capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["channel"]["kind"] == "laplace"
    assert payload["config"]["adversary"] == "blind"
    code, out = run_cli(base + ["--channel", "exact"], capsys)
    assert code == 0
    assert json.loads(out)["config"]["channel"]["kind"] == "exact"  # flag wins


def test_replay_estimator(tmp_path):
    # a replay file holding the exact answers reconstructs perfectly
    import itertools

    import numpy as np

    n = 9
    z = np.array([1, -1, 1, 1, -1, -1, 1, -1, 1], dtype=np.int64)
    answers = {}
    for bits in itertools.product((1, -1), repeat=n):
        key = "".join("+" if b == 1 else "-" for b in bits)
        answers[key] = int(np.dot(z, np.array(bits)))
    replay = tmp_path / "table.json"
    replay.write_text(json.dumps({"n": n, "answers": answers}))

    # plant the same z by reusing the CLI's seed-derived database: instead,
    # check through the library so the database is under our control
    from noisyip.cli import _replay_estimator
    from noisyip.reconstruct import reconstruct_all
    from noisyip.rng import rng_from_seed

    est = _replay_estimator(str(replay), n)
    res = reconstruct_all(
        z.astype(np.int8), est, 1, 4000, rng_from_seed(3)
    )
    assert res.frac_correct == 1.0

    wrong_n = tmp_path / "bad.json"
    wrong_n.write_text(json.dumps({"n": 4, "answers": {}}))
    code = main([
        "recon", "--estimator", f"replay:{wrong_n}", "--n", "9",
        "--ell", "1", "--trials", "10", "--samples", "10", "--seed", "1",
    ])
    assert code == 2

    # a key that no query can match: too short, too long, or not +/- signs
    for key in ("+-", "+" * 10, "+-+-0+-+-", "+-+-++-+x"):
        bad_key = tmp_path / "bad_key.json"
        bad_key.write_text(json.dumps({"n": n, "answers": {**answers, key: 1}}))
        code = main([
            "recon", "--estimator", f"replay:{bad_key}", "--n", "9",
            "--ell", "1", "--trials", "10", "--samples", "10", "--seed", "1",
        ])
        assert code == 2, key


def test_openbook_requires_leaky_channel():
    code = main([
        "ka", "--channel", "exact", "--n", "16", "--ell", "2",
        "--trials", "100", "--seed", "1", "--adversary", "openbook",
    ])
    assert code == 2


def test_search_requires_leaky_channel():
    code = main([
        "audit", "--channel", "laplace", "--eps", "1.0", "--n", "16",
        "--trials", "100", "--seed", "1", "--search",
    ])
    assert code == 2


@pytest.mark.parametrize("alpha, code", [("0.0005", 0), ("0.00049", 2), ("1e-300", 2)])
def test_amplify_alpha_whose_wrapper_run_overflows_a_chunk_exits_2(tmp_path, alpha, code):
    # a wrapper run's ceil(5/alpha) rounds must fit one 10,000-round chunk;
    # alpha = 1e-300 used to ask for 5e300 rounds and exit 1 with OverflowError
    argv = ["amplify", "--n", "8", "--trials", "10", "--wrapper-runs", "1",
            "--alpha", alpha, "--out", str(tmp_path / "a.json")]
    assert main(argv) == code


def test_exit_code_invalid_config(tmp_path, capsys, monkeypatch):
    assert main(["recon", "--estimator", "bogus", "--n", "16", "--seed", "1",
                 "--samples", "10", "--trials", "10"]) == 2
    assert main(["ka", "--channel", "laplace", "--n", "16", "--seed", "1",
                 "--trials", "10"]) == 2  # missing eps
    assert main(["ka", "--channel", "exact", "--n", "16", "--seed", "1",
                 "--trials", "10", "--out", str(tmp_path / "no" / "o.json")]) == 2
    amplify = ["amplify", "--n", "8", "--trials", "10", "--seed", "1"]
    for bad in (["--alpha", "0"], ["--alpha", "1.5"], ["--alpha", "-0.2"],
                ["--wrapper-runs", "0"], ["--wrapper-runs", "-3"], ["--m", "0"]):
        assert main(amplify + bad) == 2, bad
    assert main(["gl", "--n", "8", "--runs", "0", "--seed", "1"]) == 2
    for noise in ("nan", "-0.1", "1.5"):
        assert main(["gl", "--n", "8", "--runs", "1", "--noise", noise]) == 2, noise
    for modulus in ("0", "1", "-4"):
        assert main(["condense", "--mode", "mod", "--n", "16",
                     "--modulus", modulus]) == 2, modulus
    assert main(["audit", "--channel", "laplace", "--eps", "1.0", "--n", "16",
                 "--trials", "10", "--distinguisher", "near:-1"]) == 2
    for budget in ("-5", "0"):
        assert main(["audit", "--channel", "exact_open", "--n", "64", "--search",
                     "--budget", budget]) == 2, budget

    # --search on a channel without inputs in its transcript is rejected
    # before any audit trial runs
    def no_audit(*args):
        raise AssertionError("dp_audit ran before the --search check")

    monkeypatch.setattr("noisyip.channels.dp_audit", no_audit)
    assert main(["audit", "--channel", "laplace", "--eps", "1.0", "--n", "16",
                 "--trials", "10", "--search"]) == 2


RECON = ["recon", "--estimator", "laplace", "--n", "16", "--trials", "10",
         "--samples", "10", "--seed", "1"]


@pytest.mark.parametrize("argv", [
    RECON + ["--eps", "0"],  # was a ZeroDivisionError traceback
    RECON + ["--eps", "-1"],  # was a negative Laplace scale
    RECON + ["--eps", "nan"],
    RECON,  # no eps: was a TypeError traceback from choosing ell
    ["ka", "--channel", "laplace", "--eps", "nan", "--n", "16", "--trials", "10"],
    ["audit", "--channel", "randomized_response", "--eps", "nan", "--n", "16",
     "--trials", "10"],
    ["ka", "--channel", "randomized_response", "--eps", "inf", "--n", "16",
     "--trials", "10"],  # p = nan
    # p underflows to 0: these were ZeroDivisionError tracebacks
    ["ka", "--channel", "randomized_response", "--eps", "1e-17", "--n", "4",
     "--trials", "10"],
    ["audit", "--channel", "randomized_response", "--eps", "1e-20", "--n", "4",
     "--trials", "10"],
    # a Laplace scale above 2^46: the noise wrapped in int64 and the runs
    # exited 0, audit certifying eps_hat_lower 3.1-7.6
    *[["audit", "--channel", "laplace", "--eps", eps, "--n", "8", "--seed", "3"]
      for eps in ("1e-18", "1e-19", "1e-300")],
    ["ka", "--channel", "laplace", "--eps", "1e-19", "--n", "8", "--seed", "3",
     "--trials", "2000"],
    ["audit", "--channel", "randomized_response", "--eps", "1e-15", "--n", "8",
     "--seed", "3"],
    ["ka", "--channel", "randomized_response", "--eps", "1e-15", "--n", "8",
     "--seed", "3", "--trials", "2000"],
    RECON + ["--eps", "1e-300"],
], ids=["recon-eps-0", "recon-eps-neg", "recon-eps-nan", "recon-eps-missing",
        "ka-laplace-eps-nan",
        "audit-rr-eps-nan", "ka-rr-eps-inf", "ka-rr-eps-underflow",
        "audit-rr-eps-underflow", "audit-laplace-eps-1e-18",
        "audit-laplace-eps-1e-19", "audit-laplace-eps-1e-300",
        "ka-laplace-eps-1e-19", "audit-rr-eps-1e-15", "ka-rr-eps-1e-15",
        "recon-laplace-eps-1e-300"])
def test_exit_code_bad_eps(argv, capsys):
    assert main(argv) == 2
    assert "eps" in capsys.readouterr().err


def test_smallest_laplace_eps_in_range_still_runs(capsys):
    # scale 2/eps = 2e13 is below the 2^46 bound
    code, out = run_cli(["audit", "--channel", "laplace", "--eps", "1e-13", "--n",
                         "8", "--seed", "3"], capsys)
    assert code == 0
    assert json.loads(out)["metrics"]["eps_hat_lower"]["value"] < 1


def test_exit_code_nan_eps_from_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"eps": NaN}')
    assert main(RECON + ["--config", str(cfg)]) == 2


def strict_json(text):
    """Parse ``text`` as strict JSON, which has no Infinity or NaN."""
    def reject(token):
        raise ValueError(f"non-JSON token {token}")
    return json.loads(text, parse_constant=reject)


def test_infinite_eps_means_no_noise(tmp_path, capsys):
    # documented for the Laplace channel and estimator: scale 0, exact
    code, out = run_cli(RECON + ["--eps", "inf", "--ell", "1"], capsys)
    assert code == 0
    payload = strict_json(out)
    assert payload["metrics"]["frac_correct"]["value"] == 1.0
    assert payload["config"]["eps"] == "inf"
    code, out = run_cli(["ka", "--channel", "laplace", "--eps", "inf", "--n", "16",
                         "--ell", "2", "--trials", "10"], capsys)
    assert code == 0
    assert strict_json(out)["config"]["channel"]["eps"] == "inf"
    code, out = run_cli(["ka", "--channel", "laplace", "--eps", "inf", "--n", "16",
                         "--ell", "2", "--trials", "10", "--format", "csv"], capsys)
    assert code == 0
    config_json = next(csv.reader(out.splitlines()[1:]))[7]
    assert strict_json(config_json)["channel"]["eps"] == "inf"


def test_exit_code_precondition_violation(capsys):
    # window too large for the size: ell + 2 > sqrt(n)
    code = main([
        "recon", "--estimator", "exact", "--n", "16", "--ell", "5",
        "--trials", "10", "--samples", "10", "--seed", "1",
    ])
    assert code == 3
    # the search's threshold grid steps by 1/log2(n)^3: undefined at n = 1
    # (was a ZeroDivisionError traceback, exit 1)
    code = main(["audit", "--channel", "exact_open", "--n", "1", "--trials", "10",
                 "--search", "--seed", "1"])
    assert code == 3


def test_audit_search_budget_over_one_chunk_per_evaluation_exits_2(tmp_path, capsys):
    # 10^15 used to ask 539 GiB for one gate batch and exit 1 with
    # _ArrayMemoryError; now it is refused before the search draws anything
    argv = ["audit", "--channel", "exact_open", "--n", "64", "--search",
            "--trials", "100", "--budget", "1000000000000000",
            "--out", str(tmp_path / "a.json")]
    tracemalloc.start()
    try:
        assert main(argv) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "--budget 1000000000000000" in capsys.readouterr().err
    assert peak < 2**24
    assert not (tmp_path / "a.json").exists()


@pytest.mark.parametrize("eps, code", [
    # the grid held e^(4 eps) log2(n)^3 / 4 points: 4.8e8 took 7.8 s, 2.4e10
    # (eps 5) asked for 195 GiB, and e^708 overflowed to a traceback
    ("4", 0), ("5", 0), ("6", 0), ("8", 0),
    ("10", 3),  # 1.3e19 points, over 2^53: int64 indexes of kept points wrap
    ("177", 3), ("178", 3),  # a grid size past float range
])
def test_audit_search_threshold_grid_of_any_size(tmp_path, capsys, eps, code):
    argv = ["audit", "--channel", "exact_open", "--n", "64", "--search",
            "--eps", eps, "--trials", "20", "--budget", "2000", "--seed", "1",
            "--out", str(tmp_path / "a.json")]
    assert main(argv) == code
    if code:
        assert "threshold grid" in capsys.readouterr().err


def test_the_parser_is_built_once(tmp_path):
    # a parser per main call left 531 objects as cyclic garbage, so an
    # audit's peak memory followed the garbage collector's phase
    assert build_parser() is build_parser()
    argv = ["audit", "--channel", "laplace", "--eps", "1.0", "--n", "16",
            "--trials", "200", "--seed", "3", "--out", str(tmp_path / "a.json")]
    assert main(argv) == 0
    gc.collect()
    assert main(argv) == 0
    assert gc.collect() < 200


def test_exit_code_config_value_of_wrong_type(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": "64"}))
    assert main(["ka", "--config", str(cfg), "--trials", "10"]) == 2
    assert "'n'" in capsys.readouterr().err


def test_exit_code_missing_replay_file(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main([
        "recon", "--estimator", f"replay:{missing}", "--n", "9",
        "--ell", "1", "--trials", "10", "--samples", "10", "--seed", "1",
    ]) == 2
    assert "replay file" in capsys.readouterr().err


def run_python(*args, **env):
    """A fresh interpreter that imports this checkout's noisyip, in this
    process's environment updated by ``env``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else ""), **env}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True)


_MODULES_PROBE = """
import json, sys
import noisyip
if len(sys.argv) > 1:
    from noisyip.cli import main
    assert main(json.loads(sys.argv[1])) == 0
print(json.dumps(sorted(sys.modules)))
"""


def modules_after(argv=None):
    """The names in a fresh interpreter's ``sys.modules`` after ``import
    noisyip`` and, given ``argv``, after ``noisyip.cli.main(argv)`` returned 0."""
    proc = run_python("-c", _MODULES_PROBE, *([json.dumps(argv)] if argv else []))
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_a_bare_import_loads_no_submodule_and_no_numpy():
    loaded = modules_after()
    assert "noisyip" in loaded
    assert not {m for m in loaded if m.startswith("noisyip.") or m == "numpy"}


def test_recon_imports_only_the_modules_it_runs(tmp_path):
    loaded = modules_after(["recon", "--eps", "1.0", "--n", "16", "--samples", "64",
                            "--out", str(tmp_path / "r.json")])
    assert "noisyip.reconstruct" in loaded
    assert not loaded & {"noisyip.channels", "noisyip.keyagreement", "noisyip.condense",
                         "noisyip.hashing", "noisyip.amplify", "concurrent.futures", "csv"}


def test_a_threaded_command_imports_the_pool_and_keeps_its_bytes(tmp_path):
    ka = ["ka", "--channel", "laplace", "--eps", "1.0", "--n", "64", "--ell", "8",
          "--trials", "25000", "--adversary", "blind", "--seed", "13"]
    one, two = tmp_path / "one.json", tmp_path / "two.json"
    assert main(ka + ["--threads", "1", "--out", str(one)]) == 0
    assert "concurrent.futures" in modules_after(ka + ["--threads", "2", "--out", str(two)])
    assert two.read_bytes() == one.read_bytes()


@pytest.mark.parametrize("probe, printed", [
    # the benchmark's load_library (perfbench/run.py) reads submodules of the
    # package right after importing the CLI
    ("import noisyip, noisyip.cli; print(noisyip.reconstruct.__name__, "
     "noisyip.sources.__name__, noisyip.reporting.__name__)",
     "noisyip.reconstruct noisyip.sources noisyip.reporting"),
    ("import noisyip; print(noisyip.reconstruct_all.__module__)", "noisyip.reconstruct"),
])
def test_submodules_and_names_resolve_on_first_use(probe, printed):
    proc = run_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == printed


def test_dir_lists_every_export_and_each_resolves():
    # the package binds no export itself, so the reference list is checked
    # against what __dir__ offers
    from test_exports import EXPORTS

    assert {name for name in dir(noisyip) if not name.startswith("_")
            and not isinstance(getattr(noisyip, name), types.ModuleType)} == \
        set(EXPORTS) - {"__version__"}


def test_a_usage_error_returns_2_and_help_returns_0(capsys):
    # argparse's usage errors used to raise SystemExit(2) out of main()
    assert main(["ka", "--bogus"]) == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert main(["ka", "--channel", "nope"]) == 2
    assert main(["ka", "--help"]) == 0
    assert "--adversary" in capsys.readouterr().out
    assert run_python("-m", "noisyip", "ka", "--bogus").returncode == 2


def test_blas_threads_do_not_change_bytes(tmp_path):
    # the vote kernel's column sum runs on BLAS, exact in any summation
    # order, so neither BLAS's thread count nor --threads moves the bytes
    outs = []
    for blas in ("1", "2"):
        for threads in ("1", "2"):
            out = tmp_path / f"recon{blas}{threads}.json"
            proc = run_python("-m", "noisyip", "recon", "--estimator", "laplace",
                              "--eps", "1", "--n", "256", "--samples", "4096",
                              "--seed", "7", "--threads", threads, "--out", str(out),
                              OPENBLAS_NUM_THREADS=blas)
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2] == outs[3]


# one cheap command per subcommand that runs to exit 0
CHEAP = {
    "recon": ["recon", "--estimator", "exact", "--n", "16", "--ell", "1",
              "--trials", "10", "--samples", "10"],
    "ka": ["ka", "--n", "16", "--trials", "10"],
    "condense": ["condense", "--n", "16"],
    "amplify": ["amplify", "--n", "8", "--trials", "10", "--wrapper-runs", "1"],
    "audit": ["audit", "--channel", "exact", "--n", "16", "--trials", "10"],
    "gl": ["gl", "--n", "8", "--runs", "1"],
}

# every (subcommand, flag) pair that used to be parsed and then ignored
UNREAD = [("recon", "alpha"), ("ka", "samples"), ("condense", "ell"),
          ("condense", "eps"), ("condense", "samples"), ("condense", "threads"),
          ("amplify", "ell"), ("amplify", "eps"), ("amplify", "samples"),
          ("audit", "samples"), ("gl", "ell"), ("gl", "eps"), ("gl", "alpha"),
          ("gl", "trials"), ("gl", "samples"), ("gl", "threads")]


@pytest.mark.parametrize("sub, flag", UNREAD, ids=[f"{s}-{f}" for s, f in UNREAD])
def test_a_flag_the_subcommand_does_not_read_exits_2(tmp_path, capsys, sub, flag):
    argv = CHEAP[sub] + ["--out", str(tmp_path / "out")]
    assert main(argv) == 0
    assert main(argv + [f"--{flag}", "2"]) == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag: 2}))
    assert main(argv + ["--config", str(cfg)]) == 2
    assert f"unknown config key {flag!r}" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["", "0.5,0.50", "1.0,0.1234567,0.1234568"])
def test_condense_alpha_list_names_each_alpha_once(tmp_path, alpha):
    # an empty list used to run at alpha 1, and a list naming one metric
    # twice ran both alphas and kept only the last one's metric
    argv = ["condense", "--n", "16", "--out", str(tmp_path / "out")]
    assert main(argv + [f"--alpha={alpha}"]) == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": alpha}))
    assert main(argv + ["--config", str(cfg)]) == 2


@pytest.mark.parametrize("argv, flag, value", [
    (["ka"], "z", 3),
    (["ka", "--channel", "laplace", "--eps", "1"], "z", 3),
    (["ka"], "alpha", 0.5),
    (["ka", "--channel", "randomized_response", "--eps", "1"], "alpha", 0.5),
    (["audit", "--eps", "1"], "z", 3),
    (["audit", "--channel", "exact_open"], "alpha", 0.5),
    (["audit", "--eps", "1"], "budget", 1000),
    (["audit", "--eps", "1"], "ell", 2),
])
def test_a_channel_or_search_flag_that_is_not_read_exits_2(
        tmp_path, capsys, argv, flag, value):
    argv = argv + ["--n", "16", "--trials", "10", "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    assert main(argv + [f"--{flag}", str(value)]) == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag: value}))
    assert main(argv + ["--config", str(cfg)]) == 2
    assert capsys.readouterr().err.count(f"--{flag} does not apply") == 2


CONSTANT = ["ka", "--channel", "constant", "--alpha", "0.5", "--z", "3"]


@pytest.mark.parametrize("argv, digest", [
    (CONSTANT + ["--seed", "1"],
     "528374f688e5b38c5de7b872491ee0d9871bd0338e6be99ca0466ea8d2ae6875"),
    (CONSTANT + ["--seed", "5"],
     "f9e7a71368be6a344c6d1bd64f14ad917fa3ee95ef084ae9e9cbd404df57fcbd"),
    (CONSTANT + ["--seed", "7"],
     "34665e43232d94f6328177485a4171372727d998b3892a9289dbd574c53abd9c"),
    # the constant channel's own defaults, z = 0 and alpha = 1
    (["ka", "--channel", "constant", "--seed", "1"],
     "2e358318024a67096522f0512fa6e8634b2572b57fbd5464d5bf9ae704ad7282"),
], ids=["s1", "s5", "s7", "defaults-s1"])
def test_constant_channel_artifacts_are_pinned(tmp_path, argv, digest):
    # --z and --alpha as the constant channel reads them
    out = tmp_path / "ka.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"frobnicate": 1}))
    assert main(["ka", "--config", str(cfg), "--n", "8"]) == 2


def readme_examples():
    """The command lines of the README's Examples block, continuations joined."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"^Examples:\n\n```sh\n(.*?)^```", readme, re.S | re.M).group(1)
    commands = re.sub(r"\\\n\s*", "", block).splitlines()
    return [shlex.split(line) for line in commands if line.startswith("noisyip ")]


def test_readme_examples_parse_and_merge():
    # every README example is a valid command line: it parses, and its flags
    # pass the same config merge and validation a run does (nothing is run)
    examples = readme_examples()
    assert len(examples) >= 8
    for argv in examples:
        _merge_config(build_parser().parse_args(argv[1:]))


def readme_flag_lists():
    """{subcommand: flags} from the README's per-subcommand flag list."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"^Each subcommand accepts exactly .*?\n\n(.*?)\n\n",
                      readme, re.S | re.M).group(1)
    lists = {}
    for item in block.removeprefix("- ").split("\n- "):
        name, flags = item.split(":", 1)
        lists[name.strip("`")] = set(re.findall(r"`(--[a-z-]+)", flags))
    common = lists.pop("every subcommand")
    return {name: common | flags for name, flags in lists.items()}


def test_readme_flag_lists_match_the_parser():
    parser = build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    declared = {
        name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    assert readme_flag_lists() == declared
