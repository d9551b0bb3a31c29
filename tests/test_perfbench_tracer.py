"""The benchmark's span tracer (perfbench/spans.py) still fits the package.

The tracer looks methods, private helpers and factories up by name, so a
rename in ``src/`` would break the benchmark's per-layer metrics without any
other test noticing.
"""

import inspect
import sys
from pathlib import Path

import noisyip
import noisyip.cli

# import the tracer as committed, without leaving a bytecode cache beside it
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
import spans  # noqa: E402

sys.dont_write_bytecode = _write_bytecode


def named_targets():
    """(module, owner or None, attribute) of every target the tracer names."""
    targets = [(short, owner, attr) for short, owner, attr, _ in spans.EXTRA_TARGETS]
    for name in spans.RESULT_CALLABLES:
        short, attr = name.split(".")
        targets.append((short, None, attr))
    return targets


def lookup(tracer, short, owner, attr):
    mod = tracer.modules[short]
    return getattr(mod, attr) if owner is None else getattr(mod, owner).__dict__[attr]


def test_tracer_installs_and_restores_every_named_target():
    tracer = spans.Tracer(noisyip)
    before = {t: lookup(tracer, *t) for t in named_targets()}
    with tracer:
        for target, original in before.items():
            assert lookup(tracer, *target) is not original, target
    for target, original in before.items():
        assert lookup(tracer, *target) is original, target


def test_argument_callables_name_real_parameters():
    # the tracer wraps the callable passed at this position or by this name
    tracer = spans.Tracer(noisyip)
    for name, (param, position, _) in spans.ARG_CALLABLES.items():
        short, attr = name.split(".")
        params = list(inspect.signature(lookup(tracer, short, None, attr)).parameters)
        assert params[position] == param, name
    assert spans.ARG_CALLABLES["amplify.gl_decode"][:2] == ("oracle", 0)
    assert spans.ARG_CALLABLES["cli.run_chunked"][:2] == ("chunk_fn", 3)
    # its pool-capacity hook reads the worker count from the keywords
    assert "threads" in inspect.signature(noisyip.cli.run_chunked).parameters


def test_traced_runs_write_untraced_bytes(tmp_path):
    ka = ["ka", "--channel", "laplace", "--eps", "1.0", "--n", "64", "--ell", "4",
          "--trials", "25000", "--adversary", "blind", "--threads", "2",
          "--seed", "3"]
    audit = ["audit", "--channel", "laplace", "--eps", "1.0", "--n", "16",
             "--trials", "500", "--seed", "3"]
    search = ["audit", "--channel", "exact_open", "--n", "64", "--search",
              "--budget", "20000", "--seed", "3"]
    gl = ["gl", "--n", "24", "--noise", "0.2", "--runs", "3", "--seed", "31"]
    for k, argv in enumerate((ka, audit, search, gl)):
        plain, traced = tmp_path / f"plain{k}.json", tmp_path / f"traced{k}.json"
        assert noisyip.cli.main(argv + ["--out", str(plain)]) == 0
        tracer = spans.Tracer(noisyip)
        with tracer:
            assert noisyip.cli.main(argv + ["--out", str(traced)]) == 0
        assert traced.read_bytes() == plain.read_bytes(), argv[0]
        stats = tracer.summary()["spans"]
        if argv is ka:
            # one adversary call per chunk of rounds, never one per round
            assert stats["cli.chunk"]["calls"] == 3
            assert stats["keyagreement.adversary"]["calls"] == 3
            assert stats["keyagreement.run_ka_rounds"]["rows"] == 25000
            assert "keyagreement.ka_transcript" not in stats
            # a checkpoint after every chunk but the last, seen as cli.ckpt
            assert stats["cli.ckpt"]["calls"] == 2
        elif argv is audit:
            # the real pairs and the flipped pairs, one call each
            assert stats["channels.distinguisher"]["calls"] == 2
            assert "channels.transcript" not in stats
        elif argv is gl:
            # per decode: 24 vote calls of 2^11 - 1 probes, one check call
            # of 2,048 fresh probes
            assert stats["amplify.gl_oracle"]["calls"] == 3 * 25
            assert stats["amplify.gl_oracle"]["rows"] == 3 * (24 * 2047 + 2048)
        else:
            # per (triplet, side) of 48 triplets: one gate call and one
            # reconstruction call per firing flip pattern (at most two),
            # however many of the 72 parameter triples read them
            assert stats["condense.estimator"]["calls"] <= 2 * 48 * 3
