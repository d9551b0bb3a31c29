"""noisyip benchmark: README CLI commands driven in-process, closed loop.

    python3 perfbench/run.py --workload recon --seed 1 --seconds 27 --trace 0

One caller runs the workload's commands through ``noisyip.cli.main(argv)``,
each command starting when the previous one has returned, for as many whole
invocations as fit in ``--seconds`` (at least one).  Every invocation of a
run uses the same command seeds, derived from ``--seed``, so every artifact
of a run must be byte-identical; the first is checked against exact laws
(``checks.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced invocations (``spans.py``), requires their artifacts to
be byte-identical and prints the per-layer metrics.  The last stdout line is
the JSON result; the line before it records the environment, the artifact
hashes and the per-span summary.  See README.md in this directory.
"""

import os

# One BLAS thread per worker thread, so workers x BLAS threads <= nproc; set
# before numpy is first imported.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from layers import per_layer_metrics, quartiles  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The README's example commands; flags are fixed, seeds come from --seed.
WORKLOADS = {
    "recon": [
        ["recon", "--estimator", "laplace", "--eps", "1.0", "--n", "256",
         "--samples", "65536", "--threads", "1"],
    ],
    "ka": [
        ["ka", "--channel", "laplace", "--eps", "1.0", "--n", "1024", "--ell", "8",
         "--trials", "100000", "--adversary", "blind", "--threads", "2"],
    ],
    "amplify": [
        ["amplify", "--n", "32", "--alpha", "0.25", "--trials", "200000"],
    ],
    "audit": [
        ["audit", "--channel", "laplace", "--eps", "1.0", "--n", "64",
         "--trials", "200000"],
        ["audit", "--channel", "exact_open", "--n", "64", "--search"],
    ],
}

SETUP_PROBES = 5

# Child process for setup_s: import the CLI, build an argv, signal readiness.
PROBE = (
    "import sys; sys.path.insert(0, {src!r}); import noisyip.cli; "
    "argv = {argv!r} + ['--seed', '1']; sys.stdout.write('ready\\n'); "
    "sys.stdout.flush()"
)

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "frac_correct": "fraction"}


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad arguments)."""


def load_library():
    """Import noisyip from this checkout's src/, never from elsewhere."""
    if not (SRC / "noisyip" / "__init__.py").is_file():
        raise BenchError(f"no noisyip sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import noisyip
    import noisyip.cli

    if Path(noisyip.__file__).resolve().parent != SRC / "noisyip":
        raise BenchError(f"imported noisyip from {noisyip.__file__}, not {SRC}")
    return SimpleNamespace(
        package=noisyip,
        cli=noisyip.cli,
        reconstruct=noisyip.reconstruct,
        sources=noisyip.sources,
        reporting=noisyip.reporting,
    )


def command_seed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % 2**31


def command_argvs(workload: str, seed: int) -> list[list[str]]:
    return [
        argv + ["--seed", str(command_seed(workload, seed, k))]
        for k, argv in enumerate(WORKLOADS[workload])
    ]


def invoke(lib, argvs, tmp: Path):
    """Run every command once; return (wall seconds, artifacts, failures).

    Only the ``cli.main`` calls are timed.  Each ``--out`` (and the
    ``.ckpt`` beside it) lives in ``tmp``.  Failures are (command index,
    message) pairs.
    """
    wall = 0.0
    artifacts, failures = [], []
    for k, argv in enumerate(argvs):
        out = tmp / f"cmd{k}.json"
        out.unlink(missing_ok=True)
        err = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                code = lib.cli.main(argv + ["--out", str(out)])
        except (Exception, SystemExit):  # a crash fails the command, not the run
            code = "by exception"
            err.write(traceback.format_exc())
        wall += time.perf_counter() - start
        if code != 0 or not out.is_file():
            msg = f"{argv[0]} exited {code}: {err.getvalue().strip()[-500:]}"
            failures.append((k, msg))
            artifacts.append(None)
        else:
            artifacts.append(out.read_bytes())
    return wall, artifacts, failures


def check_invocation(lib, artifacts, reference):
    """(command index, message) for each artifact that differs from the
    run's reference invocation or, in the reference itself, breaks a law."""
    failures = []
    for k, data in enumerate(artifacts):
        if data is None:
            continue
        if reference is not None:
            if data != reference[k]:
                failures.append((k, "artifact differs within the run"))
            continue
        failures += [(k, f) for f in checks.check_artifact(json.loads(data), lib)]
    return failures


def measure_setup(workload: str) -> list[float]:
    """Wall seconds from spawning a fresh interpreter until it has imported
    noisyip.cli and built the workload's argv, over several processes."""
    code = PROBE.format(src=str(SRC), argv=WORKLOADS[workload][0])
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, cwd=ROOT
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != b"ready":
                raise BenchError("setup probe failed to import noisyip.cli")
        times.append(elapsed)
    return times


def _openblas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return None
    for path in sorted(p for p in paths if ".so" in p):
        try:
            blas = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(blas, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment(workload: str, seed: int, argvs) -> dict:
    cpu_model = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu_model = next(
            (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
            None,
        )
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
    blas_cfg = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    workers = max(int(a[a.index("--threads") + 1]) if "--threads" in a else 1
                  for a in argvs)
    blas_threads = _openblas_threads()
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {
            "name": blas_cfg.get("name"),
            "version": blas_cfg.get("version"),
            "env": {var: os.environ.get(var) for var in BLAS_ENV},
            "threads": blas_threads,
        },
        "worker_threads": workers,
        "threads_within_nproc": workers * (blas_threads or 1) <= nproc,
        "git_commit": commit,
        "workload": workload,
        "seed": seed,
        "command_seeds": [int(a[a.index("--seed") + 1]) for a in argvs],
    }


def quartile_spread(values):
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def time_for_another(walls, deadline) -> bool:
    """Whether one more invocation, as long as the median so far, ends by
    the deadline; so a run never measures past --seconds after the first."""
    return time.perf_counter() + statistics.median(walls) <= deadline


def run_end_to_end(lib, args, argvs, tmp):
    setup = measure_setup(args.workload)
    walls, failures, reference = [], [], None
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        wall, artifacts, bad = invoke(lib, argvs, tmp)
        bad += check_invocation(lib, artifacts, reference)
        attempted += len(argvs)
        failed += len({k for k, _ in bad})
        failures += [f"command {k}: {msg}" for k, msg in bad]
        walls.append(wall)
        if reference is None:
            reference = artifacts
        if not time_for_another(walls, deadline):
            break
    reports = [json.loads(a) for a in reference if a is not None]
    values = {
        "run_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "frac_correct": checks.frac_correct(reports) if len(reports) == len(argvs) else 0.0,
    }
    detail = {
        "run_s": quartile_spread(walls),
        "run_s_samples": walls,
        "setup_s_samples": setup,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return metrics, attempted, failed, failures, reference, detail


def run_traced(lib, args, argvs, tmp):
    untraced, traced, summaries = [], [], []
    failures, reference = [], None
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        wall_u, arts_u, bad = invoke(lib, argvs, tmp)
        with Tracer(lib.package) as tracer:
            wall_t, arts_t, bad_t = invoke(lib, argvs, tmp)
        summaries.append(tracer.summary())
        del tracer  # free the raw spans before the next untraced invocation
        bad += check_invocation(lib, arts_u, reference)
        if reference is None:
            reference = arts_u
        bad_t += [
            (k, "traced artifact differs from untraced")
            for k, (a, b) in enumerate(zip(arts_u, arts_t)) if a is not None and a != b
        ]
        attempted += 2 * len(argvs)
        failed += len({k for k, _ in bad}) + len({k for k, _ in bad_t})
        failures += [f"command {k}: {msg}" for k, msg in bad]
        failures += [f"traced command {k}: {msg}" for k, msg in bad_t]
        untraced.append(wall_u)
        traced.append(wall_t)
        if not time_for_another([u + t for u, t in zip(untraced, traced)], deadline):
            break
    metrics, spread = per_layer_metrics(summaries, traced, untraced)
    detail = {
        "run_s_untraced": quartile_spread(untraced),
        "run_s_traced": quartile_spread(traced),
        "per_layer_spread": spread,
        "counts_repeat": all(v.get("repeats", True) for v in spread.values()),
        "spans": summaries[0]["spans"],
    }
    return metrics, attempted, failed, failures, reference, detail


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        lib = load_library()
    except (BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    argvs = command_argvs(args.workload, args.seed)
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench_tmp"))
    try:
        runner = run_traced if args.trace else run_end_to_end
        metrics, attempted, failed, failures, reference, detail = runner(
            lib, args, argvs, tmp
        )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            tmp.parent.rmdir()
    record = {
        "environment": environment(args.workload, args.seed, argvs),
        "commands": argvs,
        "artifact_sha256": [
            None if a is None else hashlib.sha256(a).hexdigest() for a in reference
        ],
        "failures": failures[:20],
        **detail,
    }
    print(json.dumps({"perfbench": record}, sort_keys=True))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
