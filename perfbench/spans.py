"""Span recorder that times noisyip's module boundaries from outside.

``Tracer`` replaces every public function of every ``noisyip`` module (and a
fixed list of methods, private helpers and returned or passed-in callables)
with a thin wrapper that records one span per call: name, start, end, parent
span id and a row count.  Nothing inside ``src/`` is edited; the wrappers are
installed under every module attribute and module-level dict entry that holds
the original object, and all originals are put back when the ``with`` block
ends.  The wrappers draw no random numbers, so a traced run must write the
same artifact bytes as an untraced one.

Spans are kept in memory, one buffer and one span stack per thread, and are
reduced to per-name statistics by ``Tracer.summary`` after the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import pkgutil
import threading
import time
from types import ModuleType

import numpy as np

# Methods and private helpers to wrap, as (module, owner, attribute, span name).
# ``owner`` None means a module-level function.
EXTRA_TARGETS = [
    ("reconstruct", "EstimatorHandle", "query_batch", "reconstruct.estimator"),
    ("reconstruct", "EstimatorHandle", "query_packed", "reconstruct.estimator"),
    ("channels", "Channel", "sample_batch", "channels.sample_batch"),
    ("channels", "ChannelBatch", "transcript", "channels.transcript"),
    ("keyagreement", "KARoundBatch", "ka_transcript", "keyagreement.ka_transcript"),
    ("hashing", "ToeplitzHash", "hash_bits", "hashing.hash_bits"),
    ("condense", "OpenTranscriptEstimator", "query_masked", "condense.estimator"),
    ("condense", "ScalarTripletEstimator", "query_masked", "condense.estimator"),
    ("reporting", "ExperimentReport", "to_json_bytes", "reporting.serialize"),
    ("cli", None, "_save_ckpt", "cli.ckpt"),
    ("cli", None, "_build_distinguisher", "cli._build_distinguisher"),
]

# Factories whose returned callable is wrapped under the given span name.
RESULT_CALLABLES = {
    "keyagreement.blind_adversary": "keyagreement.adversary",
    "keyagreement.readout_adversary": "keyagreement.adversary",
    "keyagreement.openbook_adversary": "keyagreement.adversary",
    "cli._build_distinguisher": "channels.distinguisher",
}

# Callables passed in as arguments: span -> (parameter, position, wrapped name).
ARG_CALLABLES = {
    "amplify.gl_decode": ("oracle", 0, "amplify.gl_oracle"),
    "cli.run_chunked": ("chunk_fn", 3, "cli.chunk"),
}

# Parameters that carry the batch size when a function takes no array.
ROWS_PARAMS = ("size", "trials")


def _hook_eve(tracer, args, kwargs, result, dur):
    if result is tracer.modules["condense"].ABORT:
        tracer.count("condense.eve_aborts")


def _hook_repeat(tracer, args, kwargs, result, dur):
    tracer.count("amplify.attempts", result.attempts)
    if not result.all_failed:
        tracer.count("amplify.successes")


def _hook_ckpt(tracer, args, kwargs, result, dur):
    tracer.count("cli.ckpt.bytes", os.path.getsize(args[0]))


def _hook_chunked(tracer, args, kwargs, result, dur):
    tracer.count("cli.pool_capacity_s", kwargs.get("threads", 1) * dur)


# Per-call observations of return values and arguments, keyed by span name.
HOOKS = {
    "condense.eve_distinguisher": _hook_eve,
    "amplify.repeat_until_success": _hook_repeat,
    "cli.ckpt": _hook_ckpt,
    "cli.run_chunked": _hook_chunked,
}


def load_modules(package) -> dict[str, ModuleType]:
    """Import every submodule of ``package``; key by short name ("" = package)."""
    mods = {"": package}
    for info in pkgutil.iter_modules(package.__path__):
        if info.name != "__main__":
            mods[info.name] = importlib.import_module(f"{package.__name__}.{info.name}")
    return mods


def _rows_locator(fn):
    """(position, name) of the batch-size parameter, or (None, None)."""
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None, None
    for name in ROWS_PARAMS:
        if name in params:
            return params.index(name), name
    return None, None


def _rows(args, kwargs, pos, name) -> int:
    """Rows a call works on: its size/trials argument, else the first array's
    leading dimension (a 1-D array counts as one row)."""
    if name is not None:
        value = kwargs[name] if name in kwargs else (
            args[pos] if pos < len(args) else None
        )
        return 1 if value is None else int(value)
    for value in itertools.chain(args, kwargs.values()):
        if isinstance(value, np.ndarray):
            return int(value.shape[0]) if value.ndim >= 2 else 1
    return 0


class Tracer:
    """Install span wrappers on enter, restore the originals on exit."""

    def __init__(self, package):
        self.modules = load_modules(package)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[list] = []
        self.counters: dict[str, float] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            return self._name_ids[name]

    def _thread_state(self):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.buf = []
            with self._lock:
                self._buffers.append(local.buf)
        return stack, local.buf

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, fn, name: str):
        """Return ``fn`` wrapped so that every call records a span ``name``."""
        nid = self._name_id(name)
        rows_pos, rows_name = _rows_locator(fn)
        hook = HOOKS.get(name)
        result_name = RESULT_CALLABLES.get(name)
        arg_spec = ARG_CALLABLES.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if arg_spec is not None:
                args, kwargs = tracer._wrap_argument(args, kwargs, arg_spec)
            rows = _rows(args, kwargs, rows_pos, rows_name)
            stack, buf = tracer._thread_state()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                buf.append((sid, parent, nid, start, end, rows))
            if hook is not None:
                hook(tracer, args, kwargs, result, end - start)
            if result_name is not None:
                result = tracer.wrap(result, result_name)
            return result

        return traced

    def _wrap_argument(self, args, kwargs, spec):
        param, pos, name = spec
        if param in kwargs:
            kwargs = dict(kwargs, **{param: self.wrap(kwargs[param], name)})
        elif pos < len(args):
            args = args[:pos] + (self.wrap(args[pos], name),) + args[pos + 1 :]
        return args, kwargs

    # -- patching ----------------------------------------------------------

    def _targets(self):
        """(original, span name, owner or None) for everything to wrap."""
        seen = set()
        for short, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                    and id(obj) not in seen
                ):
                    seen.add(id(obj))
                    yield obj, f"{short}.{obj.__name__}", None
        for short, owner, attr, name in EXTRA_TARGETS:
            mod = self.modules[short]
            if owner is None:
                yield getattr(mod, attr), name, None
            else:
                cls = getattr(mod, owner)
                yield cls.__dict__[attr], name, cls

    def _set(self, container, key, value):
        if isinstance(container, dict):
            self._patches.append((container, key, container[key]))
            container[key] = value
        else:
            self._patches.append((container, key, getattr(container, key)))
            setattr(container, key, value)

    def __enter__(self):
        by_id = {}
        for obj, name, owner in self._targets():
            wrapped = self.wrap(obj, name)
            if owner is not None:
                self._set(owner, obj.__name__, wrapped)
            else:
                by_id[id(obj)] = wrapped
        # Every place a module function is looked up from: module attributes
        # (re-exports included) and module-level dicts such as dispatch tables.
        for mod in self.modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in by_id:
                    self._set(mod, attr, by_id[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in by_id:
                            self._set(value, key, by_id[id(item)])
        return self

    def __exit__(self, *exc):
        while self._patches:
            container, key, original = self._patches.pop()
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
            now = container[key] if isinstance(container, dict) else getattr(container, key)
            if now is not original:
                raise RuntimeError(f"failed to restore {key!r}")
        return False

    # -- reduction ---------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive s, self_s (s minus same-thread
        child spans) and rows; plus the counters recorded by hooks."""
        spans = sorted(itertools.chain.from_iterable(self._buffers))
        stats: dict[str, dict[str, float]] = {}
        counters = dict(self.counters)
        if spans:
            sid, parent, nid, start, end, rows = (np.array(c) for c in zip(*spans))
            if not np.array_equal(sid, np.arange(len(sid))):
                raise RuntimeError("span ids are not contiguous: a span was lost")
            dur = end - start
            has_parent = parent >= 0
            child = np.bincount(
                parent[has_parent], weights=dur[has_parent], minlength=len(sid)
            )
            self_dur = dur - child
            k = len(self.names)
            calls = np.bincount(nid, minlength=k)
            incl = np.bincount(nid, weights=dur, minlength=k)
            excl = np.bincount(nid, weights=self_dur, minlength=k)
            nrows = np.bincount(nid, weights=rows, minlength=k)
            for i, name in enumerate(self.names):
                if calls[i]:
                    stats[name] = {
                        "calls": int(calls[i]),
                        "s": float(incl[i]),
                        "self_s": float(excl[i]),
                        "rows": int(nrows[i]),
                    }
            counters["reconstruct.queries_in_bits"] = self._rows_under(
                spans, "reconstruct.estimator", "reconstruct.reconstruct_bit"
            )
        return {"spans": stats, "counters": counters}

    def _rows_under(self, spans, name: str, ancestor: str) -> int:
        """Rows of ``name`` spans that have an ``ancestor`` span above them."""
        target = self._name_ids.get(name)
        anc = self._name_ids.get(ancestor)
        total = 0
        for sid, parent, nid, _, _, rows in spans:
            if nid != target:
                continue
            while parent >= 0:
                if spans[parent][2] == anc:
                    total += rows
                    break
                parent = spans[parent][1]
        return total
