"""Seeded, splittable random number generation.

Every sampling operation in this package takes an explicit
``numpy.random.Generator``.  We standardize on the Philox bit generator
(counter based, so streams derived from distinct spawn keys never collide)
and derive independent child streams with ``SeedSequence.spawn``.  Given the
same seed, every operation is deterministic.
"""

from __future__ import annotations

import json
import os
import sys
from collections import deque

import numpy as np

Generator = np.random.Generator


def rng_from_seed(seed: int) -> Generator:
    """Build the root generator for a run from an integer seed."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def ensure_rng(rng: Generator | int | None) -> Generator:
    """Coerce an int seed (or None) into a Generator; pass Generators through."""
    if isinstance(rng, np.random.Generator):
        return rng
    if rng is None:
        raise ValueError("an explicit seed or Generator is required")
    return rng_from_seed(int(rng))


def spawn_rngs(rng: Generator, count: int) -> list[Generator]:
    """Derive `count` independent child generators from `rng`.

    Children are keyed by spawn index, so the derived streams do not depend
    on how many values were already drawn from the parent and are disjoint
    from each other and from the parent's own stream.
    """
    children = rng.bit_generator.seed_seq.spawn(count)
    return [np.random.Generator(np.random.Philox(s)) for s in children]


def map_streams(fn, rng: Generator, count: int, threads: int = 1, start: int = 0):
    """Yield ``fn(c, stream_c)`` in order for each chunk c in ``range(start,
    count)``, stream_c being ``spawn_rngs(rng, count - start)[c - start]``,
    spawned as its chunk is submitted; a few chunks per thread are in flight,
    so neither memory nor start-up time grows with ``count``."""
    seq = rng.bit_generator.seed_seq
    todo = ((c, Generator(np.random.Philox(seq.spawn(1)[0]))) for c in range(start, count))
    if threads <= 1:
        yield from (fn(c, stream) for c, stream in todo)
        return
    from concurrent.futures import ThreadPoolExecutor  # only a pool needs it
    with ThreadPoolExecutor(max_workers=threads) as pool:
        window = deque()
        for c, stream in todo:
            window.append(pool.submit(fn, c, stream))
            if len(window) == 4 * threads:
                yield window.popleft().result()
        for future in window:
            yield future.result()


# Trials per chunk in every Monte Carlo trial loop; the CLI checkpoints after
# each one, so a library rate at seed s matches the CLI's count at --seed s.
CHUNK_TRIALS = 10_000


def sum_chunks(fn, rng: Generator, total: int, rows: int, threads: int = 1,
               checkpoint: tuple[str, str] | None = None):
    """Elementwise int64 sum of ``fn(stream_c, size_c)`` over the chunks of
    ``total`` trials, ``rows`` per chunk (the last one smaller), each drawing
    from its own stream of :func:`map_streams`.  Integer sums do not depend
    on chunk order, so neither does the result on ``threads``.  A
    ``checkpoint = (path, key)`` saves the sum of the finished prefix of
    chunks after every chunk but the last, resumes from a prefix saved under
    the same key, and is removed at the end; a saved sum that proves not to
    be a vector of a chunk's length is dropped and its prefix recomputed."""
    if total < 1:
        raise ValueError(f"need at least one trial, got {total}")
    count = -(-total // rows)
    start, acc = _load_ckpt(*checkpoint, count) if checkpoint else (0, 0)
    saved = spawn_rngs(rng, start)  # the saved chunks' streams: chunk c keeps child c

    def chunk(c: int, stream: Generator) -> np.ndarray:
        return np.asarray(fn(stream, min(rows, total - c * rows)), dtype=np.int64)

    for done, part in enumerate(map_streams(chunk, rng, count, threads, start), start + 1):
        if start and np.shape(acc) != part.shape:  # a saved sum of another length
            print(f"note: ignoring checkpoint {checkpoint[0]}: it holds {np.size(acc)} "
                  f"sums, where a chunk gives {part.size}", file=sys.stderr)
            acc = sum(chunk(c, stream) for c, stream in enumerate(saved))
        acc = acc + part
        if checkpoint and done < count:
            _save_ckpt(*checkpoint, done, acc)
    if checkpoint and os.path.exists(checkpoint[0]):
        os.remove(checkpoint[0])
    return acc


def _load_ckpt(path: str, key: str, count: int):
    """(done, sums) saved under ``key``, else (0, 0), noting why on stderr."""
    try:
        with open(path) as fh:
            saved = json.load(fh)
        if saved["key"] != key:
            raise ValueError("it was written for another configuration")
        done, sums = saved.get("done"), saved.get("sums")
        if (type(done) is not int or not 1 <= done < count or type(sums) is not list
                or any(type(v) is not int or not -2**63 <= v < 2**63 for v in sums)):
            raise ValueError(f"it holds no int64 sums of 1 to {count - 1} finished chunks")
        return done, np.array(sums, dtype=np.int64)
    except FileNotFoundError:
        pass
    except (OSError, ValueError, TypeError, KeyError) as exc:
        print(f"note: ignoring checkpoint {path}: {exc}", file=sys.stderr)
    return 0, 0


def _save_ckpt(path: str, key: str, done: int, sums: np.ndarray) -> None:
    # write-then-rename, so an interrupted write never leaves a torn file
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump({"key": key, "done": done, "sums": sums.tolist()}, fh)
    os.replace(tmp, path)


_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SPLITMIX_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_M2 = np.uint64(0x94D049BB133111EB)


def _splitmix(z: np.ndarray) -> np.ndarray:
    z = z + _SPLITMIX_GAMMA
    z ^= z >> np.uint64(30)
    z *= _SPLITMIX_M1
    z ^= z >> np.uint64(27)
    z *= _SPLITMIX_M2
    return z ^ (z >> np.uint64(31))


def keyed_uniform01(lanes: np.ndarray, key: int) -> np.ndarray:
    """Per-row uniforms in [0, 1), a pure function of (key, row of lanes).

    A counter-based generator (Salmon et al., SC'11) whose counter is the
    row: each uint64 lane is folded in with a multiply and a xorshift, and
    one splitmix finalizer mixes the result.
    """
    with np.errstate(over="ignore"):
        acc = np.full(lanes.shape[0], _splitmix(np.uint64(key & (2**64 - 1))))
        for j in range(lanes.shape[1]):
            acc ^= lanes[:, j]
            acc *= _SPLITMIX_M1
            acc ^= acc >> np.uint64(29)
        acc = _splitmix(acc)
    return (acc >> np.uint64(11)).astype(np.float64) * 2.0**-53
