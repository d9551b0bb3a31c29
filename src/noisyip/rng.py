"""Seeded, splittable random number generation.

Every sampling operation in this package takes an explicit
``numpy.random.Generator``.  We standardize on the Philox bit generator
(counter based, so streams derived from distinct spawn keys never collide)
and derive independent child streams with ``SeedSequence.spawn``.  Given the
same seed, every operation is deterministic.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor

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


def map_streams(fn, rng: Generator, count: int, threads: int = 1, skip=()):
    """Yield ``fn(c, stream_c)`` in order for each chunk c in ``range(count)``
    not in ``skip``, where stream_c is ``spawn_rngs(rng, count)[c]``.  Streams
    are spawned as their chunk is submitted and a few chunks per thread are in
    flight, so neither memory nor start-up time grows with ``count``."""
    seq = rng.bit_generator.seed_seq
    spawned = ((c, seq.spawn(1)[0]) for c in range(count))  # skipped ones too
    todo = ((c, Generator(np.random.Philox(s))) for c, s in spawned if c not in skip)
    if threads <= 1:
        yield from (fn(c, stream) for c, stream in todo)
        return
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


def sum_chunks(fn, rng: Generator, total: int, rows: int, threads: int = 1):
    """Elementwise int64 sum of ``fn(stream_c, size_c)`` over the chunks of
    ``total`` trials, ``rows`` per chunk (the last one smaller), each drawing
    from its own stream of :func:`map_streams`.  Integer sums do not depend
    on chunk order, so neither does the result on ``threads``."""
    if total < 1:
        raise ValueError(f"need at least one trial, got {total}")

    def chunk(c: int, stream: Generator) -> np.ndarray:
        return np.asarray(fn(stream, min(rows, total - c * rows)), dtype=np.int64)

    return sum(map_streams(chunk, rng, -(-total // rows), threads), np.int64(0))


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
