"""Every input a workload sends, generated from its seed before set-up.

The program receives only these arrays; nothing here is timed. All
boxes are inclusive ``[low, high]`` coordinate pairs on the 512 x 512
cube both workloads share.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

SIZE = 512
BOX_SIZE = 16          # the RPS overlay box side k
GRID = 32              # no adhoc box is aligned to this grid on every edge
POISON_EVERY = 1000
POISON_X = 10 * SIZE   # an x the schema's encoder rejects


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(stream)])


def base_cube(seed: int, dtype) -> np.ndarray:
    return _rng(seed, 0).integers(0, 100, (SIZE, SIZE)).astype(dtype)


def unaligned_pages(
    seed: int, stream: int, pages: int, boxes: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(pages, boxes, 2)`` lows/highs: uniform boxes, no two equal,
    none aligned to the rollup grid on every edge."""
    rng = _rng(seed, stream)
    need = pages * boxes
    draw = need + need // 8 + 64
    while True:
        a = rng.integers(0, SIZE, (draw, 2))
        b = rng.integers(0, SIZE, (draw, 2))
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        aligned = ((lo % GRID == 0) & ((hi + 1) % GRID == 0)).all(axis=1)
        lo, hi = lo[~aligned], hi[~aligned]
        keys = ((lo[:, 0] * SIZE + lo[:, 1]) * SIZE + hi[:, 0]) * SIZE + hi[:, 1]
        _, first = np.unique(keys, return_index=True)
        if len(first) >= need:
            break
        draw *= 2
    keep = np.sort(first)[:need]
    shape = (pages, boxes, 2)
    return lo[keep].reshape(shape), hi[keep].reshape(shape)


def write_groups(
    seed: int, count: int, cells: int
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """``count`` update groups of ``cells`` (cell, nonzero int delta)."""
    rng = _rng(seed, 3)
    groups = []
    for _ in range(count):
        idx = rng.integers(0, SIZE, (cells, 2))
        deltas = rng.integers(1, 10, cells) * rng.choice([-1, 1], cells)
        groups.append((idx.astype(np.int64), deltas.astype(np.int64)))
    return groups


def fact_stream(seed: int, rows: int) -> Tuple[dict, np.ndarray]:
    """Columnar fact rows ``{x, y, sales}``; every POISON_EVERY-th row
    carries an x outside the cube. Returns the columns and the poison
    offsets."""
    rng = _rng(seed, 4)
    x = rng.integers(0, SIZE, rows)
    y = rng.integers(0, SIZE, rows)
    sales = rng.integers(1, 100, rows).astype(np.float64)
    poison = np.arange(POISON_EVERY - 1, rows, POISON_EVERY)
    x[poison] = POISON_X
    return {"x": x, "y": y, "sales": sales}, poison
