"""The numpy oracle every answer is checked against, after the clock stops.

:class:`StampOracle` replays the write stream the benchmark itself sent
and answers a box at any stamp the program may legally return:

* a single service stamps a read with its snapshot version, the number
  of update groups folded in;
* a cluster stamps it ``(epoch, v_0, ..., v_{S-1})``, one version per
  shard, where shard ``s`` counts only the groups that touched its slab.

A stamp outside what was written (a version above the groups sent, a
wrong epoch, the wrong arity) is forged, and every box of that read is
wrong. A read sent after a flush returned must also carry a stamp at
or above that flush (``floor``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: prefix tables kept at once (each is a full (n+1) x (m+1) copy)
TABLE_CACHE = 8


def prefix_table(state: np.ndarray) -> np.ndarray:
    table = np.zeros((state.shape[0] + 1, state.shape[1] + 1), state.dtype)
    table[1:, 1:] = state.cumsum(axis=0).cumsum(axis=1)
    return table


def box_sums(table: np.ndarray, lows: np.ndarray, highs: np.ndarray):
    l0, l1 = lows[:, 0], lows[:, 1]
    h0, h1 = highs[:, 0] + 1, highs[:, 1] + 1
    return table[h0, h1] - table[l0, h1] - table[h0, l1] + table[l0, l1]


class StampOracle:
    """Exact box sums at every stamp of one write stream.

    Args:
        base: the cube the program was built from.
        bounds: the cluster's leading-axis slabs ``[(start, end), ...]``;
            ``None`` for a single service.
        epoch: the cluster's shard-map epoch.
    """

    def __init__(self, base: np.ndarray, bounds=None, epoch: int = 0):
        self.base = base
        self.bounds = None if bounds is None else [tuple(b) for b in bounds]
        if self.bounds is not None:
            edges = [e for b in self.bounds for e in b]
            if edges[0] != 0 or edges[-1] != base.shape[0] or any(
                edges[i] != edges[i + 1] for i in range(1, len(edges) - 1, 2)
            ):
                raise ValueError(f"slabs {self.bounds} do not tile the cube")
        self.epoch = int(epoch)
        self.shards = 1 if self.bounds is None else len(self.bounds)
        self._cells: List[np.ndarray] = []
        self._deltas: List[np.ndarray] = []
        self._shard: List[np.ndarray] = []
        self._seq: List[np.ndarray] = []
        self.acks: List[Tuple[int, ...]] = []  # per-shard counts after each group
        self._tables: Dict[Tuple[int, ...], np.ndarray] = {}
        self._log = None   # concatenated update log, rebuilt on growth
        self._last = None  # (versions, state) of the last state built

    def _shard_of(self, rows: np.ndarray) -> np.ndarray:
        if self.bounds is None:
            return np.zeros(len(rows), dtype=np.int64)
        starts = np.asarray([b[0] for b in self.bounds])
        return np.searchsorted(starts, rows, side="right") - 1

    def add_group(self, cells: np.ndarray, deltas: np.ndarray) -> None:
        """Record the next group the benchmark sent (and saw acked)."""
        cells = np.asarray(cells, dtype=np.int64).reshape(-1, 2)
        shard = self._shard_of(cells[:, 0])
        before = self.acks[-1] if self.acks else (0,) * self.shards
        after = list(before)
        for s in np.unique(shard):
            after[int(s)] += 1
        self._cells.append(cells)
        self._deltas.append(np.asarray(deltas))
        self._shard.append(shard)
        self._seq.append(np.asarray(after)[shard])
        self.acks.append(tuple(after))

    def expected_ack(self, groups: int):
        """What the program must have acked after ``groups`` groups: an
        int for a service, ``{shard: seq}`` for the shards a cluster
        group touched."""
        if self.bounds is None:
            return groups
        before = self.acks[groups - 2] if groups > 1 else (0,) * self.shards
        after = self.acks[groups - 1]
        return {s: after[s] for s in range(self.shards) if after[s] != before[s]}

    def floor(self, groups: int) -> Tuple[int, ...]:
        """Per-shard versions a read must reach after ``groups`` flushed."""
        return self.acks[groups - 1] if groups else (0,) * self.shards

    def _versions(self, stamp) -> Optional[Tuple[int, ...]]:
        """Decode one stamp into per-shard versions; ``None`` if forged."""
        limit = self.acks[-1] if self.acks else (0,) * self.shards
        if self.bounds is None:
            if isinstance(stamp, bool) or not isinstance(stamp, (int, np.integer)):
                return None
            versions: Tuple[int, ...] = (int(stamp),)
        else:
            if not isinstance(stamp, (list, tuple)) or len(stamp) != self.shards + 1:
                return None
            if any(isinstance(v, bool) or not isinstance(v, (int, np.integer))
                   for v in stamp):
                return None
            if int(stamp[0]) != self.epoch:
                return None
            versions = tuple(int(v) for v in stamp[1:])
        if any(v < 0 or v > m for v, m in zip(versions, limit)):
            return None
        return versions

    def table_at(self, versions: Tuple[int, ...]) -> np.ndarray:
        table = self._tables.get(versions)
        if table is None:
            state = self._state_at(versions)
            if len(self._tables) >= TABLE_CACHE:
                # reads arrive in stamp order; a few tables suffice
                self._tables.pop(next(iter(self._tables)))
            table = self._tables[versions] = prefix_table(state)
        return table

    def _state_at(self, versions: Tuple[int, ...]) -> np.ndarray:
        """The cube at ``versions``, rolled forward from the last state
        built when that one is not ahead on any shard."""
        if self._log is None or len(self._log[0]) != sum(map(len, self._cells)):
            self._log = tuple(
                np.concatenate(part) if part else np.zeros((0, 2), np.int64)
                for part in (self._cells, self._deltas, self._shard, self._seq)
            )
            self._last = None
        cells, deltas, shard, seq = self._log
        target = np.asarray(versions)[shard] if len(shard) else np.zeros(0)
        live = seq <= target
        if self._last is not None and all(
            a <= b for a, b in zip(self._last[0], versions)
        ):
            state = self._last[1].copy()
            live &= seq > np.asarray(self._last[0])[shard]
        else:
            state = self.base.copy()
        np.add.at(state, tuple(cells[live].T), deltas[live])
        self._last = (versions, state)
        return state

    def split_stamps(self, stamp, boxes: int) -> Optional[list]:
        """One stamp per box: a read answered from one snapshot carries
        one stamp, a routed read mixing tiers carries one per box
        (``None`` if that list does not match the boxes)."""
        if self.bounds is None:
            per_box = isinstance(stamp, list)
        else:
            per_box = isinstance(stamp, list) and all(
                isinstance(s, list) for s in stamp
            )
        if not per_box:
            return [stamp] * boxes
        return list(stamp) if len(stamp) == boxes else None

    def _admissible(self, versions, floor) -> bool:
        return versions is not None and (
            floor is None or all(v >= f for v, f in zip(versions, floor))
        )

    def wrong_boxes(
        self,
        lows: np.ndarray,
        highs: np.ndarray,
        values: Sequence[float],
        stamp,
        floor: Optional[Tuple[int, ...]] = None,
    ) -> int:
        """How many boxes of one read disagree with the oracle."""
        values = np.asarray(values, dtype=np.float64)
        stamps = self.split_stamps(stamp, len(lows))
        if len(values) != len(lows) or stamps is None:
            return len(lows)
        slots: Dict[Tuple[int, ...], List[int]] = {}
        wrong = 0
        for i, box_stamp in enumerate(stamps):
            versions = self._versions(box_stamp)
            if self._admissible(versions, floor):
                slots.setdefault(versions, []).append(i)
            else:
                wrong += 1
        for versions, idx in slots.items():
            expect = box_sums(self.table_at(versions), lows[idx], highs[idx])
            wrong += int(np.count_nonzero(expect.astype(np.float64) != values[idx]))
        return wrong
