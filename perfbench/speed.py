"""Machine-speed normalisation of the benchmark's timings.

The benchmark runs on a few cores of a shared host. There the speed of
single-threaded Python drifts between about 0.7x and 1.5x of its median, in
stretches of seconds. The process keeps its core all the while (its CPU time
equals its wall time), so the drift comes from other tenants sharing the
host's caches and memory, and it moves a run's mean by more than any useful
regression bound. Longer runs do not average it away. So every timing is
normalised:

* work is timed in thread CPU time, so time the process spends descheduled
  does not count;
* a fixed reference workload (``reference``) runs between units of work,
  whenever ``PROBE_EVERY_S`` of CPU time has gone by since the last probe;
* each unit's time is multiplied by ``REFERENCE_S / r``, where ``r`` is the
  mean time of the two probes around the unit.

A normalised time is thus the time the work would take on a machine that
runs the reference in ``REFERENCE_S``. The reference is a Yen-style
k-shortest-path search on a fixed grid. It is written here and shares no
code with modroute, so a change to modroute moves normalised times as it
moves raw ones, while drift moves the work and the reference alike. Over
the 2-second stretches of a 60-second run on a 2-vCPU machine, this cut
the spread of the work's speed from 0.12-0.18 (standard deviation over
median) to 0.02-0.05.
"""

from __future__ import annotations

import heapq
import random
from array import array
from time import thread_time as clock

# CPU time of work between two probes, and the reference's time at the
# nominal speed: about its median on the 2-vCPU machine the README names.
PROBE_EVERY_S = 0.1
REFERENCE_S = 0.005

_SIDE = 7
_rng = random.Random(7)
_ADJ: dict[tuple[int, int], dict[tuple[int, int], int]] = {
    (x, y): {} for x in range(_SIDE) for y in range(_SIDE)
}
for (_x, _y), _out in _ADJ.items():
    for _v in ((_x + 1, _y), (_x, _y + 1)):
        if _v in _ADJ:
            _out[_v] = _ADJ[_v][(_x, _y)] = _rng.randint(1, 9)
_NODES = list(_ADJ)
_PAIRS = [(_NODES[i], _NODES[-1 - i]) for i in range(2)]


def _shortest(src, dst, banned_edges=frozenset(), banned_nodes=frozenset()):
    dist = {src: 0}
    prev = {}
    heap = [(0, src)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u == dst:
            break
        if u in done:
            continue
        done.add(u)
        for v, c in _ADJ[u].items():
            if v in banned_nodes or (u, v) in banned_edges:
                continue
            if d + c < dist.get(v, 1 << 60):
                dist[v] = d + c
                prev[v] = u
                heapq.heappush(heap, (d + c, v))
    if dst not in dist:
        return None
    path = [dst]
    while path[-1] != src:
        path.append(prev[path[-1]])
    path.reverse()
    return dist[dst], path


def _k_shortest(src, dst, k):
    found = [_shortest(src, dst)]
    seen = {tuple(found[0][1])}
    candidates: list = []
    while len(found) < k:
        path = found[-1][1]
        for i in range(len(path) - 1):
            root = path[:i + 1]
            root_cost = sum(_ADJ[root[j]][root[j + 1]] for j in range(i))
            cut = {(p[i], p[i + 1]) for _, p in found if p[:i + 1] == root}
            cut |= {(b, a) for a, b in cut}
            spur = _shortest(root[-1], dst, frozenset(cut), frozenset(root[:-1]))
            if spur:
                full = tuple(root[:-1] + spur[1])
                if full not in seen:
                    seen.add(full)
                    heapq.heappush(candidates, (root_cost + spur[0], full))
        if not candidates:
            break
        cost, full = heapq.heappop(candidates)
        found.append((cost, list(full)))
    return found


def reference() -> list:
    """The fixed reference workload: 4 shortest paths between two node pairs."""
    return [_k_shortest(src, dst, 4) for src, dst in _PAIRS]


class SpeedMeter:
    """Records units of work and steps, probing the machine's speed between units.

    A unit belongs to the segment between the probes before and after it;
    a step belongs to the unit it runs in. ``normalise=False`` gives a meter
    that never probes and scales by 1. Traced runs use it, because a probe
    inside a layer function's span would count as that layer's time.
    """

    def __init__(self, normalise: bool = True) -> None:
        self.normalise = normalise
        self.probe_s = array("d")
        self.probing_s = 0.0
        self.unit_s, self.unit_seg = array("d"), array("l")
        self.step_s, self.step_seg = array("d"), array("l")
        self._since_probe = 0.0
        if normalise:
            self.probe()

    @property
    def segment(self) -> int:
        return max(len(self.probe_s) - 1, 0)

    def probe(self) -> None:
        t0 = clock()
        reference()
        seconds = clock() - t0
        self.probe_s.append(seconds)
        self.probing_s += seconds
        self._since_probe = 0.0

    def add_unit(self, seconds: float) -> None:
        """Record a unit of work, then probe if enough work has gone by."""
        self.unit_s.append(seconds)
        self.unit_seg.append(self.segment)
        self._since_probe += seconds
        if self.normalise and self._since_probe >= PROBE_EVERY_S:
            self.probe()

    def add_step(self, seconds: float) -> None:
        self.step_s.append(seconds)
        self.step_seg.append(self.segment)

    def close(self) -> tuple[list[float], list[float]]:
        """Normalised (unit times, step times); ends the last segment with a probe."""
        if not self.normalise:
            return list(self.unit_s), list(self.step_s)
        if self._since_probe > 0 or len(self.probe_s) < 2:
            self.probe()
        p = self.probe_s
        factor = [2 * REFERENCE_S / (p[i] + p[i + 1]) for i in range(len(p) - 1)]
        return ([s * factor[g] for s, g in zip(self.unit_s, self.unit_seg)],
                [s * factor[g] for s, g in zip(self.step_s, self.step_seg)])
