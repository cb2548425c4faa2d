"""Parity oracle for :class:`repro.groute.router.GlobalRouter`.

The per-edge router the production one replaced, kept for tests only:
tuple-keyed dict Dijkstra, and every cost a ``GCellGrid.edge_cost``
call.  The one change from that router: its maze reads the configured
``overflow_penalty`` like its pattern stage does (the old maze used the
grid default of 8.0, so the two agree at the default penalty).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.groute.router import (
    GlobalRouteResult,
    GridPoint,
    RouterConfig,
    SegmentKey,
    SegmentRoute,
)
from repro.routegrid.grid import GCellGrid
from repro.steiner.forest import SteinerForest


class ReferenceGlobalRouter:
    """The dict / ``edge_cost`` router that the flat-field router replaced."""

    def __init__(self, grid: GCellGrid, config: Optional[RouterConfig] = None) -> None:
        self.grid = grid
        self.config = config or RouterConfig()

    # ------------------------------------------------------------------
    def route(self, forest: SteinerForest, budget=None) -> GlobalRouteResult:
        """Route every tree edge; returns the committed result.

        ``budget`` (a :class:`repro.runtime.Budget`) makes the router
        cooperative: once it expires, remaining segments take their
        cheapest pattern route (no maze search) and the rip-up
        negotiation rounds stop, so the caller always gets a complete —
        if congestion-degraded — routing flagged ``timed_out=True``.
        """
        self.grid.reset_usage()
        timed_out = False
        jobs: List[Tuple[SegmentKey, int, GridPoint, GridPoint, float, float]] = []
        for t_idx, tree in enumerate(forest.trees):
            xy = tree.node_xy()
            for e_idx, (u, v) in enumerate(tree.edges):
                p1 = self.grid.locate(xy[u][0], xy[u][1])
                p2 = self.grid.locate(xy[v][0], xy[v][1])
                dx = abs(float(xy[u][0] - xy[v][0]))
                dy = abs(float(xy[u][1] - xy[v][1]))
                jobs.append(((t_idx, e_idx), tree.net_index, p1, p2, dx, dy))

        # Long segments first: they need contiguous corridors, short
        # ones fit in the gaps (standard global-routing ordering).
        jobs.sort(key=lambda j: -(abs(j[2][0] - j[3][0]) + abs(j[2][1] - j[3][1])))

        segments: Dict[SegmentKey, SegmentRoute] = {}
        deltas: Dict[SegmentKey, Tuple[float, float]] = {}
        maze_count = 0
        for job_idx, (key, net_index, p1, p2, dx, dy) in enumerate(jobs):
            if not timed_out and budget is not None and job_idx % 64 == 0 and budget.expired():
                timed_out = True
            if timed_out:
                # Degraded completion: cheapest pattern, no maze search.
                path, _ = self._best_pattern(p1, p2) if p1 != p2 else ([p1], 0.0)
                used_maze = False
            else:
                path, used_maze = self._route_segment(p1, p2)
            if used_maze:
                maze_count += 1
            self._commit(path)
            deltas[key] = (dx, dy)
            segments[key] = self._measure(key, net_index, p1, p2, dx, dy, path)

        # Negotiation rounds: rip up segments crossing overflowed edges.
        for _ in range(self.config.ripup_rounds):
            if self.grid.overflow() <= 0:
                break
            if budget is not None and budget.expired():
                timed_out = True
                break
            self.grid.bump_history(self.config.history_increment)
            victims = [k for k, s in segments.items() if self._crosses_overflow(s.path)]
            for key in victims:
                seg = segments[key]
                self._uncommit(seg.path)
                path, _ = self._route_segment(seg.path[0], seg.path[-1], force_maze=True)
                maze_count += 1
                self._commit(path)
                dx, dy = deltas[key]
                segments[key] = self._measure(
                    key, seg.net_index, path[0], path[-1], dx, dy, path
                )

        total_wl = sum(s.length for s in segments.values())
        return GlobalRouteResult(
            segments=segments,
            overflow=self.grid.overflow(),
            max_utilization=self.grid.max_utilization(),
            total_wirelength=total_wl,
            maze_routed=maze_count,
            timed_out=timed_out,
        )

    # ------------------------------------------------------------------
    # Per-segment routing
    # ------------------------------------------------------------------
    def _route_segment(
        self, p1: GridPoint, p2: GridPoint, force_maze: bool = False
    ) -> Tuple[List[GridPoint], bool]:
        if p1 == p2:
            return [p1], False
        if force_maze:
            return self._maze(p1, p2), True
        best_path, best_cost = self._best_pattern(p1, p2)
        n_edges = max(len(best_path) - 1, 1)
        if best_cost / n_edges > self.config.congestion_threshold:
            return self._maze(p1, p2), True
        return best_path, False

    def _best_pattern(self, p1: GridPoint, p2: GridPoint) -> Tuple[List[GridPoint], float]:
        candidates: List[List[GridPoint]] = []
        x1, y1 = p1
        x2, y2 = p2
        if x1 == x2 or y1 == y2:
            candidates.append(self._straight(p1, p2))
        else:
            candidates.append(self._l_shape(p1, p2, corner=(x2, y1)))
            candidates.append(self._l_shape(p1, p2, corner=(x1, y2)))
            for mid in self._z_midpoints(p1, p2):
                candidates.append(self._z_shape(p1, p2, mid))
        best_path: List[GridPoint] = candidates[0]
        best_cost = self._path_cost(candidates[0])
        for path in candidates[1:]:
            cost = self._path_cost(path)
            if cost < best_cost:
                best_cost = cost
                best_path = path
        return best_path, best_cost

    def _z_midpoints(self, p1: GridPoint, p2: GridPoint) -> List[int]:
        """Intermediate x-coordinates for HVH Z-shapes."""
        x1, x2 = sorted((p1[0], p2[0]))
        if x2 - x1 < 2:
            return []
        k = min(self.config.zshape_candidates, x2 - x1 - 1)
        return list(np.linspace(x1 + 1, x2 - 1, k).astype(int))

    @staticmethod
    def _straight(p1: GridPoint, p2: GridPoint) -> List[GridPoint]:
        pts = [p1]
        x, y = p1
        sx = int(np.sign(p2[0] - x))
        sy = int(np.sign(p2[1] - y))
        while (x, y) != p2:
            x += sx
            y += sy
            pts.append((x, y))
        return pts

    def _l_shape(self, p1: GridPoint, p2: GridPoint, corner: GridPoint) -> List[GridPoint]:
        leg1 = self._straight(p1, corner)
        leg2 = self._straight(corner, p2)
        return leg1 + leg2[1:]

    def _z_shape(self, p1: GridPoint, p2: GridPoint, mid_x: int) -> List[GridPoint]:
        c1 = (mid_x, p1[1])
        c2 = (mid_x, p2[1])
        part1 = self._straight(p1, c1)
        part2 = self._straight(c1, c2)
        part3 = self._straight(c2, p2)
        return part1 + part2[1:] + part3[1:]

    def _path_cost(self, path: List[GridPoint]) -> float:
        cost = 0.0
        for (x1, y1), (x2, y2) in zip(path, path[1:]):
            if y1 == y2:
                cost += self.grid.edge_cost("H", min(x1, x2), y1, self.config.overflow_penalty)
            else:
                cost += self.grid.edge_cost("V", x1, min(y1, y2), self.config.overflow_penalty)
        return cost

    def _maze(self, p1: GridPoint, p2: GridPoint) -> List[GridPoint]:
        """Dijkstra on the GCell graph with congestion costs."""
        grid = self.grid
        penalty = self.config.overflow_penalty
        dist: Dict[GridPoint, float] = {p1: 0.0}
        prev: Dict[GridPoint, GridPoint] = {}
        heap: List[Tuple[float, GridPoint]] = [(0.0, p1)]
        visited = set()
        while heap:
            d, node = heapq.heappop(heap)
            if node in visited:
                continue
            if node == p2:
                break
            visited.add(node)
            x, y = node
            neighbours = []
            if x + 1 < grid.nx:
                neighbours.append(((x + 1, y), grid.edge_cost("H", x, y, penalty)))
            if x - 1 >= 0:
                neighbours.append(((x - 1, y), grid.edge_cost("H", x - 1, y, penalty)))
            if y + 1 < grid.ny:
                neighbours.append(((x, y + 1), grid.edge_cost("V", x, y, penalty)))
            if y - 1 >= 0:
                neighbours.append(((x, y - 1), grid.edge_cost("V", x, y - 1, penalty)))
            for nxt, cost in neighbours:
                nd = d + cost
                if nd < dist.get(nxt, np.inf):
                    dist[nxt] = nd
                    prev[nxt] = node
                    heapq.heappush(heap, (nd, nxt))
        if p2 not in prev and p1 != p2:
            # Unreachable should not happen on a full grid; fall back.
            return self._l_shape(p1, p2, corner=(p2[0], p1[1])) if p1[0] != p2[0] and p1[1] != p2[1] else self._straight(p1, p2)
        path = [p2]
        while path[-1] != p1:
            path.append(prev[path[-1]])
        return list(reversed(path))

    # ------------------------------------------------------------------
    # Usage bookkeeping
    # ------------------------------------------------------------------
    def _commit(self, path: List[GridPoint], amount: float = 1.0) -> None:
        for (x1, y1), (x2, y2) in zip(path, path[1:]):
            if y1 == y2:
                self.grid.add_usage("H", min(x1, x2), y1, amount)
            else:
                self.grid.add_usage("V", x1, min(y1, y2), amount)

    def _uncommit(self, path: List[GridPoint]) -> None:
        self._commit(path, amount=-1.0)

    def _crosses_overflow(self, path: List[GridPoint]) -> bool:
        for (x1, y1), (x2, y2) in zip(path, path[1:]):
            if y1 == y2:
                i = min(x1, x2)
                if self.grid.use_h[i, y1] > self.grid.cap_h[i, y1]:
                    return True
            else:
                j = min(y1, y2)
                if self.grid.use_v[x1, j] > self.grid.cap_v[x1, j]:
                    return True
        return False

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def _measure(
        self,
        key: SegmentKey,
        net_index: int,
        p1: GridPoint,
        p2: GridPoint,
        direct_dx: float,
        direct_dy: float,
        path: List[GridPoint],
    ) -> SegmentRoute:
        """Convert a grid path into physical wire lengths and bends.

        Physical length = the direct Manhattan deltas plus one GCell per
        grid-level detour step beyond the minimum, split by direction.
        """
        h_edges = sum(1 for (x1, y1), (x2, y2) in zip(path, path[1:]) if y1 == y2)
        v_edges = len(path) - 1 - h_edges
        min_h = abs(p1[0] - p2[0])
        min_v = abs(p1[1] - p2[1])
        g = self.grid.gcell
        h_len = direct_dx + max(h_edges - min_h, 0) * g
        v_len = direct_dy + max(v_edges - min_v, 0) * g
        bends = 0
        for a, b, c in zip(path, path[1:], path[2:]):
            turn_1 = (b[0] - a[0], b[1] - a[1])
            turn_2 = (c[0] - b[0], c[1] - b[1])
            if turn_1 != turn_2:
                bends += 1
        if direct_dx > 0 and direct_dy > 0 and bends == 0:
            bends = 1  # sub-GCell L still bends once physically
        return SegmentRoute(
            key=key,
            net_index=net_index,
            h_length=h_len,
            v_length=v_len,
            bends=bends,
            path=path,
        )
