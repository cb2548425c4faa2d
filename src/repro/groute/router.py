"""Congestion-driven global router.

Routes every two-pin segment of the Steiner forest decomposition on the
GCell grid:

1. **Pattern routing** — both L-shapes are costed; if the cheaper one
   is congested, a family of Z-shapes is tried.
2. **Maze routing** — segments that remain congested (or become
   overflowed after the first pass) are ripped up and rerouted with
   Dijkstra over congestion + history costs, the classic negotiated-
   congestion scheme.
3. **Layer assignment** — see :mod:`repro.groute.layer_assign`.

The router is deterministic: identical forests produce identical
routes, which the accept/revert loop of TSteiner depends on (noise in
the oracle would defeat the gradient signal).

Pattern costing and the maze read one flat per-edge cost field
(:class:`_CostFields`) at the configured overflow penalty.  ``route()``
builds it from the grid, reloads it after every history bump and
refreshes only the touched edges on each commit and rip-up, so every
read is bitwise what ``GCellGrid.edge_cost`` returns for the live usage.
Inside ``route()`` the usage lives only in the field; it is written
back to the grid in bulk before every grid read (overflow, history
bump) and on exit (docs/PERFORMANCE.md, "Global router").
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.groute.flat_route import _geometry_of
from repro.routegrid.grid import GCellGrid
from repro.steiner.forest import SteinerForest

GridPoint = Tuple[int, int]
SegmentKey = Tuple[int, int]  # (tree index in forest, edge index in tree)


@dataclass
class SegmentRoute:
    """Routed geometry of one tree edge."""

    key: SegmentKey
    net_index: int
    h_length: float  # um of horizontal wire
    v_length: float  # um of vertical wire
    bends: int
    path: List[GridPoint] = field(default_factory=list)
    h_layer: int = 2  # filled by layer assignment
    v_layer: int = 3
    vias: int = 0

    @property
    def length(self) -> float:
        return self.h_length + self.v_length


@dataclass
class RouterConfig:
    """Global router knobs."""

    overflow_penalty: float = 8.0
    zshape_candidates: int = 4
    congestion_threshold: float = 2.5  # pattern cost/edge above which maze kicks in
    ripup_rounds: int = 2
    history_increment: float = 0.5


@dataclass
class GlobalRouteResult:
    """All routed segments plus congestion summary."""

    segments: Dict[SegmentKey, SegmentRoute]
    overflow: float
    max_utilization: float
    total_wirelength: float
    maze_routed: int
    timed_out: bool = False  # budget expired; negotiation degraded/cut short

    def segment(self, key: SegmentKey) -> SegmentRoute:
        return self.segments[key]


def _adjacency(nx: int, ny: int, n_h: int, sv: int) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """Per-node ``(neighbour id, edge id)`` pairs in maze expansion order
    (+x, -x, +y, -y); ids as in :class:`_CostFields`."""
    adj = []
    for x in range(nx):
        for y in range(ny):
            n = x * ny + y
            out = []
            if x + 1 < nx:
                out.append((n + ny, n))
            if x - 1 >= 0:
                out.append((n - ny, n - ny))
            if y + 1 < ny:
                out.append((n + 1, n_h + x * sv + y))
            if y - 1 >= 0:
                out.append((n - 1, n_h + x * sv + y - 1))
            adj.append(tuple(out))
    return tuple(adj)


def _edge_cost(cap: float, use: float, hist: float, penalty: float) -> float:
    """:meth:`GCellGrid.edge_cost` on python floats: the same operations
    in the same order, and the same libm ``pow`` for the square (numpy's
    array ``** 2`` multiplies instead, which differs in the last bit for
    some inputs, so :func:`~repro.groute.flat_route.cost_fields` is not
    used here)."""
    util = (use + 1.0) / max(cap, 1e-9)
    cost = 1.0 + hist
    if util > 1.0:
        cost += penalty * (util - 1.0) ** 2
    elif util > 0.7:
        cost += (util - 0.7) * 2.0
    return cost


class _CostFields:
    """Congestion cost of every GCell edge, kept in step with the usage.

    Node ids are ``x * ny + y``: x-major, so ``(dist, id)`` heap keys
    order exactly like ``(dist, (x, y))``.  Horizontal edge ``(i, j)``
    has id ``i * ny + j``; vertical edge ``(i, j)`` has id
    ``n_h + i * sv + j`` with ``sv`` the row stride of ``cap_v``.

    ``cost[e]`` is bitwise ``grid.edge_cost(..., penalty)``: every
    entry comes from :func:`_edge_cost`, and :meth:`add` recomputes only
    the touched edges.  ``add`` changes only ``use``; the grid sees the
    usage after :meth:`write_back`.
    """

    def __init__(self, grid: GCellGrid, penalty: float) -> None:
        self.grid = grid
        self.penalty = penalty
        self.ny = grid.ny
        self.sv = grid.cap_v.shape[1]
        self.n_h = grid.cap_h.size
        self.use = grid.use_h.ravel().tolist() + grid.use_v.ravel().tolist()
        self.cap = grid.cap_h.ravel().tolist() + grid.cap_v.ravel().tolist()
        self.adj = _adjacency(grid.nx, grid.ny, self.n_h, self.sv)
        self.reload_history()

    def reload_history(self) -> None:
        """Read the grid's history and recompute every cost."""
        grid, penalty = self.grid, self.penalty
        self.hist = grid.hist_h.ravel().tolist() + grid.hist_v.ravel().tolist()
        self.cost = [
            _edge_cost(c, u, h, penalty) for c, u, h in zip(self.cap, self.use, self.hist)
        ]

    def edge_ids(self, path: Sequence[GridPoint]) -> List[int]:
        """Ids of the GCell edges a grid path crosses, in path order."""
        ny, sv, n_h = self.ny, self.sv, self.n_h
        return [
            (x1 if x1 < x2 else x2) * ny + y1
            if y1 == y2
            else n_h + x1 * sv + (y1 if y1 < y2 else y2)
            for (x1, y1), (x2, y2) in zip(path, path[1:])
        ]

    def add(self, ids: Sequence[int], amount: float) -> None:
        """Add ``amount`` of usage on edges ``ids`` and refresh their cost."""
        use, cost, cap, hist, penalty = self.use, self.cost, self.cap, self.hist, self.penalty
        for e in ids:
            u = use[e] + amount
            use[e] = u
            cost[e] = _edge_cost(cap[e], u, hist[e], penalty)

    def write_back(self) -> None:
        """Copy the usage into the grid's ``use_h``/``use_v``."""
        grid, n_h = self.grid, self.n_h
        grid.use_h[...] = np.reshape(self.use[:n_h], grid.use_h.shape)
        grid.use_v[...] = np.reshape(self.use[n_h:], grid.use_v.shape)


class GlobalRouter:
    """Routes a Steiner forest onto a GCell grid."""

    def __init__(self, grid: GCellGrid, config: Optional[RouterConfig] = None) -> None:
        self.grid = grid
        self.config = config or RouterConfig()
        # Live only inside route(); standalone _maze/_best_pattern calls
        # build a fresh field from the grid.
        self._fields: Optional[_CostFields] = None

    def _live_fields(self) -> _CostFields:
        if self._fields is not None:
            return self._fields
        return _CostFields(self.grid, self.config.overflow_penalty)

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
        self._fields = _CostFields(self.grid, self.config.overflow_penalty)
        try:
            return self._route(forest, budget)
        finally:
            self._fields.write_back()
            self._fields = None

    def _route(self, forest: SteinerForest, budget) -> GlobalRouteResult:
        timed_out = False
        # Endpoint GCells and direct deltas of every tree edge in tree
        # then edge order, located with GCellGrid.locate's arithmetic.
        geom = _geometry_of(forest)
        xy = geom.gather_coords(forest)
        grid = self.grid
        fields = self._fields
        gx = np.clip(xy[:, 0] / grid.gcell, 0, grid.nx - 1).astype(np.int64).tolist()
        gy = np.clip(xy[:, 1] / grid.gcell, 0, grid.ny - 1).astype(np.int64).tolist()
        xs, ys = xy[:, 0].tolist(), xy[:, 1].tolist()
        edges = [
            ((t_idx, e_idx), tree.net_index)
            for t_idx, tree in enumerate(forest.trees)
            for e_idx in range(len(tree.edges))
        ]
        jobs: List[Tuple[SegmentKey, int, GridPoint, GridPoint, float, float]] = [
            (key, net_index, (gx[u], gy[u]), (gx[v], gy[v]), abs(xs[u] - xs[v]), abs(ys[u] - ys[v]))
            for (key, net_index), u, v in zip(edges, geom.eu.tolist(), geom.ev.tolist())
        ]

        # Long segments first: they need contiguous corridors, short
        # ones fit in the gaps (standard global-routing ordering).
        jobs.sort(key=lambda j: -(abs(j[2][0] - j[3][0]) + abs(j[2][1] - j[3][1])))

        # Per job: its committed path and that path's edge ids.
        paths: List[List[GridPoint]] = []
        path_ids: List[List[int]] = []
        maze_count = 0
        for job_idx, (_, _, p1, p2, _, _) in enumerate(jobs):
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
            paths.append(path)
            path_ids.append(self._commit(path))

        # Negotiation rounds: rip up segments crossing overflowed edges.
        for _ in range(self.config.ripup_rounds):
            fields.write_back()
            if grid.overflow() <= 0:
                break
            if budget is not None and budget.expired():
                timed_out = True
                break
            grid.bump_history(self.config.history_increment)
            fields.reload_history()
            use, cap = fields.use, fields.cap
            over = {e for e in range(len(use)) if use[e] > cap[e]}
            victims = [i for i, ids in enumerate(path_ids) if not over.isdisjoint(ids)]
            for i in victims:
                fields.add(path_ids[i], -1.0)
                p1, p2 = jobs[i][2], jobs[i][3]
                path, _ = self._route_segment(p1, p2, force_maze=True)
                maze_count += 1
                paths[i] = path
                path_ids[i] = self._commit(path)

        fields.write_back()
        segments: Dict[SegmentKey, SegmentRoute] = {
            key: self._measure(key, net_index, p1, p2, dx, dy, path)
            for (key, net_index, p1, p2, dx, dy), path in zip(jobs, paths)
        }
        total_wl = sum(s.length for s in segments.values())
        return GlobalRouteResult(
            segments=segments,
            overflow=grid.overflow(),
            max_utilization=grid.max_utilization(),
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
        return np.linspace(x1 + 1, x2 - 1, k).astype(int).tolist()

    @staticmethod
    def _straight(p1: GridPoint, p2: GridPoint) -> List[GridPoint]:
        pts = [p1]
        x, y = p1
        sx = (p2[0] > x) - (p2[0] < x)
        sy = (p2[1] > y) - (p2[1] < y)
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
        fields = self._live_fields()
        field_cost = fields.cost
        cost = 0.0
        for e in fields.edge_ids(path):
            cost += field_cost[e]
        return cost

    def _maze(self, p1: GridPoint, p2: GridPoint) -> List[GridPoint]:
        """Dijkstra on the GCell graph with congestion costs.

        Flat node ids with list-backed ``dist``/``prev`` and heap keys
        ``(dist, id)``: the id order is the ``(x, y)`` tuple order, so
        pops, tie-breaks and paths are those of a tuple-keyed search.
        """
        fields = self._live_fields()
        cost, adj, ny = fields.cost, fields.adj, fields.ny
        src = p1[0] * ny + p1[1]
        dst = p2[0] * ny + p2[1]
        n = len(adj)
        dist = [float("inf")] * n
        dist[src] = 0.0
        prev = [-1] * n
        visited = bytearray(n)
        heap: List[Tuple[float, int]] = [(0.0, src)]
        pop, push = heapq.heappop, heapq.heappush
        while heap:
            d, node = pop(heap)
            if visited[node]:
                continue
            if node == dst:
                break
            visited[node] = 1
            for nxt, e in adj[node]:
                nd = d + cost[e]
                if nd < dist[nxt]:
                    dist[nxt] = nd
                    prev[nxt] = node
                    push(heap, (nd, nxt))
        if prev[dst] < 0 and src != dst:
            # Unreachable should not happen on a full grid; fall back.
            return self._l_shape(p1, p2, corner=(p2[0], p1[1])) if p1[0] != p2[0] and p1[1] != p2[1] else self._straight(p1, p2)
        ids = [dst]
        while ids[-1] != src:
            ids.append(prev[ids[-1]])
        return [divmod(node, ny) for node in reversed(ids)]

    # ------------------------------------------------------------------
    # Usage bookkeeping
    # ------------------------------------------------------------------
    def _commit(self, path: List[GridPoint], amount: float = 1.0) -> List[int]:
        """Add ``amount`` of usage along ``path``; returns its edge ids."""
        fields = self._fields
        ids = fields.edge_ids(path)
        fields.add(ids, amount)
        return ids

    def _uncommit(self, path: List[GridPoint]) -> None:
        self._commit(path, amount=-1.0)

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
