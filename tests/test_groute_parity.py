"""Bitwise parity of the flat-cost-field global router.

:class:`repro.groute.router.GlobalRouter` keeps congestion costs in
flat per-edge fields and runs its maze over flat node ids.  The router
it replaced (dict-keyed Dijkstra, one ``GCellGrid.edge_cost`` call per
edge) lives on as :class:`tests.reference_router.ReferenceGlobalRouter`;
every test here routes the same input through both and asserts the
results are identical: every ``SegmentRoute`` field, the usage and
history fields of the grid, overflow, wirelength and ``maze_routed``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.flow.pipeline import prepare_design
from repro.groute.router import GlobalRouter, RouterConfig
from repro.pdk.technology import default_technology
from repro.routegrid.grid import GCellGrid
from repro.steiner.forest import SteinerForest
from repro.steiner.tree import SteinerTree
from tests.reference_router import ReferenceGlobalRouter

_GRID_FIELDS = ("use_h", "use_v", "hist_h", "hist_v")


def _assert_routes_identical(ref, ref_grid, new, new_grid):
    assert list(new.segments) == list(ref.segments)
    for key, seg in ref.segments.items():
        assert vars(new.segments[key]) == vars(seg), key
    for name in _GRID_FIELDS:
        assert np.array_equal(getattr(new_grid, name), getattr(ref_grid, name)), name
    assert new.overflow == ref.overflow
    assert new.max_utilization == ref.max_utilization
    assert new.total_wirelength == ref.total_wirelength
    assert new.maze_routed == ref.maze_routed
    assert new.timed_out == ref.timed_out


class _ExpiringBudget:
    """Reports expiry from its ``after``-th query on (deterministic)."""

    def __init__(self, after: int) -> None:
        self.after = after
        self.calls = 0

    def expired(self) -> bool:
        self.calls += 1
        return self.calls > self.after


@pytest.mark.parametrize(
    "design, scale",
    [("spm", 1.0), ("cic_decimator", 1.0), ("APU", 1.0), ("des3", 0.5)],
)
def test_route_bitwise_equal_to_reference_router(design, scale):
    netlist, forest = prepare_design(design, scale=scale)

    def make_grid():
        return GCellGrid(netlist.die_width, netlist.die_height, netlist.technology)

    ref_grid, new_grid = make_grid(), make_grid()
    ref = ReferenceGlobalRouter(ref_grid).route(forest)
    new = GlobalRouter(new_grid).route(forest)
    _assert_routes_identical(ref, ref_grid, new, new_grid)
    if design in ("APU", "des3"):
        # The designs that exercise the maze and the rip-up rounds.
        assert new.maze_routed > 0 and new_grid.hist_h.any()


def _random_forest(draw, nx: int, ny: int, gcell: float) -> SteinerForest:
    trees = []
    coord_x = st.floats(0.0, nx * gcell, allow_nan=False)
    coord_y = st.floats(0.0, ny * gcell, allow_nan=False)
    for net in range(draw(st.integers(1, 12))):
        n_pins = draw(st.integers(2, 4))
        n_steiner = draw(st.integers(0, 1))
        xy = [(draw(coord_x), draw(coord_y)) for _ in range(n_pins + n_steiner)]
        # A chain over pins then the Steiner point: a valid tree.
        edges = [(i, i + 1) for i in range(n_pins + n_steiner - 1)]
        trees.append(
            SteinerTree(
                net_index=net,
                pin_ids=list(range(n_pins)),
                pin_xy=np.asarray(xy[:n_pins]),
                steiner_xy=np.asarray(xy[n_pins:]).reshape(-1, 2),
                edges=edges,
            )
        )
    return SteinerForest(None, trees)


@st.composite
def _routing_case(draw):
    tech = default_technology()
    g = tech.gcell_size
    shape = draw(st.sampled_from(["small", "small", "row", "column"]))
    nx = 1 if shape == "column" else draw(st.integers(2, 6))
    ny = 1 if shape == "row" else draw(st.integers(2, 6))
    forest = _random_forest(draw, nx, ny, g)
    # Scale capacities down (zero included) so the cost field crosses
    # both congestion branches and the rip-up rounds run.
    cap_scale = draw(st.sampled_from([0.0, 0.05, 0.1, 0.3, 1.0]))
    config = RouterConfig(
        overflow_penalty=draw(st.sampled_from([8.0, 0.5, 40.0])),
        zshape_candidates=draw(st.integers(0, 4)),
        congestion_threshold=draw(st.sampled_from([0.5, 1.5, 2.5])),
        ripup_rounds=draw(st.integers(0, 3)),
    )
    budget_after = draw(st.one_of(st.none(), st.integers(0, 3)))

    def make_grid():
        grid = GCellGrid(nx * g, ny * g, tech)
        grid.cap_h *= cap_scale
        grid.cap_v *= cap_scale
        return grid

    return forest, make_grid, config, budget_after


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_routing_case())
def test_route_bitwise_equal_on_small_and_1xn_grids(case):
    forest, make_grid, config, budget_after = case
    ref_grid, new_grid = make_grid(), make_grid()
    budgets = [None if budget_after is None else _ExpiringBudget(budget_after) for _ in range(2)]
    ref = ReferenceGlobalRouter(ref_grid, config).route(forest, budget=budgets[0])
    new = GlobalRouter(new_grid, config).route(forest, budget=budgets[1])
    _assert_routes_identical(ref, ref_grid, new, new_grid)


@settings(max_examples=60, deadline=None)
@given(
    nx=st.integers(1, 7),
    ny=st.integers(1, 7),
    seed=st.integers(0, 2**16),
    penalty=st.sampled_from([8.0, 2.0, 30.0]),
)
def test_maze_and_patterns_match_on_preloaded_grid(nx, ny, seed, penalty):
    """Standalone calls read usage and history written to the grid."""
    rng = np.random.default_rng(seed)
    grids = [GCellGrid(nx * 6.0, ny * 6.0, default_technology()) for _ in range(2)]
    for name in ("use_h", "use_v", "hist_h", "hist_v"):
        shape = getattr(grids[0], name).shape
        values = rng.integers(0, 40, size=shape).astype(np.float64) * (
            0.5 if name.startswith("hist") else 1.0
        )
        for grid in grids:
            getattr(grid, name)[...] = values
    config = RouterConfig(overflow_penalty=penalty)
    ref = ReferenceGlobalRouter(grids[0], config)
    new = GlobalRouter(grids[1], config)
    p1 = (int(rng.integers(nx)), int(rng.integers(ny)))
    p2 = (int(rng.integers(nx)), int(rng.integers(ny)))
    assert new._maze(p1, p2) == ref._maze(p1, p2)
    assert new._best_pattern(p1, p2) == ref._best_pattern(p1, p2)
    assert new._route_segment(p1, p2) == ref._route_segment(p1, p2)


def _edge_costs(grid, penalty):
    """Every edge's ``GCellGrid.edge_cost`` in cost-field id order."""
    h = [grid.edge_cost("H", i, j, penalty) for i, j in np.ndindex(*grid.cap_h.shape)]
    v = [grid.edge_cost("V", i, j, penalty) for i, j in np.ndindex(*grid.cap_v.shape)]
    return h + v


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    penalty=st.sampled_from([8.0, 3.0]),
    cap_scale=st.sampled_from([0.0, 0.05]),
)
def test_live_costs_equal_edge_cost_after_commits(seed, penalty, cap_scale):
    """After commits and rip-ups every live cost is ``edge_cost``."""
    rng = np.random.default_rng(seed)
    grid = GCellGrid(30.0, 24.0, default_technology())
    grid.cap_h *= cap_scale
    grid.cap_v *= cap_scale
    router = GlobalRouter(grid, RouterConfig(overflow_penalty=penalty))
    router._fields = router._live_fields()
    paths = []
    for _ in range(12):
        p1 = (int(rng.integers(grid.nx)), int(rng.integers(grid.ny)))
        p2 = (int(rng.integers(grid.nx)), int(rng.integers(grid.ny)))
        path, _ = router._route_segment(p1, p2)
        router._commit(path)
        paths.append(path)
    for path in paths[::3]:
        router._uncommit(path)
    # Inside route() the grid sees the usage after a bulk write-back.
    router._fields.write_back()
    assert router._fields.cost == _edge_costs(grid, penalty)


def test_costs_square_like_edge_cost():
    """On a zero-capacity edge with usage 5, numpy's array ``** 2``
    (a multiply) and the scalar ``pow`` of ``edge_cost`` round
    differently; the router must follow ``edge_cost``."""
    grid = GCellGrid(18.0, 6.0, default_technology())
    grid.cap_h[:] = 0.0
    grid.use_h[0, 0] = 5.0
    router = GlobalRouter(grid)
    assert router._live_fields().cost == _edge_costs(grid, 8.0)
    assert router._path_cost([(0, 0), (1, 0)]) == grid.edge_cost("H", 0, 0)


def test_fields_do_not_outlive_route():
    netlist, forest = prepare_design("spm")
    grid = GCellGrid(netlist.die_width, netlist.die_height, netlist.technology)
    router = GlobalRouter(grid)
    router.route(forest)
    assert router._fields is None
    # A write to the grid after route() is seen by a standalone maze.
    grid.use_h[:] = 0.0
    grid.use_v[:] = 0.0
    grid.hist_h[:] = 0.0
    grid.hist_v[:] = 0.0
    grid.use_h[0, 0] = grid.cap_h[0, 0] * 10
    path = router._maze((0, 0), (1, 0))
    assert path != [(0, 0), (1, 0)]


def test_non_default_penalty_steers_the_maze():
    """One cost field, one penalty: the maze detours exactly where the
    pattern cost says the detour is cheaper."""
    grid = GCellGrid(60.0, 60.0, default_technology())
    # Utilization 1.3 on one edge of row 5: the straight run pays
    # penalty * 0.09 extra there; a one-row detour pays 2 extra edges.
    grid.use_h[4, 5] = 1.3 * grid.cap_h[4, 5] - 1.0
    straight = [(x, 5) for x in range(10)]
    for penalty, detours in ((8.0, False), (100.0, True)):
        router = GlobalRouter(grid, RouterConfig(overflow_penalty=penalty))
        path = router._maze((0, 5), (9, 5))
        assert (path != straight) is detours, penalty
        assert router._path_cost(path) <= router._path_cost(straight)
        if detours:
            assert router._path_cost(path) < router._path_cost(straight)
            assert ((4, 5), (5, 5)) not in list(zip(path, path[1:]))
