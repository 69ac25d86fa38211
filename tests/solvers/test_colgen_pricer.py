"""The colgen pricer's lockstep tree walk against the per-demand loop.

``_Pricer.tree_paths`` decodes every demand's shortest path from one
multi-source Dijkstra.  It walks all predecessor chains at once with
numpy; the reference below is the straightforward per-demand ``while``
loop it replaced.  Columns feed the restricted master's pool, so they
must be byte-identical: same arc-id tuples of plain ``int``, same
``None`` for unreachable pairs, same order.
"""

import random
from typing import List, Optional, Tuple

import numpy as np
import pytest
from scipy.sparse import csgraph

from repro.throughput.arcs import ArcTable
from repro.throughput.colgen import _Pricer
from repro.topologies import fattree, jellyfish, xpander


def _tree_paths_loop(pricer, lengths):
    """Reference: walk each demand's predecessor chain on its own."""
    pricer.csr.data = lengths[pricer.perm]
    dist, pred = csgraph.dijkstra(
        pricer.csr, directed=True, indices=pricer.unique_srcs,
        return_predecessors=True,
    )
    n = pricer._n
    lut = pricer.arc_lut
    out: List[Optional[Tuple[int, ...]]] = []
    for i in range(pricer.nd):
        row = pricer.inv[i]
        dcol = int(pricer.dsts[i])
        scol = int(pricer.srcs[i])
        if not np.isfinite(dist[row, dcol]):
            out.append(None)
            continue
        path: List[int] = []
        v = dcol
        while v != scol:
            u = int(pred[row, v])
            path.append(int(lut[u * n + v]))
            v = u
        path.reverse()
        out.append(tuple(path))
    return out, dist


def _instances():
    rng = random.Random(20261017)
    out = []
    for i in range(8):
        seed = rng.randint(0, 10_000)
        out.append(pytest.param(
            lambda s=seed: jellyfish(16, 4, 2, seed=s), id=f"jellyfish-{i}"
        ))
        out.append(pytest.param(
            lambda s=seed: xpander(4, 4, 2, matching="random", seed=s),
            id=f"xpander-{i}",
        ))
    out.append(pytest.param(lambda: fattree(4).topology, id="fattree-4"))
    out.append(pytest.param(lambda: fattree(6).topology, id="fattree-6"))
    return out


def _demands(topology, rng, count):
    switches = topology.switches
    demands = []
    for _ in range(count):
        s, d = rng.sample(switches, 2)
        demands.append(((s, d), rng.uniform(0.5, 3.0)))
    return demands


def _length_grid(table, rng):
    """Unit, random, and dual-like (mostly zero) arc lengths."""
    m = table.num_arcs
    yield np.ones(m)
    yield np.asarray([rng.uniform(0.1, 5.0) for _ in range(m)])
    sparse = np.zeros(m)
    for a in rng.sample(range(m), max(1, m // 5)):
        sparse[a] = rng.uniform(0.0, 1.0)
    yield sparse


def _assert_identical(pricer, lengths):
    trees = pricer.tree_paths(lengths)
    got = trees.columns
    want, want_dist = _tree_paths_loop(pricer, lengths)
    assert got == want
    for g, w in zip(got, want):
        if w is None:
            assert g is None
        else:
            assert type(g) is tuple
            assert all(type(a) is int for a in g)
    np.testing.assert_array_equal(trees.dist, want_dist)
    # The flat view the multiplicative-weights step reads agrees too.
    assert trees.arcs.tolist() == [a for col in want if col for a in col]
    assert trees.hops.tolist() == [len(col or ()) for col in want]
    return got


@pytest.mark.parametrize("build", _instances())
def test_lockstep_walk_matches_loop(build):
    topo = build()
    rng = random.Random(topo.num_switches)
    table = ArcTable.from_topology(topo)
    pricer = _Pricer(table, _demands(topo, rng, 3 * topo.num_switches))
    for lengths in _length_grid(table, rng):
        _assert_identical(pricer, lengths)


@pytest.mark.parametrize("build", _instances())
def test_lockstep_walk_matches_loop_with_unreachable_pairs(build):
    """Degrade until the graph splits: cut-off demands decode to None."""
    topo = build()
    rng = random.Random(7 * topo.num_switches)
    degraded = topo.degrade("links:fraction=0.6,seed=3")
    table = ArcTable.from_topology(degraded)
    pricer = _Pricer(table, _demands(degraded, rng, 4 * topo.num_switches))
    unreachable = 0
    for lengths in _length_grid(table, rng):
        got = _assert_identical(pricer, lengths)
        unreachable += sum(col is None for col in got)
    assert unreachable > 0


def test_self_demand_decodes_to_empty_path():
    topo = jellyfish(8, 3, 1, seed=2)
    table = ArcTable.from_topology(topo)
    s = topo.switches[0]
    pricer = _Pricer(table, [((s, s), 1.0)])
    got = _assert_identical(pricer, np.ones(table.num_arcs))
    assert got == [()]
