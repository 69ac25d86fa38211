"""Directed-arc tables shared by the throughput solvers.

The LP formulations (:mod:`repro.throughput.lp`) and column generation
(:mod:`repro.throughput.colgen`) operate on the same directed-arc view
of a topology: both orientations of every cable, in graph edge
order, with per-arc capacities.  :class:`ArcTable` builds that view once
— arc list, capacity vector, arc/node index maps, and numpy tail/head
index arrays for vectorized constraint assembly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np
import scipy.sparse as sp

from ..topologies.base import Topology

__all__ = ["ArcTable"]


@dataclass
class ArcTable:
    """The directed-arc expansion of a topology's cables.

    Attributes
    ----------
    arcs:
        Directed arcs ``(u, v)`` — both orientations of every cable, in
        graph edge order (the order every solver in this package has
        always used, so constraint matrices are reproducible).
    caps:
        Per-arc capacities (same order as ``arcs``).
    index:
        ``(u, v) -> arc id``.
    nodes:
        Sorted switch ids.
    node_index:
        ``switch id -> dense node index``.
    tails, heads:
        Dense node index of each arc's tail/head (numpy, for vectorized
        incidence construction).
    """

    arcs: List[Tuple[int, int]]
    caps: np.ndarray
    index: Dict[Tuple[int, int], int]
    nodes: List[int]
    node_index: Dict[int, int]
    tails: np.ndarray
    heads: np.ndarray

    @classmethod
    def from_topology(cls, topology: Topology) -> "ArcTable":
        arcs: List[Tuple[int, int]] = []
        caps: List[float] = []
        for u, v, data in topology.graph.edges(data=True):
            arcs.append((u, v))
            caps.append(data["capacity"])
            arcs.append((v, u))
            caps.append(data["capacity"])
        nodes = topology.switches
        node_index = {v: i for i, v in enumerate(nodes)}
        tails = np.fromiter(
            (node_index[u] for u, _ in arcs), dtype=np.intp, count=len(arcs)
        )
        heads = np.fromiter(
            (node_index[v] for _, v in arcs), dtype=np.intp, count=len(arcs)
        )
        return cls(
            arcs=arcs,
            caps=np.asarray(caps, dtype=float),
            index={a: i for i, a in enumerate(arcs)},
            nodes=nodes,
            node_index=node_index,
            tails=tails,
            heads=heads,
        )

    @property
    def num_arcs(self) -> int:
        return len(self.arcs)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def adjacency_lists(self) -> List[List[Tuple[int, int]]]:
        """``adj[u] -> [(v, arc_id)]`` over dense node indices."""
        adj: List[List[Tuple[int, int]]] = [[] for _ in self.nodes]
        for arc_id, (t, h) in enumerate(zip(self.tails, self.heads)):
            adj[t].append((int(h), arc_id))
        return adj

    def csr_structure(self) -> Tuple[sp.csr_matrix, np.ndarray]:
        """A CSR node×node matrix plus the arc→data-slot permutation.

        The matrix's data array is ordered by CSR canonical (row, col)
        position; ``perm`` maps each arc id to its slot, so per-arc
        weights can be refreshed in one numpy gather:
        ``matrix.data = weights[perm]``.
        """
        n = self.num_nodes
        m = self.num_arcs
        coo = sp.coo_matrix(
            (np.arange(m, dtype=float), (self.tails, self.heads)), shape=(n, n)
        )
        csr = coo.tocsr()
        order = csr.data.astype(np.intp)  # arc id stored in each slot
        perm = order
        csr.data = self.caps[perm].astype(float)
        return csr, perm
