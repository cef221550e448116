"""Sensor-field deployments.

The paper deploys ``N`` sensors uniformly at random over a
400 m x 400 m square with a 50 m transmission range (Section IV-B) and
models the network as the induced unit-disc graph G(V, E).  This module
builds those deployments (plus grids and d-regular graphs used by the
theoretical analysis in Section IV-A) as :class:`Topology` objects.

Scale notes: a :class:`Topology` stores coordinates as an ``(n, 2)``
float64 array and the disc-graph adjacency as CSR-style index arrays
(``indptr``/``indices``), built by the O(n * k) cell-grid search in
:mod:`repro.net.geometry` — O(n) memory end to end, where the old
dict-of-frozensets over a full distance matrix was O(n^2).  The
classic API is preserved as *views*: :attr:`positions` materialises
``Point`` objects lazily, :attr:`adjacency` materialises the
dict-of-frozensets lazily (and once materialised — e.g. because a test
edits it in place — the dict becomes authoritative and the CSR arrays
are dropped on :meth:`invalidate_caches`), and ``neighbors()`` /
``edges()`` / ``degree_histogram()`` read straight off the index
arrays.  ``version``/:meth:`invalidate_caches` semantics are unchanged.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import TopologyError
from ..rng import RngStreams
from .geometry import Point, coords_array, grid_coords, neighbor_pairs

__all__ = [
    "Topology",
    "random_deployment",
    "grid_deployment",
    "regular_topology",
    "PAPER_AREA_M",
    "PAPER_RANGE_M",
]

# Deployment constants from Section IV-B of the paper.
PAPER_AREA_M = 400.0
PAPER_RANGE_M = 50.0


def _build_csr(
    coords: np.ndarray, radio_range: float
) -> Tuple[np.ndarray, np.ndarray]:
    """CSR adjacency (``indptr``, ``indices``) of the disc graph."""
    n = coords.shape[0]
    pairs = neighbor_pairs(coords, radio_range) if n > 1 else None
    if pairs is None or pairs.size == 0:
        return (
            np.zeros(n + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
    src = np.concatenate((pairs[:, 0], pairs[:, 1]))
    dst = np.concatenate((pairs[:, 1], pairs[:, 0]))
    order = np.lexsort((dst, src))
    src = src[order]
    dst = dst[order]
    counts = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, dst


def _csr_from_dict(
    adjacency: Dict[int, FrozenSet[int]], n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """CSR arrays from an explicit adjacency dict (sorted neighbours)."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    chunks: List[np.ndarray] = []
    total = 0
    for i in range(n):
        nbrs = sorted(adjacency.get(i, ()))
        total += len(nbrs)
        indptr[i + 1] = total
        if nbrs:
            chunks.append(np.asarray(nbrs, dtype=np.int64))
    indices = (
        np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    )
    return indptr, indices


def _check_undirected(adjacency: Dict[int, FrozenSet[int]]) -> None:
    """Reject a self-loop or a link listed in one direction only.

    Radio links are symmetric: the disc model, :meth:`Topology.edges`
    and what a node hears in Phase I all assume it.
    """
    for node, nbrs in adjacency.items():
        if node in nbrs:
            raise TopologyError(f"node {node} is listed as its own neighbour")
        for nbr in nbrs:
            if node not in adjacency.get(nbr, ()):
                raise TopologyError(
                    f"link {node} -> {nbr} is listed in one direction only"
                )


class Topology:
    """An immutable snapshot of a deployed sensor field.

    Attributes
    ----------
    positions:
        Node positions indexed by node id ``0..n-1``.  By convention the
        base station, when one is placed, is node ``0``.  Materialised
        lazily from the coordinate array.
    radio_range:
        Transmission range in metres; two nodes are neighbours iff their
        distance is at most this.
    adjacency:
        Neighbour sets indexed by node id (excluding the node itself).
        Links are undirected: an explicit adjacency that lists a link in
        one direction only, or a node as its own neighbour, raises
        :class:`TopologyError`.
        Materialised lazily from the CSR arrays; once accessed it is
        kept (and an in-place edit followed by
        :meth:`invalidate_caches` makes it authoritative).
    version:
        Cache-invalidation counter.  Consumers that cache derived views
        of the adjacency (e.g. the radio's sorted neighbour lists) key
        them on this value; any code that mutates ``adjacency`` in
        place must call :meth:`invalidate_caches`.
    """

    def __init__(
        self,
        positions: Optional[Sequence[Point]] = None,
        radio_range: float = 0.0,
        adjacency: Optional[Dict[int, FrozenSet[int]]] = None,
        version: int = 0,
        *,
        coords: Optional[np.ndarray] = None,
    ):
        if radio_range <= 0:
            raise TopologyError("radio_range must be positive")
        if coords is None and positions is None:
            raise TopologyError("need positions or coords")
        self.radio_range = float(radio_range)
        self.version = int(version)
        self._positions: Optional[List[Point]] = (
            list(positions) if positions is not None else None
        )
        self._coords: Optional[np.ndarray] = (
            np.asarray(coords, dtype=float) if coords is not None else None
        )
        if self._coords is not None and self._positions is not None:
            if len(self._positions) != self._coords.shape[0]:
                raise TopologyError("positions and coords disagree on n")
        self._n = (
            self._coords.shape[0]
            if self._coords is not None
            else len(self._positions)  # type: ignore[arg-type]
        )
        self._adj_dict: Optional[Dict[int, FrozenSet[int]]] = None
        self._neighbor_sets: Dict[int, FrozenSet[int]] = {}
        self._indptr: Optional[np.ndarray] = None
        self._indices: Optional[np.ndarray] = None
        if adjacency:
            # Explicit adjacency (regular graphs, tests): the dict is
            # authoritative from the start; CSR views derive from it.
            self._adj_dict = dict(adjacency)
            _check_undirected(self._adj_dict)
            for node in range(self._n):
                # A node left out of the dict is isolated.
                self._adj_dict.setdefault(node, frozenset())
            self._indptr, self._indices = _csr_from_dict(
                self._adj_dict, self._n
            )
        else:
            self._indptr, self._indices = _build_csr(
                self.coords, self.radio_range
            )

    # ------------------------------------------------------------------
    # Lazy views
    # ------------------------------------------------------------------
    @property
    def coords(self) -> np.ndarray:
        """``(n, 2)`` float64 coordinate array (the scale-path view)."""
        if self._coords is None:
            self._coords = coords_array(self._positions or [])
        return self._coords

    @property
    def positions(self) -> List[Point]:
        """Node positions as :class:`Point` objects (classic view)."""
        if self._positions is None:
            coords = self.coords
            self._positions = [
                Point(float(x), float(y)) for x, y in coords
            ]
        return self._positions

    @property
    def adjacency(self) -> Dict[int, FrozenSet[int]]:
        """Neighbour sets as ``{node: frozenset}`` (classic view)."""
        if self._adj_dict is None:
            indptr, indices = self._indptr, self._indices
            assert indptr is not None and indices is not None
            self._adj_dict = {
                i: frozenset(indices[indptr[i] : indptr[i + 1]].tolist())
                for i in range(self._n)
            }
        return self._adj_dict

    @property
    def node_count(self) -> int:
        """Number of deployed nodes (including the base station)."""
        return self._n

    def invalidate_caches(self) -> None:
        """Bump :attr:`version` after an in-place adjacency edit.

        The materialised ``adjacency`` dict (the thing that was just
        edited) becomes the single source of truth: CSR index arrays
        and per-node neighbour-set caches derived from the pre-edit
        graph are dropped.
        """
        self.version += 1
        self._neighbor_sets.clear()
        if self._adj_dict is not None:
            self._indptr = None
            self._indices = None

    def _check_node(self, node_id: int) -> None:
        if not 0 <= node_id < self._n:
            raise TopologyError(f"unknown node id {node_id}")

    def neighbors(self, node_id: int) -> FrozenSet[int]:
        """Return the one-hop neighbour set of ``node_id``."""
        if self._adj_dict is not None:
            try:
                return self._adj_dict[node_id]
            except KeyError:
                raise TopologyError(f"unknown node id {node_id}") from None
        cached = self._neighbor_sets.get(node_id)
        if cached is not None:
            return cached
        self._check_node(node_id)
        indptr, indices = self._indptr, self._indices
        assert indptr is not None and indices is not None
        nbrs = frozenset(indices[indptr[node_id] : indptr[node_id + 1]].tolist())
        self._neighbor_sets[node_id] = nbrs
        return nbrs

    def degree(self, node_id: int) -> int:
        """Return the physical degree d_i of ``node_id``."""
        if self._indptr is not None:
            self._check_node(node_id)
            return int(self._indptr[node_id + 1] - self._indptr[node_id])
        return len(self.neighbors(node_id))

    def average_degree(self) -> float:
        """Mean physical degree over all nodes (Table I metric)."""
        if self._n == 0:
            return 0.0
        if self._indices is not None:
            return self._indices.size / self._n
        assert self._adj_dict is not None
        total = sum(len(nbrs) for nbrs in self._adj_dict.values())
        return total / self._n

    def degree_histogram(self) -> Dict[int, int]:
        """Return ``{degree: node count}``.

        Key order matches the classic implementation: first occurrence
        over node ids ``0..n-1``.
        """
        if self._indptr is not None:
            degrees = np.diff(self._indptr)
            values, first, counts = np.unique(
                degrees, return_index=True, return_counts=True
            )
            order = np.argsort(first, kind="stable")
            return {
                int(values[k]): int(counts[k]) for k in order
            }
        assert self._adj_dict is not None
        hist: Dict[int, int] = {}
        for nbrs in self._adj_dict.values():
            hist[len(nbrs)] = hist.get(len(nbrs), 0) + 1
        return hist

    def edges(self) -> List[Tuple[int, int]]:
        """Return each undirected edge once, as ``(i, j)`` with i < j."""
        if self._indptr is not None and self._indices is not None:
            degrees = np.diff(self._indptr)
            rows = np.repeat(
                np.arange(self._n, dtype=np.int64), degrees
            )
            mask = rows < self._indices
            # CSR rows are sorted, so the filtered pairs already come
            # out in lexicographic order.
            return list(
                zip(
                    rows[mask].tolist(),
                    np.asarray(self._indices)[mask].tolist(),
                )
            )
        assert self._adj_dict is not None
        out: List[Tuple[int, int]] = []
        for i, nbrs in self._adj_dict.items():
            out.extend((i, j) for j in nbrs if i < j)
        return sorted(out)

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------
    def _reachable_from(self, start: int) -> np.ndarray:
        """Visited mask of a frontier-at-a-time BFS over the CSR arrays."""
        indptr, indices = self._indptr, self._indices
        assert indptr is not None and indices is not None
        visited = np.zeros(self._n, dtype=bool)
        visited[start] = True
        frontier = np.array([start], dtype=np.int64)
        while frontier.size:
            counts = indptr[frontier + 1] - indptr[frontier]
            total = int(counts.sum())
            if total == 0:
                break
            starts = np.repeat(indptr[frontier], counts)
            local = np.arange(total) - np.repeat(
                np.cumsum(counts) - counts, counts
            )
            nbrs = np.asarray(indices)[starts + local]
            nbrs = nbrs[~visited[nbrs]]
            if nbrs.size == 0:
                break
            frontier = np.unique(nbrs)
            visited[frontier] = True
        return visited

    def is_connected(self) -> bool:
        """True iff the disc graph is a single connected component."""
        if self._n == 0:
            return True
        if self._indptr is not None:
            return bool(self._reachable_from(0).all())
        seen = {0}
        frontier = [0]
        while frontier:
            current = frontier.pop()
            for nbr in self.adjacency[current]:
                if nbr not in seen:
                    seen.add(nbr)
                    frontier.append(nbr)
        return len(seen) == self._n

    def connected_component_of(self, node_id: int) -> FrozenSet[int]:
        """Return the set of nodes reachable from ``node_id``."""
        if self._indptr is not None:
            self._check_node(node_id)
            mask = self._reachable_from(node_id)
            return frozenset(np.nonzero(mask)[0].tolist())
        seen = {node_id}
        frontier = [node_id]
        while frontier:
            current = frontier.pop()
            for nbr in self.adjacency[current]:
                if nbr not in seen:
                    seen.add(nbr)
                    frontier.append(nbr)
        return frozenset(seen)

    # ------------------------------------------------------------------
    # Dunders (the dataclass surface the classic Topology exposed)
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        return (
            self.radio_range == other.radio_range
            and self._n == other._n
            and np.array_equal(self.coords, other.coords)
            and self.adjacency == other.adjacency
        )

    def __repr__(self) -> str:
        return (
            f"Topology(nodes={self._n}, range={self.radio_range}, "
            f"version={self.version})"
        )

    def __getstate__(self) -> Dict[str, object]:
        # Lazy caches re-materialise on demand; shipping 10^5 Point
        # objects or frozensets through pickle would defeat the point
        # of the array representation.  A mutated (authoritative)
        # adjacency dict is kept.
        state = self.__dict__.copy()
        state["_neighbor_sets"] = {}
        if state.get("_indptr") is not None:
            state["_adj_dict"] = None
        if state.get("_coords") is not None:
            state["_positions"] = None
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)


def random_deployment(
    node_count: int,
    *,
    area: float = PAPER_AREA_M,
    radio_range: float = PAPER_RANGE_M,
    streams: Optional[RngStreams] = None,
    seed: int = 0,
    base_station_center: bool = True,
    require_connected: bool = False,
    max_attempts: int = 50,
) -> Topology:
    """Deploy ``node_count`` sensors uniformly over an ``area x area`` square.

    This reproduces the paper's simulation setting (Section IV-B):
    random placement over 400 m x 400 m, 50 m range.  Node 0 is the base
    station; with ``base_station_center`` it is pinned to the centre of
    the field (so both aggregation trees can root there), otherwise it is
    placed randomly like every other node.

    With ``require_connected``, re-draws the deployment until the disc
    graph is connected (up to ``max_attempts`` attempts).

    Coordinates stay in the drawn numpy array end to end (no per-node
    ``Point`` objects on this path), so a 10^5-node deployment builds
    in seconds; see the ``topology-build-*`` macro benchmarks.
    """
    if node_count < 1:
        raise TopologyError("node_count must be >= 1")
    if area <= 0:
        raise TopologyError("area must be positive")
    rng_factory = streams if streams is not None else RngStreams(seed)
    rng = rng_factory.get("deployment")

    for _attempt in range(max_attempts):
        coords = rng.uniform(0.0, area, size=(node_count, 2))
        if base_station_center:
            coords[0] = (area / 2.0, area / 2.0)
        topology = Topology(coords=coords, radio_range=radio_range)
        if not require_connected or topology.is_connected():
            return topology
    raise TopologyError(
        f"could not draw a connected deployment of {node_count} nodes "
        f"in {max_attempts} attempts (area={area}, range={radio_range})"
    )


def grid_deployment(
    rows: int,
    cols: int,
    *,
    spacing: float,
    radio_range: float = PAPER_RANGE_M,
) -> Topology:
    """Deploy nodes on a ``rows x cols`` grid with the given spacing.

    Deterministic; handy for unit tests where exact neighbourhoods
    matter.  Node 0 sits at the origin corner.
    """
    if rows < 1 or cols < 1:
        raise TopologyError("grid dimensions must be >= 1")
    if spacing <= 0:
        raise TopologyError("spacing must be positive")
    return Topology(
        coords=grid_coords(rows, cols, spacing), radio_range=radio_range
    )


def regular_topology(
    node_count: int,
    degree: int,
    *,
    streams: Optional[RngStreams] = None,
    seed: int = 0,
) -> Topology:
    """Build a random d-regular *logical* topology.

    Section IV-A of the paper analyses d-regular graphs (e.g. the
    "d-regular graph, d = 10" worked example for the coverage bound).
    A d-regular graph has no consistent planar embedding with a single
    disc radius, so we synthesise positions on a circle and override the
    adjacency explicitly; the radio range is set large enough that the
    geometric adjacency is a superset, then restricted.

    The circle layout deliberately stays on ``math.cos``/``math.sin``
    (not ``np.cos``): numpy's SIMD transcendentals are not guaranteed
    bit-identical to libm across hosts, and position-derived readings
    feed the golden-output digests.  The pairing step in networkx
    dominates at any size where vectorising the layout would matter.
    """
    if degree < 0 or degree >= node_count:
        raise TopologyError("need 0 <= degree < node_count")
    if (node_count * degree) % 2 != 0:
        raise TopologyError("node_count * degree must be even")
    rng_factory = streams if streams is not None else RngStreams(seed)
    rng = rng_factory.get("regular-topology")

    adjacency = _random_regular_adjacency(node_count, degree, rng)
    # Lay the nodes on a circle purely for visualisation / distance APIs.
    angles = np.linspace(0.0, 2.0 * math.pi, node_count, endpoint=False)
    radius = max(1.0, node_count / math.pi)
    coords = np.empty((node_count, 2), dtype=float)
    for i, a in enumerate(angles):
        coords[i, 0] = radius * math.cos(a) + radius
        coords[i, 1] = radius * math.sin(a) + radius
    return Topology(
        coords=coords,
        radio_range=4.0 * radius,
        adjacency={i: frozenset(nbrs) for i, nbrs in adjacency.items()},
    )


def _random_regular_adjacency(
    node_count: int, degree: int, rng: np.random.Generator
) -> Dict[int, set]:
    """Random d-regular simple graph via networkx's pairing algorithm."""
    import networkx as nx

    if degree == 0:
        return {i: set() for i in range(node_count)}
    try:
        graph = nx.random_regular_graph(
            degree, node_count, seed=int(rng.integers(0, 2**31))
        )
    except nx.NetworkXError as exc:
        raise TopologyError(
            f"failed to build a {degree}-regular graph on "
            f"{node_count} nodes: {exc}"
        ) from exc
    adjacency: Dict[int, set] = {i: set() for i in range(node_count)}
    for a, b in graph.edges():
        adjacency[int(a)].add(int(b))
        adjacency[int(b)].add(int(a))
    return adjacency
