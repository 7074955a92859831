"""Per-node routing state: which back-end ranks lie behind which link.

"a child node object represents a connection directly to an end-point
or to another internal process through which at least one end-point in
the set can ultimately be reached" (paper §2.3).  The
:class:`RoutingTable` is built from the upstream endpoint reports of
§2.5 and answers the downstream fan-out question: given a stream's
endpoint set, which child links must a packet be copied to?

Many-stream scaling (ROADMAP item 2, SDN-group-table style): tools run
thousands of streams over a handful of *communicators*, so the table
interns endpoint sets into :class:`CommGroup` objects and caches each
group's route list against a table-wide **epoch** that bumps on every
topology mutation (endpoint report, link loss, graceful leave).  N
streams over the same group share one ``links_for`` computation per
epoch instead of paying one intersection scan each; repair/join/leave
invalidate the cache implicitly by bumping the epoch.  A maintained
rank→link reverse index makes :meth:`RoutingTable.link_of` O(1).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Union

__all__ = ["CommGroup", "RoutingTable"]


class CommGroup:
    """An interned communicator endpoint set with cached routes.

    One ``CommGroup`` exists per distinct endpoint set per
    :class:`RoutingTable`; every stream over the same communicator
    shares it.  The cached route list is stamped with the table epoch
    it was computed under and recomputed lazily on the first lookup
    after a topology change — stale groups cost nothing until used.
    """

    __slots__ = ("endpoints", "_routes", "_routes_epoch")

    def __init__(self, endpoints: Iterable[int]):
        self.endpoints: FrozenSet[int] = frozenset(endpoints)
        self._routes: Optional[List[int]] = None
        self._routes_epoch: int = -1

    def __len__(self) -> int:
        return len(self.endpoints)

    def __repr__(self) -> str:
        return f"CommGroup({sorted(self.endpoints)})"


class RoutingTable:
    """Maps child link ids to the set of back-end ranks they reach."""

    def __init__(self):
        self._reach: Dict[int, Set[int]] = {}
        # rank -> link carrying it (O(1) link_of; last report wins,
        # matching the scan order semantics it replaces closely enough
        # for a tree where each rank lives behind exactly one link).
        self._rank_link: Dict[int, int] = {}
        # Interned endpoint sets (communicators) with cached routes.
        self._groups: Dict[FrozenSet[int], CommGroup] = {}
        #: Topology mutation counter.  Bumps whenever a reach set
        #: actually changes; group route caches key off it.
        self.epoch: int = 0

    # -- mutation (each bump invalidates every cached route) ---------------

    def add_report(self, link_id: int, ranks: Iterable[int]) -> None:
        """Record (or extend) the ranks reachable through *link_id*."""
        reach = self._reach.setdefault(link_id, set())
        added = False
        for rank in ranks:
            if rank not in reach:
                reach.add(rank)
                added = True
            self._rank_link[rank] = link_id
        if added:
            self.epoch += 1

    def remove_link(self, link_id: int) -> Set[int]:
        """Forget a link (closed child); returns the ranks it reached."""
        ranks = self._reach.pop(link_id, set())
        for rank in ranks:
            if self._rank_link.get(rank) == link_id:
                del self._rank_link[rank]
        if ranks:
            self.epoch += 1
        return ranks

    def remove_rank(self, rank: int) -> None:
        """Forget one back-end rank everywhere (graceful leave).

        The link itself survives — other ranks may still be reachable
        through it; an empty reach set just stops attracting fan-out.
        """
        known = False
        for ranks in self._reach.values():
            if rank in ranks:
                ranks.discard(rank)
                known = True
        self._rank_link.pop(rank, None)
        if known:
            self.epoch += 1

    def remove_ranks(self, link_id: int, ranks: Iterable[int]) -> None:
        """Forget *ranks* behind *link_id* only (a loss reported up it)."""
        reach = self._reach.get(link_id)
        gone = reach.intersection(ranks) if reach else ()
        for rank in gone:
            reach.discard(rank)
            if self._rank_link.get(rank) == link_id:
                del self._rank_link[rank]
        if gone:
            self.epoch += 1

    # -- group interning + cached lookup -----------------------------------

    def group(self, endpoints: Union[FrozenSet[int], Set[int], Iterable[int]]) -> CommGroup:
        """Intern *endpoints* into this table's shared :class:`CommGroup`."""
        key = endpoints if isinstance(endpoints, frozenset) else frozenset(endpoints)
        grp = self._groups.get(key)
        if grp is None:
            grp = self._groups[key] = CommGroup(key)
        return grp

    def links_for_group(self, group: CommGroup) -> List[int]:
        """Cached route list for an interned group (do not mutate).

        Valid until the next table mutation; callers that keep the
        list across epochs must copy it.
        """
        if group._routes_epoch != self.epoch:
            group._routes = self._compute_links(group.endpoints)
            group._routes_epoch = self.epoch
        return group._routes

    def links_for(self, endpoints: Union[FrozenSet[int], Set[int]]) -> List[int]:
        """Child links whose reachable set intersects *endpoints*.

        Links are ordered by the smallest rank they reach, so stream
        child lists — and therefore wave order in synchronization
        filters and concatenation output — follow back-end rank order
        regardless of the order endpoint reports happened to arrive.

        The result is served from the interned group's epoch cache and
        copied, so callers may mutate it freely.
        """
        return list(self.links_for_group(self.group(endpoints)))

    def _compute_links(self, endpoints: FrozenSet[int]) -> List[int]:
        """The uncached intersection scan (reference semantics)."""
        hits = [
            (min(ranks & endpoints), link)
            for link, ranks in self._reach.items()
            if ranks & endpoints
        ]
        return [link for _, link in sorted(hits)]

    # -- queries -------------------------------------------------------------

    def ranks_behind(self, link_id: int) -> Set[int]:
        return set(self._reach.get(link_id, ()))

    def all_ranks(self) -> Set[int]:
        out: Set[int] = set()
        for ranks in self._reach.values():
            out |= ranks
        return out

    def link_of(self, rank: int) -> int:
        """The child link leading to *rank* (raises if unknown)."""
        try:
            return self._rank_link[rank]
        except KeyError:
            raise KeyError(f"no route to back-end rank {rank}") from None

    @property
    def links(self) -> List[int]:
        return list(self._reach)

    def __len__(self) -> int:
        return len(self._reach)

    def __repr__(self) -> str:
        return f"RoutingTable({ {l: sorted(r) for l, r in self._reach.items()} })"
