"""Per-run routing memo shared by the simulators.

Every simulator asks its topology for the next hop's options once per worm
per hop.  Each ``route_options`` / ``injection_options`` in
:mod:`repro.topology` and :class:`repro.faults.FaultedTopology` is a pure
function of its arguments (property-tested in the suite), so a run can
answer repeated questions from a dict.  Only the option links are kept:
that is all the engines read.  A question that raises (a partitioned
route) is not cached and raises again when asked again.
"""

from __future__ import annotations

__all__ = ["RouteLinks", "InjectionLinks"]


class RouteLinks(dict):
    """``routes[node, dst]``: the links of ``topology.route_options(node, dst)``."""

    def __init__(self, topology) -> None:
        super().__init__()
        self._options = topology.route_options

    def __missing__(self, key: tuple[int, int]) -> tuple[int, ...]:
        links = self[key] = self._options(*key).links
        return links


class InjectionLinks(dict):
    """``injection[src]``: the links of ``topology.injection_options(src)``."""

    def __init__(self, topology) -> None:
        super().__init__()
        self._options = topology.injection_options

    def __missing__(self, src: int) -> tuple[int, ...]:
        links = self[src] = self._options(src).links
        return links
