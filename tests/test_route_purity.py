"""Routing answers are pure functions of their arguments.

The simulators memoize ``route_options(node, dst)`` and
``injection_options(src)`` per run (:mod:`repro.simulation.routes`), and
the flow tracers of :mod:`repro.traffic.flows` memoize ``route_options``
per trace.  That is sound only while every :class:`~repro.topology.base.SimTopology` answers
the same question the same way whatever it was asked before.  This checks
it for every registered design family, nominal and behind a
:class:`~repro.faults.FaultedTopology`: a random batch of questions is
asked forwards and then backwards, and each answer (or the error it
raised) must repeat.  A family registered later fails
:func:`test_every_family_is_covered` until it has an entry here.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.design.families import available_families, design_family
from repro.errors import ReproError
from repro.faults import FaultedTopology, FaultSpec

#: Small parameter assignments per registered family.
FAMILY_PARAMS = {
    "bft": ({"processors": 16}, {"processors": 64}),
    "generalized-fattree": (
        {"children": 2, "parents": 2, "levels": 3},
        {"children": 4, "parents": 3, "levels": 2},
    ),
    "hypercube": ({"dimension": 4},),
    "kary-ncube": ({"radix": 3, "dimensions": 2}, {"radix": 4, "dimensions": 2}),
}
NETWORKS = [(family, params) for family, grid in FAMILY_PARAMS.items() for params in grid]


def test_every_family_is_covered():
    assert sorted(FAMILY_PARAMS) == available_families()


def _answer(ask, *args):
    try:
        return ask(*args)
    except ReproError as exc:
        return type(exc), str(exc)


def _check_repeats(topology, data) -> None:
    n = topology.num_processors
    switches = sorted({d for d in topology.link_dst if d >= n})
    pes = st.integers(0, n - 1)
    questions = data.draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("inject"), pes),
                st.tuples(st.just("route"), st.sampled_from(switches), pes),
            ),
            min_size=1,
            max_size=40,
        )
    )

    def ask(question):
        if question[0] == "inject":
            return _answer(topology.injection_options, question[1])
        return _answer(topology.route_options, *question[1:])

    first = [ask(q) for q in questions]
    again = [ask(q) for q in reversed(questions)][::-1]
    assert again == first


@pytest.mark.parametrize("family,params", NETWORKS, ids=str)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_routing_answers_repeat(family, params, data):
    _check_repeats(design_family(family).topology(params), data)


@pytest.mark.parametrize("family,params", NETWORKS, ids=str)
@settings(max_examples=25, deadline=None)
@given(data=st.data(), failures=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_faulted_routing_answers_repeat(family, params, data, failures, seed):
    base = design_family(family).topology(params)
    try:
        topology = FaultedTopology(
            base, FaultSpec(random_link_failures=failures, seed=seed)
        )
    except ReproError:
        return  # the draw left fewer than two live terminals
    _check_repeats(topology, data)
