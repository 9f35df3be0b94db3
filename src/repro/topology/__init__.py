"""Network topology substrate.

* :mod:`repro.topology.butterfly_fattree` — the paper's butterfly fat-tree
  (Figure 2) with adaptive up/down routing;
* :mod:`repro.topology.hypercube` — binary hypercube with e-cube routing
  (hosts the Draper–Ghosh baseline);
* :mod:`repro.topology.kary_ncube` — unidirectional k-ary n-cube (hosts the
  Dally baseline);
* :mod:`repro.topology.properties` — closed-form and graph-based distance
  and structure properties;
* :mod:`repro.topology.base` — the :class:`SimTopology` protocol consumed by
  the simulators.
"""

from .base import DOWN, UP, LinkClass, RouteOptions, SimTopology
from .butterfly_fattree import ButterflyFatTree, bft_nca_level
from .generalized_fattree import GeneralizedFatTree, generalized_nca_level
from .hypercube import Hypercube
from .kary_ncube import KaryNCube
from .properties import (
    average_distance_by_enumeration,
    bft_average_distance,
    bft_distance_distribution,
    hypercube_average_distance,
    kary_ncube_average_distance,
    to_networkx,
)

__all__ = [
    "DOWN",
    "UP",
    "LinkClass",
    "RouteOptions",
    "SimTopology",
    "ButterflyFatTree",
    "bft_nca_level",
    "GeneralizedFatTree",
    "generalized_nca_level",
    "Hypercube",
    "KaryNCube",
    "average_distance_by_enumeration",
    "bft_average_distance",
    "bft_distance_distribution",
    "hypercube_average_distance",
    "kary_ncube_average_distance",
    "to_networkx",
]
