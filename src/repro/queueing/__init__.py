"""Queueing-theory substrate.

Implements the waiting-time building blocks of the paper:

* :mod:`repro.queueing.mg1` — M/G/1 Pollaczek–Khinchine waits (Eqs. 4, 6);
* :mod:`repro.queueing.mgm` — Hokstad-style M/G/m waits (Eqs. 7, 8), with
  the general-``m`` extension mentioned in the paper's conclusion;
* :mod:`repro.queueing.distributions` — the Draper–Ghosh SCV approximation
  (Eq. 5) and its ablation alternatives;
* :mod:`repro.queueing.markovian` — exact M/M/1, M/M/c, M/D/1 references
  used to validate the approximations.
"""

from .distributions import (
    ScvMode,
    ServiceTime,
    scv_draper_ghosh,
    scv_draper_ghosh_batch,
    scv_for_mode,
    scv_for_mode_batch,
)
from .markovian import (
    erlang_c,
    erlang_c_batch,
    md1_waiting_time,
    mm1_waiting_time,
    mmc_waiting_time,
    mmc_waiting_time_batch,
)
from .mg1 import (
    mg1_utilization,
    mg1_waiting_time,
    mg1_waiting_time_batch,
    mg1_waiting_time_wormhole,
)
from .mgm import (
    hokstad_mg2_waiting_time,
    mgm_waiting_time,
    mgm_waiting_time_batch,
    mgm_waiting_time_wormhole,
)

__all__ = [
    "ScvMode",
    "ServiceTime",
    "scv_draper_ghosh",
    "scv_draper_ghosh_batch",
    "scv_for_mode",
    "scv_for_mode_batch",
    "erlang_c",
    "erlang_c_batch",
    "md1_waiting_time",
    "mm1_waiting_time",
    "mmc_waiting_time",
    "mmc_waiting_time_batch",
    "mg1_utilization",
    "mg1_waiting_time",
    "mg1_waiting_time_batch",
    "mg1_waiting_time_wormhole",
    "hokstad_mg2_waiting_time",
    "mgm_waiting_time",
    "mgm_waiting_time_batch",
    "mgm_waiting_time_wormhole",
]
