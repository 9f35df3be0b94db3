"""Dally-style k-ary n-cube model (baseline).

Dally's analysis (IEEE Trans. Computers 39(6), 1990) is the canonical prior
wormhole model the paper cites: unidirectional k-ary n-cubes, deterministic
(e-cube) routing, with the expected contention delay evaluated per physical
channel.  Its defining simplification — the one Draper & Ghosh and the
fat-tree paper later lift — is that the *service time used for contention
is the message length itself*: waits suffered downstream do not inflate the
service time seen upstream.  The model is therefore optimistic at high load
but simple and stable all the way to unit channel utilization.

Concretely, for uniform traffic on the unidirectional torus:

* every physical network channel carries ``lambda_c = lambda_0 (k-1)/2``
  messages per cycle (the average ring distance is ``(k-1)/2``);
* each of the ``D`` network hops of a message charges the M/G/1
  (deterministic-service) wait ``W = lambda_c L^2 / (2 (1 - lambda_c L))``
  with ``L`` the message length in flits;
* the ejection channel charges the equivalent wait at rate ``lambda_0``;
* latency is ``W_inj + sum of hop waits + D_bar + L - 1``.

A note on simulation of this network: wormhole routing on *rings* is
deadlock-prone without virtual channels (Dally & Seitz 1987); Dally's
networks use two virtual channels per link ("datelines") to break the
cycle.  Our simulators implement no virtual channels — the butterfly
fat-tree needs none, which is one of its advantages — so simulator
validation of this baseline is restricted to low loads where cyclic waits
are rare (see ``tests/test_baselines.py``); at higher loads torus runs
report censored messages, which is the physically correct outcome.
"""

from __future__ import annotations

import numpy as np

from ..config import Workload
from ..core.batch import as_injection_rates
from ..core.variants import ModelVariant
from ..errors import ConfigurationError
from ..queueing.distributions import ScvMode, scv_for_mode_batch
from ..queueing.mg1 import mg1_waiting_time_batch
from ..topology.properties import kary_ncube_average_distance

__all__ = ["DallyKaryNCubeModel"]


class DallyKaryNCubeModel:
    """Analytical latency model of a unidirectional k-ary n-cube.

    Parameters
    ----------
    radix, dimensions:
        Network shape (``N = radix**dimensions``).
    scv_mode:
        Service-variability assumption for the per-hop waits; Dally's
        fixed-length messages imply the deterministic default.
    """

    def __init__(
        self,
        radix: int,
        dimensions: int,
        *,
        scv_mode: ScvMode = ScvMode.DETERMINISTIC,
    ) -> None:
        if not isinstance(radix, int) or radix < 2:
            raise ConfigurationError(f"radix must be an integer >= 2, got {radix!r}")
        if not isinstance(dimensions, int) or dimensions < 1:
            raise ConfigurationError(
                f"dimensions must be a positive integer, got {dimensions!r}"
            )
        self.radix = radix
        self.dimensions = dimensions
        self.num_processors = radix**dimensions
        self.scv_mode = scv_mode
        #: The model's position in the ablation vocabulary: no multi-server
        #: pooling, no blocking correction (the facade's ``baseline`` label).
        self.variant = ModelVariant(
            label="dally",
            multiserver_up=False,
            blocking_correction=False,
            scv_mode=scv_mode,
        )
        #: Average path length including injection and ejection channels.
        self.average_distance = kary_ncube_average_distance(radix, dimensions)
        #: Average number of *network* hops (excludes injection/ejection).
        self.network_hops = self.average_distance - 2.0

    # --- internals ----------------------------------------------------------------

    def channel_rate(self, injection_rate: float) -> float:
        """Per-channel message rate ``lambda_0 * (k-1)/2`` under uniform traffic."""
        if injection_rate < 0:
            raise ConfigurationError("injection_rate must be >= 0")
        return injection_rate * (self.radix - 1) / 2.0

    def _hop_wait_batch(self, rates: np.ndarray, message_flits: int) -> np.ndarray:
        service = float(message_flits)
        scv = scv_for_mode_batch(self.scv_mode, np.full_like(rates, service), message_flits)
        return mg1_waiting_time_batch(rates, service, scv)

    # --- public API ------------------------------------------------------------------

    def latency_batch(self, loads, message_flits: int) -> np.ndarray:
        """Average latency over a vector of injection rates in one NumPy pass.

        ``loads`` are injection rates ``lambda_0`` (messages/cycle/PE);
        entry ``k`` equals ``latency(Workload(message_flits, loads[k]))``.
        Saturated points (``lambda_c * L >= 1``, the classic wormhole
        capacity bound) hold ``inf``.
        """
        if not isinstance(message_flits, int) or message_flits <= 0:
            raise ConfigurationError("message_flits must be a positive integer")
        inj = as_injection_rates(loads)
        lam_c = inj * (self.radix - 1) / 2.0
        w_hop = self._hop_wait_batch(lam_c, message_flits)
        w_terminal = self._hop_wait_batch(inj, message_flits)
        # Same operation order as the historical scalar evaluation (eject
        # and inject waits added separately), so recorded values are stable.
        contention = self.network_hops * w_hop + w_terminal + w_terminal
        latency = contention + self.average_distance + message_flits - 1.0
        return np.where(np.isfinite(contention), latency, np.inf)

    def stability_batch(self, loads, message_flits: int) -> np.ndarray:
        """Vectorized capacity test (one bool per injection rate)."""
        if not isinstance(message_flits, int) or message_flits <= 0:
            raise ConfigurationError("message_flits must be a positive integer")
        inj = as_injection_rates(loads)
        return np.maximum(inj * (self.radix - 1) / 2.0, inj) * message_flits < 1.0

    def latency(self, workload: Workload) -> float:
        """Average message latency in cycles (``inf`` past saturation).

        Thin wrapper over a one-point :meth:`latency_batch` (the batch pass
        is the reference implementation, so the facade's ``model`` and
        ``batch`` backends agree bit-for-bit on this family too).
        """
        return float(
            self.latency_batch(
                np.array([workload.injection_rate]), workload.message_flits
            )[0]
        )

    def latency_at_flit_load(self, flit_load: float, message_flits: int) -> float:
        """Latency with load expressed in flits/cycle/PE."""
        return self.latency(Workload.from_flit_load(flit_load, message_flits))

    def is_stable(self, workload: Workload) -> bool:
        """Channel and terminal utilizations all below one."""
        lam_c = self.channel_rate(workload.injection_rate)
        flits = workload.message_flits
        return max(lam_c, workload.injection_rate) * flits < 1.0

    def zero_load_latency(self, message_flits: int) -> float:
        """Contention-free limit ``L + D_bar - 1``."""
        return float(message_flits) + self.average_distance - 1.0

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"DallyKaryNCubeModel(k={self.radix}, n={self.dimensions}, "
            f"N={self.num_processors})"
        )
