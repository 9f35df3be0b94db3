"""Measurement accounting shared by both simulators.

Implements the warmup / tagged-window / drain protocol described in
:class:`repro.config.SimConfig`, collects latency moments (and optionally
raw samples for percentiles), counts per-channel-class link acquisitions
inside the window (to validate the Eq. 14 rates), and accumulates per-class
busy time (to validate utilizations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..config import SimConfig, Workload
from ..errors import SimulationError
from ..topology.base import LinkClass
from ..util.stats import OnlineStats

__all__ = ["ClassStats", "SimulationResult", "MetricsCollector"]


@dataclass
class ClassStats:
    """Per-channel-class measurements.

    ``acquisitions`` counts link grants whose grant time fell inside the
    measurement window; ``links`` is the class population, so the empirical
    per-link rate is ``acquisitions / (links * window)``.  ``busy_time``
    sums holding intervals of the class's links over the whole run.
    """

    links: int = 0
    acquisitions: int = 0
    busy_time: float = 0.0

    def rate_per_link(self, window: float) -> float:
        if self.links == 0 or window <= 0:
            return math.nan
        return self.acquisitions / (self.links * window)


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one simulation run.

    Latency statistics cover *tagged* messages (generated inside the
    measurement window) that were delivered before the horizon; the
    ``censored_tagged`` count reports tagged messages still undelivered at
    the end — any non-zero value means the latency average is biased low
    and the run should be treated as unstable/saturated.
    """

    workload: Workload
    config: SimConfig
    num_pes: int
    end_time: float
    generated_total: int
    tagged_generated: int
    tagged_delivered: int
    censored_tagged: int
    delivered_in_window: int
    delivered_flits_in_window: int
    latency_mean: float
    latency_std: float
    latency_min: float
    latency_max: float
    latency_p50: float
    latency_p95: float
    short_worm_fraction: float
    class_stats: dict[str, ClassStats] = field(default_factory=dict)

    @property
    def offered_flit_rate(self) -> float:
        """Configured offered load in flits/cycle/PE."""
        return self.workload.flit_load

    @property
    def delivered_flit_rate(self) -> float:
        """Measured throughput: delivered flits/cycle/PE inside the window.

        Uses actual per-message lengths, so it remains correct under the
        variable-length traffic extension.
        """
        return self.delivered_flits_in_window / (
            self.config.measure_cycles * self.num_pes
        )

    @property
    def stable(self) -> bool:
        """Heuristic steady-state check used by the empirical saturation search.

        A run is stable when no tagged message was censored at the horizon
        and the count of messages delivered inside the window keeps up with
        the count generated inside it, allowing for Poisson counting noise
        (3-sigma cushion) so that lightly loaded runs are not misflagged.
        """
        if self.tagged_generated == 0:
            return True
        if self.censored_tagged > 0:
            return False
        expected = self.tagged_generated
        cushion = 3.0 * math.sqrt(max(expected, 1))
        return self.delivered_in_window >= 0.95 * expected - cushion

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"load={self.offered_flit_rate:.5f} fl/cyc/PE: "
            f"latency={self.latency_mean:.2f}±{self.latency_std:.2f} cyc "
            f"(n={self.tagged_delivered}, censored={self.censored_tagged}), "
            f"throughput={self.delivered_flit_rate:.5f}"
        )


class MetricsCollector:
    """Mutable accumulator driven by a simulator, frozen into a result."""

    def __init__(
        self,
        workload: Workload,
        config: SimConfig,
        num_pes: int,
        link_classes: list[LinkClass],
        *,
        keep_samples: bool = True,
    ) -> None:
        self.workload = workload
        self.config = config
        self.num_pes = num_pes
        self.keep_samples = keep_samples
        self.generated_total = 0
        self.tagged_generated = 0
        self.tagged_delivered = 0
        self.delivered_in_window = 0
        self.delivered_flits_in_window = 0
        self.short_worms = 0
        self.delivered_total = 0
        self._stats = OnlineStats()
        self._samples: list[float] = []
        # channel-class bookkeeping
        self._class_names: list[str] = []
        self._class_index: dict[LinkClass, int] = {}
        for cls in link_classes:
            if cls not in self._class_index:
                self._class_index[cls] = len(self._class_names)
                self._class_names.append(str(cls))
        #: Class index of every link.
        self.link_class_id = [self._class_index[cls] for cls in link_classes]
        n_classes = len(self._class_names)
        self._class_links = [0] * n_classes
        for i in self.link_class_id:
            self._class_links[i] += 1
        # Plain lists and a cached window: the hooks below run once per grant.
        self._class_acquisitions = [0] * n_classes
        self._class_busy = [0.0] * n_classes
        self._measure_start = config.measure_start
        self._measure_end = config.measure_end
        self._started = False

    def start(self) -> None:
        """Claim the collector for one run; a second run would merge into it."""
        if self._started:
            raise SimulationError(
                "a simulator runs once; construct a new instance per run"
            )
        self._started = True

    # --- hooks called by simulators --------------------------------------------------

    def on_generated(self, gen_time: float) -> bool:
        """Register a generated message; returns True when it is tagged."""
        self.generated_total += 1
        tagged = self._measure_start <= gen_time < self._measure_end
        if tagged:
            self.tagged_generated += 1
        return tagged

    def on_acquisition(self, link_class_id: int, time: float) -> None:
        """Register a link grant (for empirical per-class rates)."""
        if self._measure_start <= time < self._measure_end:
            self._class_acquisitions[link_class_id] += 1

    def on_busy(
        self, link_class_id: int, duration: float, acquire_time: float | None = None
    ) -> None:
        """Accumulate a completed holding interval on a link.

        When ``acquire_time`` is given, only intervals whose acquisition
        fell inside the measurement window are accumulated, so that
        ``busy_time / acquisitions`` is the mean per-acquisition holding
        time — directly comparable to the model's channel service time
        ``x_bar``.
        """
        if acquire_time is not None and not (
            self._measure_start <= acquire_time < self._measure_end
        ):
            return
        self._class_busy[link_class_id] += duration

    def on_delivered(
        self,
        gen_time: float,
        delivery_time: float,
        tagged: bool,
        path_length: int,
        flits: int | None = None,
    ) -> None:
        """Register a completed message (``flits`` defaults to the workload length)."""
        if flits is None:
            flits = self.workload.message_flits
        self.delivered_total += 1
        if path_length > flits:
            self.short_worms += 1
        if self._measure_start <= delivery_time < self._measure_end:
            self.delivered_in_window += 1
            self.delivered_flits_in_window += flits
        if tagged:
            self.tagged_delivered += 1
            latency = delivery_time - gen_time
            self._stats.add(latency)
            if self.keep_samples:
                self._samples.append(latency)

    # --- finalization ---------------------------------------------------------------

    def finalize(self, end_time: float) -> SimulationResult:
        """Freeze accumulated measurements into a :class:`SimulationResult`."""
        if self._samples:
            arr = np.asarray(self._samples)
            p50 = float(np.percentile(arr, 50))
            p95 = float(np.percentile(arr, 95))
        else:
            p50 = p95 = math.nan
        class_stats = {
            name: ClassStats(
                links=self._class_links[i],
                acquisitions=self._class_acquisitions[i],
                busy_time=self._class_busy[i],
            )
            for i, name in enumerate(self._class_names)
        }
        return SimulationResult(
            workload=self.workload,
            config=self.config,
            num_pes=self.num_pes,
            end_time=end_time,
            generated_total=self.generated_total,
            tagged_generated=self.tagged_generated,
            tagged_delivered=self.tagged_delivered,
            censored_tagged=self.tagged_generated - self.tagged_delivered,
            delivered_in_window=self.delivered_in_window,
            delivered_flits_in_window=self.delivered_flits_in_window,
            latency_mean=self._stats.mean,
            latency_std=self._stats.std,
            latency_min=self._stats.min if self._stats.count else math.nan,
            latency_max=self._stats.max if self._stats.count else math.nan,
            latency_p50=p50,
            latency_p95=p95,
            short_worm_fraction=(
                self.short_worms / self.delivered_total if self.delivered_total else 0.0
            ),
            class_stats=class_stats,
        )
