"""The ``serve_mixed`` workload: an open-loop generator against ``repro serve``.

The server runs in its own process on port 0 over a temp registry inside
the work directory, pre-seeded with synthetic records.  One generator
(this process) sends ``POST /solve`` on a seeded Poisson schedule at each
rate of a fixed ladder, with no more requests in flight than the machine
has cores.  Each request is timed from the moment it was due, so a stall
shows in the requests queued behind it; the generator reports how late
it sent and whether a backlog built up.  A closed loop of catalog hits
measures the service's capacity.  The run walks the ladder and then a
chunk of the closed loop several times over, in windows.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from . import checks, generators
from .stats import median, tail

#: The tail-latency limit a ladder step must meet to count as sustained.
TAIL_LIMIT_MS = 50.0
#: A step has a growing backlog when more than this share of its
#: requests were due before the step ended but had not been sent by then.
BACKLOG_SHARE = 0.02
#: Completions per block of the capacity estimate.
CAPACITY_BLOCK = 100
REQUEST_TIMEOUT_S = 30.0
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


def slots() -> int:
    """Requests in flight at most: one per core."""
    return max(1, os.cpu_count() or 1)


def pin(pid: int, server: bool) -> None:
    """Keep the server and the generator on separate cores, when there are
    two or more: where the scheduler happens to place two busy processes
    otherwise swings the measured capacity by a third between runs."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2:
        os.sched_setaffinity(pid, {cpus[-1]} if server else set(cpus[:-1]))


# --- server lifecycle -------------------------------------------------------------


class Server:
    """A ``repro serve`` process (or the traced launcher) on port 0."""

    def __init__(self, root: Path, registry: Path, *, traced: bool, out: Path | None = None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
        env.pop("REPRO_OBS", None)
        if traced:
            cmd = [sys.executable, str(root / "perfbench" / "serve_launcher.py"),
                   "--registry", str(registry), "--out", str(out)]
        else:
            cmd = [sys.executable, "-m", "repro", "serve", "--port", "0",
                   "--registry", str(registry)]
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        pin(self.proc.pid, server=True)
        self.host, self.port = self._await_listening()

    def _await_listening(self) -> tuple[str, int]:
        # The first stdout line names the address: "... listening on http://H:P ...".
        lines: list[str] = []

        def read() -> None:
            lines.append(self.proc.stdout.readline())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(START_TIMEOUT_S)
        line = lines[0] if lines else ""
        marker = "listening on http://"
        if marker not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        hostport = line.split(marker, 1)[1].split()[0]
        host, port = hostport.rsplit(":", 1)
        return host, int(port)

    def peak_rss_mb(self) -> float:
        """Peak resident set of the server process (VmHWM), MB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return float("nan")

    def stop(self) -> None:
        # SIGTERM, not SIGINT: a process started from a background job
        # inherits an ignored SIGINT.  ``repro serve`` exits at once; the
        # traced launcher shuts the service down and writes its spans.
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(STOP_TIMEOUT_S)
        for stream in (self.proc.stdout, self.proc.stderr):
            if stream is not None:
                stream.close()


def request(host: str, port: int, method: str, path: str, body: bytes | None = None):
    """One HTTP exchange; returns ``(status, headers, parsed JSON body)``."""
    conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        data = resp.read()
        return resp.status, dict(resp.getheaders()), json.loads(data) if data else None
    finally:
        conn.close()


def seed_registry(registry: Path, records: int) -> None:
    """Fill a fresh registry with ``records`` synthetic scenario records."""
    from repro.runs import RunRegistry, RunResult, Scenario

    reg = RunRegistry(registry)
    for i in range(records):
        # Distinct scenario keys, so the index holds ``records`` entries.
        scenario = Scenario(num_processors=16, message_flits=16,
                            flit_load=1e-4 * (i + 1), sweep_points=0)
        reg.save(RunResult(metrics={"point": {"latency": 20.0 + i % 50}},
                           scenario=scenario, label=f"seed-{i % 7}", created_at=float(i + 1)))


# --- the load generator -------------------------------------------------------------


@dataclass
class Outcome:
    request: generators.Request
    sent: float  # lateness: send time minus due time, s (0 in the closed loop)
    latency: float  # completion minus due time, s
    done: float  # completion time (perf_counter)
    how: str
    record: dict | None
    error: str | None = None


@dataclass
class Step:
    """One phase of the run: a ladder rate, or the closed-loop phase (rate 0)."""

    rate: float
    outcomes: list[Outcome] = field(default_factory=list)
    backlog: int = 0

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.error is not None)

    def latencies_ms(self) -> list[float]:
        return [1e3 * o.latency for o in self.outcomes if o.error is None]

    def tail_ms(self) -> float:
        return tail(self.latencies_ms())[0]

    def growing_backlog(self) -> bool:
        return self.backlog > max(5, BACKLOG_SHARE * len(self.outcomes))

    def sustained(self) -> bool:
        t = self.tail_ms()
        return self.failed == 0 and not self.growing_backlog() and t <= TAIL_LIMIT_MS


def _send(host: str, port: int, req: generators.Request, due: float) -> Outcome:
    sent = time.perf_counter()
    try:
        status, headers, payload = request(host, port, "POST", "/solve",
                                           json.dumps(req.scenario).encode())
        error = None if status == 200 else f"HTTP {status}: {payload}"
    except (OSError, http.client.HTTPException, ValueError) as exc:
        headers, payload, error = {}, None, f"{type(exc).__name__}: {exc}"
    done = time.perf_counter()
    return Outcome(req, sent - due, done - due, done, headers.get("X-Repro-Cache", ""),
                   payload if error is None else None, error)


def run_phase(host: str, port: int, rate: float, requests: list[generators.Request],
              seconds: float) -> Step:
    """Send one phase with :func:`slots` requests in flight at most.

    With ``rate > 0`` the phase is open-loop: each request waits for its
    due time and is timed from it, and ``backlog`` counts requests due
    before the phase ended but not yet sent by then.  With ``rate == 0``
    it is a closed loop: each slot sends its next request as soon as the
    previous one returns.
    """
    step = Step(rate)
    lock = threading.Lock()
    pending = iter(requests)
    start = time.perf_counter() + 0.05

    def worker() -> None:
        while True:
            with lock:
                req = next(pending, None)
            if req is None:
                return
            due = start + req.due if rate > 0 else time.perf_counter()
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            outcome = _send(host, port, req, due)
            with lock:
                step.outcomes.append(outcome)

    threads = [threading.Thread(target=worker) for _ in range(slots())]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if rate > 0:
        end = start + seconds
        step.backlog = sum(1 for o in step.outcomes
                           if start + o.request.due < end < start + o.request.due + o.sent)
    step.outcomes.sort(key=lambda o: o.done)
    return step


def capacity(chunks: list[Step], block: int = CAPACITY_BLOCK) -> float:
    """Closed-loop requests per second: the median over blocks of
    ``block`` consecutive completions inside each chunk, so a burst of
    machine noise in one block does not move the figure, and chunks
    spread over the whole run do not depend on one stretch of it.  A
    chunk shorter than a block (only very short runs have them) is one
    block."""
    rates = []
    for chunk in chunks:
        done = [o.done for o in chunk.outcomes]
        b = min(block, len(done) - 1)
        if b > 0:
            rates += [b / (done[i + b] - done[i]) for i in range(0, len(done) - b, b)]
    return median(rates)


def max_rate(steps: list[Step]) -> float:
    """The highest sustained ladder rate, interpolated on the tail limit.

    Walks the ladder from the lightest step; between the last sustained
    step and the first that misses the limit, the rate is interpolated
    linearly in tail latency.  A step that fails for errors or a growing
    backlog ends the walk at the previous step.
    """
    best = 0.0
    for lo, hi in zip(steps, steps[1:] + [None]):
        if not lo.sustained():
            break
        best = lo.rate
        if hi is None or hi.sustained():
            continue
        t_lo, t_hi = lo.tail_ms(), hi.tail_ms()
        if hi.failed == 0 and not hi.growing_backlog() and t_hi > t_lo:
            best += (hi.rate - lo.rate) * (TAIL_LIMIT_MS - t_lo) / (t_hi - t_lo)
        break
    return best


# --- the workload -------------------------------------------------------------------


def merged(windows: list[Step]) -> Step:
    """The windows of one rate as one phase."""
    return Step(windows[0].rate, [o for w in windows for o in w.outcomes],
                sum(w.backlog for w in windows))


def windowed_p50(windows: list[Step]) -> float:
    """Median over windows of each window's median latency, s (windows
    without an answered request, which only very short runs have, are
    left out)."""
    ok = [[o.latency for o in w.outcomes if o.error is None] for w in windows]
    return median([median(latencies) for latencies in ok if latencies])


@dataclass
class ServeRun:
    windows: list[list[Step]]  # per ladder rate, lightest first: its windows
    chunks: list[Step]  # the closed-loop capacity phase, one chunk per window
    stats_before: dict
    stats_after: dict
    peak_rss_mb: float
    failures: list[str]
    start: float  # perf_counter bounds of the timed phases
    end: float

    @property
    def steps(self) -> list[Step]:
        """The ladder, lightest first, each rate's windows as one phase."""
        return [merged(w) for w in self.windows]

    def windows_at(self, rate: float) -> list[Step]:
        return next(w for w in self.windows if w[0].rate == rate)

    @property
    def heavy(self) -> Step:
        return merged(self.windows_at(generators.SERVE_HEAVY_RATE))

    @property
    def closed(self) -> Step:
        """Every closed-loop chunk as one phase."""
        return merged(self.chunks)

    @property
    def phases(self) -> list[Step]:
        return self.steps + [self.closed]


class ServeMixed:
    name = "serve_mixed"

    def __init__(self, seed: int, seconds: float, root: Path, work: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.root = root
        self.work = work
        self.reference = checks.load_reference(self.name)
        self.answers: dict[str, Any] = {}
        self._starts = 0

    def start(self, *, traced: bool) -> tuple[Server, Path | None]:
        """Seed a fresh registry, start a server on it and warm the catalog."""
        self._starts += 1
        registry = self.work / f"registry-{self._starts}"
        seed_registry(registry, generators.SERVE_SEED_RECORDS)
        out = self.work / f"launcher-{self._starts}.json" if traced else None
        server = Server(self.root, registry, traced=traced, out=out)
        try:
            self.warm(server)
        except BaseException:
            server.stop()
            raise
        return server, out

    def warm(self, server: Server) -> None:
        """Solve every catalog scenario once; hits are checked against these."""
        self.catalog_answers: dict[str, dict] = {}
        for sc in generators.serve_catalog(self.seed):
            status, headers, record = request(server.host, server.port, "POST", "/solve",
                                              json.dumps(sc).encode())
            if status != 200:
                raise RuntimeError(f"warm-up solve failed: HTTP {status}: {record}")
            key = record["provenance"]["scenario_key"]
            self.catalog_answers[key] = record
            if len(self.answers) < checks.REFERENCE_ENTRIES:
                self.answers.setdefault(key, checks.serve_entry(record))

    def run(self, server: Server, seconds: float) -> ServeRun:
        schedule = generators.serve_schedule(self.seed, seconds)
        pin(0, server=False)
        _, _, before = request(server.host, server.port, "GET", "/stats")
        rates = generators.SERVE_RATES
        windows: list[list[Step]] = [[] for _ in rates]
        chunks: list[Step] = []
        start = time.perf_counter()
        for w in range(generators.SERVE_WINDOWS):
            part = [r for r in schedule if r.window == w]
            for i, (rate, share) in enumerate(zip(rates, generators.SERVE_STEP_SHARES)):
                windows[i].append(run_phase(server.host, server.port, rate,
                                            [r for r in part if r.step == i],
                                            share * seconds / generators.SERVE_WINDOWS))
            chunks.append(run_phase(server.host, server.port, 0.0,
                                    [r for r in part if r.step == len(rates)], 0.0))
        end = time.perf_counter()
        _, _, after = request(server.host, server.port, "GET", "/stats")
        run = ServeRun(windows, chunks, before, after, server.peak_rss_mb(), [], start, end)
        run.failures = self.check(run.phases, server) + check_counters(run.phases, before, after)
        return run

    def check(self, phases: list[Step], server: Server) -> list[str]:
        failures: list[str] = []
        misses: dict[str, dict] = {}
        for step in phases:
            where = f"rate {step.rate:g}/s" if step.rate else "closed loop"
            for o in step.outcomes:
                if o.error is not None:
                    failures.append(f"{where}: {o.error}")
                    continue
                key = o.record["provenance"]["scenario_key"]
                problems = checks.serve_answer(o.record, o.request.scenario)
                problems += checks.against_reference(key, checks.serve_entry(o.record), self.reference)
                if o.request.kind == "hit":
                    if o.how != "hit":
                        problems.append(f"catalog request answered as {o.how!r}")
                    elif not checks.same_answer(o.record, self.catalog_answers[key]):
                        problems.append("hit differs from the miss that stored it")
                else:
                    misses.setdefault(key, o.record)
                failures.extend(f"{where}: {p}" for p in problems)
        # Every miss is served again as a hit with the same metrics.
        for key, record in misses.items():
            status, headers, again = request(server.host, server.port, "POST", "/solve",
                                             json.dumps(record["scenario"]).encode())
            if status != 200 or headers.get("X-Repro-Cache") != "hit":
                failures.append(f"replayed miss {key[:16]} answered {status} "
                                f"{headers.get('X-Repro-Cache')}")
            elif not checks.same_answer(again, record):
                failures.append(f"hit for {key[:16]} differs from the miss that stored it")
        return failures


def check_counters(phases: list[Step], before: dict, after: dict) -> list[str]:
    """``/stats`` must account for every request the generator sent."""

    def delta(name: str) -> int:
        return int(after["counters"].get(name, 0) - before["counters"].get(name, 0))

    sent = sum(len(s.outcomes) for s in phases)
    by_how: dict[str, int] = {}
    for s in phases:
        for o in s.outcomes:
            if o.error is None:
                by_how[o.how] = by_how.get(o.how, 0) + 1
    problems = []
    # The closing GET /stats is counted by the server as it answers.
    if delta("serve.requests") != sent + 1:
        problems.append(f"serve.requests grew by {delta('serve.requests')}, "
                        f"sent {sent} + 1 stats call")
    for how, counter in (("hit", "serve.cache.hits"), ("miss", "serve.cache.misses"),
                         ("coalesced", "serve.coalesced")):
        if delta(counter) != by_how.get(how, 0):
            problems.append(f"{counter} grew by {delta(counter)}, "
                            f"{by_how.get(how, 0)} {how} replies")
    return problems


def _span_s(block: dict, name: str) -> tuple[float, int]:
    s = block.get("spans", {}).get(name)
    return (s["total_s"], s["count"]) if s else (0.0, 0)


def stats_layer(before: dict, after: dict) -> dict[str, float]:
    """The ``serve.*`` per-layer metrics from two ``/stats`` snapshots."""

    def delta(name: str) -> float:
        return float(after["counters"].get(name, 0) - before["counters"].get(name, 0))

    def mean_ms(name: str) -> float:
        t1, c1 = _span_s(after, name)
        t0, c0 = _span_s(before, name)
        return 1e3 * (t1 - t0) / (c1 - c0) if c1 > c0 else 0.0

    hits = delta("serve.cache.hits")
    answered = hits + delta("serve.cache.misses") + delta("serve.coalesced")
    return {
        "serve.hit_ratio": hits / answered if answered else 0.0,
        "serve.coalesced": delta("serve.coalesced"),
        "serve.errors": delta("serve.errors"),
        "serve.request_ms": mean_ms("serve/request"),
        "serve.solve_ms": mean_ms("serve/solve"),
    }


def loadgen_layer(run: ServeRun) -> dict[str, float]:
    lags = [1e3 * o.sent for s in run.steps for o in s.outcomes]
    out = {
        "loadgen.lag_ms": tail(lags)[0],
        "loadgen.max_rate_rps": max_rate(run.steps),
        "loadgen.heavy_p50_ms": median(run.heavy.latencies_ms()),
        "loadgen.heavy_tail_ms": run.heavy.tail_ms(),
        "op.latency_tail_ms": run.heavy.tail_ms(),
        "loadgen.light_p50_ms": median(run.steps[0].latencies_ms()),
        "loadgen.light_tail_ms": run.steps[0].tail_ms(),
    }
    for i, s in enumerate(run.phases):
        name = f"step{i}" if s.rate else "closed"
        out[f"loadgen.{name}.sent"] = float(len(s.outcomes))
        out[f"loadgen.{name}.ok"] = float(len(s.outcomes) - s.failed)
        out[f"loadgen.{name}.failed"] = float(s.failed)
        if s.rate:
            out[f"loadgen.{name}.backlog"] = float(s.backlog)
    return out
