"""Traced launcher for the serve workload: ``ScenarioService`` with spans.

Wraps the cache, registry and index calls (and the solve path below
them) with spans before starting the service, exactly as ``repro serve``
would start it otherwise.  Each ``solve_scenario`` call is one op.  On
SIGTERM or SIGINT it stops the service and writes its spans to ``--out`` (the
benchmark keeps the ops of its timed window and writes the Chrome trace).

    python3 perfbench/serve_launcher.py --registry DIR --out FILE.json
"""

from __future__ import annotations

import argparse
import asyncio
import contextvars
import functools
import itertools
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.layers import install  # noqa: E402
from perfbench.spans import OP, Patcher, SpanRecorder  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--registry", required=True, type=Path)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)

    from repro.runs import RunRegistry, run
    from repro.serve import ScenarioService

    recorder = SpanRecorder()
    patcher = Patcher()
    install(recorder, patcher, serve=True)
    ops = itertools.count()
    # The solver runs on the service's worker thread, which does not
    # inherit the request's context; the op hands its context over here,
    # keyed by scenario (coalescing keeps one solve per key in flight).
    handoff: dict[str, contextvars.Context] = {}
    def as_op(original):
        @functools.wraps(original)
        async def solve_scenario(self, scenario):
            with recorder.span(OP, op=next(ops)):
                key = scenario.key()
                owner = key not in handoff  # a coalesced request reuses the first's
                if owner:
                    handoff[key] = contextvars.copy_context()
                try:
                    return await original(self, scenario)
                finally:
                    if owner:
                        handoff.pop(key, None)

        return solve_scenario

    def solver(scenario):
        ctx = handoff.get(scenario.key())
        return ctx.run(run, scenario) if ctx is not None else run(scenario)

    patcher.method(ScenarioService, "solve_scenario", as_op)
    service = ScenarioService(RunRegistry(args.registry), port=0, solver=solver)

    async def serve() -> None:
        await service.start()
        loop, task = asyncio.get_running_loop(), asyncio.current_task()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, task.cancel)
        print(f"perfbench launcher: listening on {service.address} "
              f"(registry: {args.registry})", flush=True)
        try:
            await service.serve_forever()  # stops the service when cancelled
        except asyncio.CancelledError:
            pass

    try:
        asyncio.run(serve())
    finally:
        patcher.restore()
    recorder.write_spans(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
