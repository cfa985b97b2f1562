"""Server process of the ``serve`` workload.

    python3 perfbench/serve_server.py --seed 1 --trace 0

Runs a ``repro.serve`` server on a free localhost port and prints one
JSON line ``{"port": ...}`` when it listens.  It then reads commands,
one per line, from standard input and answers each with a JSON line:

* ``timed`` — start the timed trace phase (traced runs only);
* ``untrace`` — end it and remove the trace wrappers;
* ``stop`` (or end of input) — close the server, write the spans, and
  print the final report: peak RSS, server stats, kernel-cache counters
  and the trace summary, with the server's own clock of the timed
  batches (``clocked_s``) and the part of it inside layer spans below
  ``serve.batch`` (``covered_s``).

Keeping the server in its own process means the load generator's
encryption and decryption never run on the server's event loop.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _say(payload: dict) -> None:
    print(json.dumps(payload), flush=True)


class _Trace:
    """The server's tracer, plus the server's own clock of timed batches."""

    def __init__(self, tracer, server) -> None:
        self.tracer = tracer
        self.server = server
        self.first_batch = 0
        self.clocked_s = 0.0
        self.done = False

    def begin_timed(self) -> None:
        self.tracer.begin_phase("timed")
        self.first_batch = len(self.server.metrics.execute_seconds)

    def finish(self) -> None:
        """End the phase, check the backends, and remove the wrappers."""
        if self.done:
            return
        self.done = True
        self.tracer.end_phase()
        if self.tracer.phase == "timed":
            # The server's own clock around each batch (FheServer._run_plan).
            self.clocked_s = sum(self.server.metrics.execute_seconds[self.first_batch:])
        for bits in self.server.stats()["presets_built"]:
            backend = self.server.offline.preset(bits).context.ring.backend
            self.tracer.check_hooked(backend, "repro.rns.backend")
        self.tracer.uninstall()

    def report(self) -> dict:
        summary = self.tracer.summary()
        summary["clocked_s"] = self.clocked_s
        summary["covered_s"] = self.tracer.child_time("serve.batch", "timed")
        return summary


async def _serve(seed: int, tracer, spans_path: Path | None) -> None:
    from repro.rns.kernels import kernel_cache_stats
    from repro.serve.offline import ServeOffline
    from repro.serve.server import FheServer

    server = FheServer(offline=ServeOffline(seed=seed))
    trace = _Trace(tracer, server) if tracer is not None else None
    await server.start()
    _say({"port": server.port})
    loop = asyncio.get_running_loop()
    try:
        while True:
            words = (await loop.run_in_executor(None, sys.stdin.readline)).split()
            if not words or words[0] == "stop":
                break
            if trace is not None and words[0] == "timed":
                trace.begin_timed()
            elif trace is not None and words[0] == "untrace":
                trace.finish()
            _say({"ok": words[0]})
    finally:
        await server.close()
    report = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stats": server.stats(),
        "kernel_cache": kernel_cache_stats(),
        "trace": None,
    }
    if trace is not None:
        trace.finish()
        report["trace"] = trace.report()
        if spans_path is not None:
            tracer.write(spans_path)
    _say(report)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()
    sys.path.insert(0, str(HERE.parent / "src"))
    from spans import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        tracer.begin_phase("setup")
    asyncio.run(_serve(args.seed, tracer, args.spans))
    return 0


if __name__ == "__main__":
    sys.exit(main())
