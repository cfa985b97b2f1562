"""The ``serve`` workload: a load generator against a server process.

The server (``serve_server.py``) runs in its own process.  This process
holds ``nproc`` tenant connections (36-bit words, lane width 4) and
sends a seeded job mix:

* 70% ``poly`` — ``0.5x^2 + x``, batchable;
* 20% ``rotsum`` — a rotate-and-sum over the lane, which gets a batch
  of its own;
* 10% ``too_deep`` — twelve squarings, which admission must reject.

The mix is exact in every block of ten jobs, in seeded order, so the
seed moves the order of the work but not its amount.

Phases: setup (server start, enrollment, one warmup job per program),
then a closed loop (each connection back to back) for a third of the run,
which gives capacity, then an open loop for the rest: Poisson
arrivals at 4 req/s, each request timed from when it was due.  The
exponential gaps are stratified: every seed draws one gap from each of
n equal-probability strata and sends them in seeded order, so seeds
differ in the order of bursts, not in how many there are.
A traced run repeats the closed loop untraced at the end, which gives
the tracing overhead.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

from workloads import Outcome, bits, nproc

_now = time.perf_counter
HERE = Path(__file__).resolve().parent

WORD_BITS = 36
WIDTH = 4
MIX_BLOCK = ("poly",) * 7 + ("rotsum",) * 2 + ("too_deep",)
OPEN_RATE = 4.0  # req/s, about 40% of the closed-loop capacity
CLOSED_SHARE = 1 / 3
JOB_TIMEOUT_S = 60.0
REPLY_TIMEOUT_S = 120.0


def _programs() -> dict[str, Any]:
    from repro.serve.program import ProgramBuilder

    b = ProgramBuilder("poly")
    x = b.input
    poly = b.build(b.add_matched(b.multiply_scalar(b.square(x), 0.5), x))
    b = ProgramBuilder("rotsum")
    s = b.add(b.input, b.rotate(b.input, 1))
    rotsum = b.build(b.add(s, b.rotate(s, 2)))
    b = ProgramBuilder("too_deep")
    v = b.input
    for _ in range(12):
        v = b.square(v)
    return {"poly": poly, "rotsum": rotsum, "too_deep": b.build(v)}


def _expected(kind: str, values: np.ndarray, slots: int) -> np.ndarray:
    """float64 reference of the program on the client's slot vector."""
    v = np.zeros(slots)
    v[: len(values)] = values
    if kind == "poly":
        v = 0.5 * v * v + v
    else:
        v = v + np.roll(v, -1)
        v = v + np.roll(v, -2)
    return v[:WIDTH]


class _Load:
    """Job bookkeeping shared by the phases of one run."""

    def __init__(self, out: Outcome, programs: dict[str, Any]):
        self.out = out
        self.programs = programs
        self.meta: list[dict[str, Any]] = []
        self.rejected = 0
        self.answered = 0

    @staticmethod
    def jobs(rng: np.random.Generator):
        """Endless seeded job stream: shuffled MIX_BLOCKs with inputs."""
        while True:
            for index in rng.permutation(len(MIX_BLOCK)):
                yield MIX_BLOCK[index], rng.uniform(-1, 1, WIDTH)

    async def job(self, client, kind: str, values: np.ndarray, count: bool = True) -> bool:
        """Submit one job and check it; True if it met its contract."""
        from repro.serve.client import JobRejected

        out = self.out
        if count:
            out.attempted += 1
        try:
            res = await asyncio.wait_for(
                client.submit(self.programs[kind], list(values)), JOB_TIMEOUT_S
            )
        except JobRejected as exc:
            self.answered += count
            # Only an admission verdict counts as a rejection: EXEC-FAILED
            # comes after the job was admitted and PROGRAM-INVALID before
            # admission ran.
            by_admission = (exc.payload.get("error") == "admission rejected"
                            and isinstance(exc.payload.get("verdict"), dict)
                            and bool(exc.codes))
            if kind == "too_deep" and by_admission:
                self.rejected += count
                return True
            if kind == "too_deep":
                out.fail(f"too-deep job was not refused by admission: {exc}")
            else:
                out.fail(f"admissible {kind} job refused: {exc}")
            return False
        except (OSError, EOFError, asyncio.TimeoutError, asyncio.IncompleteReadError) as exc:
            out.fail(f"{kind} job unanswered: {type(exc).__name__}: {exc}")
            return False
        self.answered += count
        if kind == "too_deep":
            out.fail("too-deep job was admitted")
            return False
        err = float(np.max(np.abs(res.values - _expected(kind, values, client.slots))))
        floor = res.proven_floor_bits
        if floor is None or err > 2.0 ** -floor:
            out.fail(f"{kind} job error {err:.3e} above proven floor 2^-{floor}")
            return False
        if count:
            out.precision_bits.append(bits(err))
            self.meta.append(res.meta)
        return True


async def _closed_loop(load: _Load, clients, seed: int, seconds: float) -> float:
    """Back-to-back jobs on every connection; admissible completions/s."""
    start = _now()
    deadline = start + seconds
    done = [0]

    async def drive(i: int, client) -> None:
        stream = load.jobs(np.random.default_rng([seed, 1, i]))
        while _now() < deadline:
            kind, values = next(stream)
            if await load.job(client, kind, values) and kind != "too_deep":
                done[0] += 1

    await asyncio.gather(*(drive(i, c) for i, c in enumerate(clients)))
    return done[0] / (_now() - start)


async def _open_loop(load: _Load, clients, seed: int, seconds: float) -> list[float]:
    """Seeded Poisson arrivals; latency of admissible jobs from due time."""
    rng = np.random.default_rng([seed, 2])
    # Stratified exponential gaps: one draw from each of n equal-
    # probability strata, in seeded order.
    n = round(OPEN_RATE * seconds)
    gaps = -np.log1p(-(np.arange(n) + rng.uniform(size=n)) / n) / OPEN_RATE
    due_at = np.cumsum(rng.permutation(gaps))
    stream = load.jobs(rng)
    arrivals = [next(stream) for _ in due_at]
    free: asyncio.Queue = asyncio.Queue()
    for client in clients:
        free.put_nowait(client)
    latencies: list[float] = []
    late: list[float] = []
    start = _now()

    async def one(due: float, kind: str, values: np.ndarray) -> None:
        client = await free.get()
        late.append(_now() - due)
        try:
            ok = await load.job(client, kind, values)
        finally:
            free.put_nowait(client)
        if kind != "too_deep":
            latencies.append(_now() - due if ok else float("inf"))

    tasks = []
    for offset, (kind, values) in zip(due_at, arrivals):
        due = start + float(offset)
        await asyncio.sleep(max(0.0, due - _now()))
        tasks.append(asyncio.create_task(one(due, kind, values)))
    await asyncio.gather(*tasks)
    load.out.info["serve.gen_late_ms"] = statistics.fmean(late) * 1e3 if late else 0.0
    load.out.info["open_loop_arrivals"] = len(arrivals)
    return latencies


class _ServerProcess:
    """The benchmark-launched server and its line protocol."""

    def __init__(self, proc: asyncio.subprocess.Process):
        self.proc = proc

    @classmethod
    async def start(cls, seed: int, traced: bool, root: Path) -> "_ServerProcess":
        cmd = [sys.executable, str(HERE / "serve_server.py"), "--seed", str(seed),
               "--trace", "1" if traced else "0"]
        if traced:
            cmd += ["--spans", str(root / ".perfbench_runs" / f"spans-serve-server-{seed}.json")]
        proc = await asyncio.create_subprocess_exec(
            *cmd, stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE, cwd=root
        )
        return cls(proc)

    async def reply(self) -> dict[str, Any]:
        assert self.proc.stdout is not None
        line = await asyncio.wait_for(self.proc.stdout.readline(), REPLY_TIMEOUT_S)
        if not line:
            raise RuntimeError("serve benchmark: server process exited early")
        return json.loads(line)

    async def command(self, text: str) -> dict[str, Any]:
        assert self.proc.stdin is not None
        self.proc.stdin.write(text.encode() + b"\n")
        await self.proc.stdin.drain()
        return await self.reply()

    async def finish(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
        await self.proc.wait()


async def _run(seed: int, seconds: float, traced: bool, root: Path) -> Outcome:
    out = Outcome(unit="request")
    t0 = _now()
    server = await _ServerProcess.start(seed, traced, root)
    try:
        port = (await server.reply())["port"]
        from repro.serve.client import FheClient

        load = _Load(out, _programs())
        clients = [
            FheClient("127.0.0.1", port, seed=seed * 1000 + i)
            for i in range(nproc())
        ]
        await asyncio.gather(*(c.enroll(WORD_BITS, width=WIDTH) for c in clients))
        # Warmup: a packed batch (lane-offset rotation keys), then one
        # job of each other program (rotation keys, certification).
        rng = np.random.default_rng([seed, 0])
        warm = await asyncio.gather(
            *(load.job(c, "poly", rng.uniform(-1, 1, WIDTH), count=False) for c in clients)
        )
        for kind in ("rotsum", "too_deep"):
            warm.append(await load.job(clients[0], kind, rng.uniform(-1, 1, WIDTH), count=False))
        if not all(warm):
            raise RuntimeError("serve benchmark: a warmup job failed its contract: "
                               + "; ".join(out.failures))
        out.setup_s = _now() - t0
        out.info["connections"] = len(clients)

        if traced:
            await server.command("timed")
        closed_s = seconds * CLOSED_SHARE
        rps = await _closed_loop(load, clients, seed, closed_s)
        out.latencies_s = await _open_loop(load, clients, seed, seconds - closed_s)
        out.info["throughput_per_s"] = rps
        out.info["traced_units"] = load.answered
        if traced:
            await server.command("untrace")
            out.info["traced_unit_s"] = 1.0 / rps if rps else None
            untraced = _Load(Outcome(unit="request"), load.programs)
            untraced_rps = await _closed_loop(untraced, clients, seed + 1, closed_s)
            out.untraced_unit_s = 1.0 / untraced_rps if untraced_rps else None

        await asyncio.gather(*(c.close() for c in clients))
        report = await server.command("stop")
        await asyncio.wait_for(server.proc.wait(), REPLY_TIMEOUT_S)
    finally:
        await server.finish()

    out.peak_rss_mb = report["peak_rss_mb"]
    out.trace = report["trace"]
    if out.trace is not None:
        out.info["clocked_s"] = out.trace.pop("clocked_s")
        out.info["covered_s"] = out.trace.pop("covered_s")
    backends = report["stats"].get("kernel_backends", {})
    out.backend = ",".join(sorted(set(backends.values()))) or "?"
    cache = report["kernel_cache"]
    lookups = cache["hits"] + cache["misses"]

    def mean(key: str) -> float:
        return statistics.fmean(m[key] for m in load.meta) if load.meta else 0.0

    out.info.update({
        "kernel_cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "check.rejected": load.rejected,
        "serve.queue_wait_ms": mean("queue_wait_seconds") * 1e3,
        "serve.execute_ms": mean("execute_seconds") * 1e3,
        "serve.batch_size_mean": mean("batch_size"),
        "serve.occupancy_mean": mean("batch_occupancy"),
        "open_loop_latencies_ms": [round(t * 1e3, 3) for t in out.latencies_s],
        "server_jobs": report["stats"].get("jobs"),
    })
    return out


def serve(seed: int, seconds: float, traced: bool, root: Path) -> Outcome:
    """Run the workload; ``traced`` traces the server process."""
    return asyncio.run(_run(seed, seconds, traced, root))
