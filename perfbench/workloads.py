"""The in-process workloads: ``bootstrap`` and ``helr_step``.

Each function builds its inputs from the seed, sets up (timed as
``setup_s``), runs units of work until ``seconds`` have passed, checks
every unit against a float64 reference, and returns an :class:`Outcome`.
With a tracer the whole run is traced; afterwards the tracer is removed
and one more unit runs untraced, which gives the tracing overhead.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from spans import Tracer

_now = time.perf_counter

# Tier-1's bootstrap precision floor (tests/test_bootstrap.py).
BOOT_FLOOR_BITS = 10.0
# HELR step floor: seeds 1-10 measured 23.9-24.3 bits on the commit
# that added this benchmark.
HELR_FLOOR_BITS = 20.0


@dataclass
class Outcome:
    """What one workload run measured (see run.py for the metrics)."""

    unit: str
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    precision_bits: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    info: dict[str, Any] = field(default_factory=dict)
    trace: dict[str, Any] | None = None
    untraced_unit_s: float | None = None
    backend: str = "?"

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)


def nproc() -> int:
    """Usable CPUs, as the ``nproc`` command counts them."""
    return len(os.sched_getaffinity(0))


def bits(err: float) -> float:
    """-log2 of an error; an exact result reads as 64 bits."""
    return -math.log2(err) if err > 0 else 64.0


def _run_units(
    out: Outcome,
    seconds: float,
    unit: Callable[[int], tuple[float, float]],
    tracer: Tracer | None,
) -> None:
    """Run ``unit(i)`` until ``seconds`` pass.

    ``unit`` returns the ``(start, end)`` clock readings around its timed
    part.  With a tracer, ``info["clocked_s"]`` is the total of those
    windows and ``info["covered_s"]`` the part of it inside layer spans.
    """
    if tracer is not None:
        tracer.begin_phase("timed")
    start = _now()
    windows: list[tuple[float, float]] = []
    i = 0
    while True:
        if tracer is not None:
            tracer.rid = f"{out.unit}-{i}"
        out.attempted += 1
        try:
            start_s, end_s = unit(i)
            windows.append((start_s, end_s))
            out.latencies_s.append(end_s - start_s)
        except Exception as exc:  # noqa: BLE001 - counted as a failed unit
            out.fail(f"{out.unit} {i} raised {type(exc).__name__}: {exc}")
        i += 1
        if _now() - start >= seconds:
            break
    from repro.rns.kernels import kernel_cache_stats

    cache = kernel_cache_stats()
    lookups = cache["hits"] + cache["misses"]
    out.info["kernel_cache_hit_ratio"] = cache["hits"] / lookups if lookups else 0.0
    if tracer is not None:
        tracer.end_phase()
        tracer.uninstall()
        out.trace = tracer.summary()
        out.info["clocked_s"] = sum(end - start for start, end in windows)
        out.info["covered_s"] = tracer.inside(windows, "timed")
        # One more unit with the wrappers gone: the overhead baseline.
        start_s, end_s = unit(i)
        out.untraced_unit_s = end_s - start_s


# -- bootstrap -----------------------------------------------------------------


def bootstrap(seed: int, seconds: float, tracer: Tracer | None) -> Outcome:
    """Steady-state bootstrap on the tier-1 ``boot_context`` chain."""
    out = Outcome(unit="bootstrap")
    t0 = _now()
    if tracer is not None:
        tracer.install()
        tracer.begin_phase("setup")
        tracer.rid = "setup"
    from repro.ckks import context as ckks_context
    from repro.ckks.bootstrap import Bootstrapper
    from repro.ckks.ops import Evaluator

    params = ckks_context.make_params(
        degree=1 << 10,
        slots=512,
        scale_bits=23,
        depth=2,
        boot_scale_bits=50,
        boot_depth=14,
        dnum=4,
        hamming_weight=16,
    )
    ctx = ckks_context.CkksContext(params, seed=seed)
    if tracer is not None:
        tracer.check_hooked(ctx.ring.backend, "repro.rns.backend")
    ev = Evaluator(ctx)
    bts = Bootstrapper(ctx, ev)
    rng = np.random.default_rng(seed)

    def message() -> np.ndarray:
        return rng.uniform(-1, 1, params.slots) + 1j * rng.uniform(-1, 1, params.slots)

    def unit(i: int) -> tuple[float, float]:
        m = message()
        ct = ev.adjust(ctx.encrypt(m), 0, params.scale)
        start = _now()
        refreshed, _ = bts.bootstrap(ct)
        end = _now()
        got = bits(float(np.max(np.abs(ctx.decrypt(refreshed) - m))))
        out.precision_bits.append(got)
        if got < BOOT_FLOOR_BITS:
            out.fail(f"bootstrap {i}: {got:.2f} bits < {BOOT_FLOOR_BITS}")
        return start, end

    # Warmup: the first bootstrap generates the rotation keys and fills
    # the per-chain plan caches.
    unit(-1)
    out.precision_bits.clear()
    out.setup_s = _now() - t0
    out.backend = ctx.ring.backend.name
    out.info.update(degree=params.degree, slots=params.slots, dnum=params.dnum,
                    primes=len(params.full_basis), max_level=params.max_level)
    _run_units(out, seconds, unit, tracer)
    return out


# -- HELR gradient step ----------------------------------------------------------

HELR_DEGREE = 1 << 13
HELR_SLOTS = 4096
HELR_FEATURES = 256
HELR_SAMPLES = HELR_SLOTS // HELR_FEATURES
HELR_DEPTH = 8
HELR_SIGMOID_DEGREE = 7
HELR_RATE = 0.25


def _rotate_sum(values: np.ndarray, shifts: range) -> np.ndarray:
    for k in shifts:
        values = values + np.roll(values, -(1 << k))
    return values


def helr_step(seed: int, seconds: float, tracer: Tracer | None) -> Outcome:
    """One HELR-shaped encrypted gradient step at N=2^13, 4096 slots."""
    from numpy.polynomial import chebyshev

    out = Outcome(unit="helr_step")
    t0 = _now()
    if tracer is not None:
        tracer.install()
        tracer.begin_phase("setup")
        tracer.rid = "setup"
    from repro.ckks.context import CkksContext
    from repro.ckks.ops import Evaluator
    from repro.ckks.poly_eval import ChebyshevEvaluator, chebyshev_fit
    from repro.params import presets
    from repro.workloads.datasets import make_mnist_like

    params = presets.build_native_ckks_params(
        36, degree=HELR_DEGREE, slots=HELR_SLOTS, depth=HELR_DEPTH
    )
    ctx = CkksContext(params, seed=seed)
    if tracer is not None:
        tracer.check_hooked(ctx.ring.backend, "repro.rns.backend")
    ev = Evaluator(ctx)
    cheb = ChebyshevEvaluator(ev)
    # HELR folds each label into its sample (z_i = y_i x_i); features
    # are padded to 256 and scaled so every block sum stays in [-1, 1].
    data = make_mnist_like(train=HELR_SAMPLES, test=1, seed=seed)
    feats = data.train_x.shape[1]
    z = np.zeros((HELR_SAMPLES, HELR_FEATURES))
    z[:, :feats] = data.train_x * data.train_y[:, None] / HELR_FEATURES
    z = z.reshape(-1)
    w = np.tile(np.random.default_rng(seed + 1).uniform(-1, 1, HELR_FEATURES), HELR_SAMPLES)
    coeffs = chebyshev_fit(lambda x: 1.0 / (1.0 + math.exp(8.0 * x)), HELR_SIGMOID_DEGREE)

    # float64 reference of the same arithmetic.
    t = _rotate_sum(z * w, range(8))
    g = _rotate_sum(chebyshev.chebval(t, coeffs) * z, range(8, 12))
    want = w + HELR_RATE * g

    z_ct = ctx.encrypt(z)
    w_ct = ctx.encrypt(w)

    def step() -> Any:
        t_ct = ev.multiply(z_ct, w_ct)
        for k in range(8):
            t_ct = ev.add(t_ct, ev.rotate(t_ct, 1 << k))
        s_ct = cheb.evaluate(t_ct, coeffs)
        g_ct = ev.multiply(s_ct, z_ct)
        for k in range(8, 12):
            g_ct = ev.add(g_ct, ev.rotate(g_ct, 1 << k))
        g_ct = ev.multiply_scalar(g_ct, HELR_RATE)
        w_old, g_ct = ev.match(w_ct, g_ct)
        return ev.add(w_old, g_ct)

    def unit(i: int) -> tuple[float, float]:
        start = _now()
        w_new = step()
        end = _now()
        got = bits(float(np.max(np.abs(ctx.decrypt(w_new) - want))))
        out.precision_bits.append(got)
        if got < HELR_FLOOR_BITS:
            out.fail(f"helr step {i}: {got:.2f} bits < {HELR_FLOOR_BITS}")
        return start, end

    unit(-1)  # warmup: relinearization and 12 rotation keys, plan caches
    out.precision_bits.clear()
    out.setup_s = _now() - t0
    out.backend = ctx.ring.backend.name
    out.info.update(degree=params.degree, slots=params.slots, dnum=params.dnum,
                    primes=len(params.full_basis), max_level=params.max_level)
    _run_units(out, seconds, unit, tracer)
    return out
