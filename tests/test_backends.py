"""Kernel backend parity suite: the fast paths are bit-exact.

Every :class:`~repro.rns.poly.RingContext` runs its hot operations
through :class:`~repro.rns.backend.NumpyBackend`.  This suite checks
each of them against an independent reference — exact integer
arithmetic, :class:`NttChain`, the legacy per-limb BConv and the naive
digit sum — across the word lengths the service catalogue spans
(28/36/50/62 bits, float-quotient lane on and off), plus the
planned-vs-legacy evaluator equality the benchmark bars rely on.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ntt.plan import NttPlan
from repro.ntt.reference import NttChain, NttContext
from repro.params.primes import find_ntt_primes
from repro.rns import kernels
from repro.rns.backend import NumpyBackend
from repro.rns.bconv import BaseConverter

WORD_PATTERNS = (28, 36, 50, 62)

N = 64  # elementwise / keyswitch degree (two_n = 128 NTT-friendly)


def _primes(two_n: int, bits: int, count: int, exclude=None) -> tuple[int, ...]:
    return tuple(
        find_ntt_primes(
            two_n,
            float(2**bits * 0.9),
            count,
            max_value=min(2 ** (bits + 1), kernels.FAST_MODULUS_LIMIT) - 1,
            min_value=2 ** (bits - 1),
            exclude=exclude,
        )
    )


_CHAINS: dict[tuple[int, int], tuple[int, ...]] = {}


def _chain(two_n: int, bits: int, count: int) -> tuple[int, ...]:
    key = (two_n, bits)
    if key not in _CHAINS or len(_CHAINS[key]) < count:
        _CHAINS[key] = _primes(two_n, bits, count)
    return _CHAINS[key][:count]


def _limbs(moduli, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.stack(
        [rng.integers(0, q, n, dtype=np.uint64) for q in moduli]
    )


# -- elementwise parity ------------------------------------------------------


class TestElementwiseParity:
    @pytest.mark.parametrize("bits", WORD_PATTERNS)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_mul_add_match_numpy(self, bits, seed):
        moduli = _chain(2 * N, bits, 3)
        kern = kernels.ModulusKernel(moduli)
        a = _limbs(moduli, N, seed)
        b = _limbs(moduli, N, seed + 1)
        backend = NumpyBackend()
        # Ground truth: exact integer arithmetic, and the canonical
        # kernels the float-quotient lane must agree with.
        q_col = np.array(moduli, dtype=object).reshape(-1, 1)
        want_mul = (a.astype(object) * b.astype(object) % q_col).astype(np.uint64)
        want_add = ((a.astype(object) + b.astype(object)) % q_col).astype(np.uint64)
        assert np.array_equal(kern.mul(a, b), want_mul)
        assert np.array_equal(kern.add(a, b), want_add)
        assert np.array_equal(backend.mul(kern, a, b), want_mul)
        assert np.array_equal(backend.add(kern, a, b), want_add)


# -- NTT parity: plan and backend vs the reference chain ---------------------


class TestNttParity:
    @pytest.mark.parametrize("bits", WORD_PATTERNS)
    @pytest.mark.parametrize("degree", (256, 1024))
    def test_plan_matches_reference_chain(self, bits, degree):
        """Plan output == NttChain output, forward and inverse.

        degree = 256 exercises the flat butterfly layout, 1024 the
        transposed-tail layout; 50/62-bit chains exercise the non-float
        fallback inside the plan.
        """
        moduli = _chain(2 * degree, bits, 2)
        contexts = [NttContext(degree, q) for q in moduli]
        plan = NttPlan(contexts)
        chain = NttChain(contexts)
        x = _limbs(moduli, degree, seed=bits * degree)
        fwd_plan = plan.forward_all(x.copy())
        fwd_chain = chain.forward_all(x.copy())
        assert np.array_equal(fwd_plan, fwd_chain)
        inv_plan = plan.inverse_all(fwd_plan.copy())
        inv_chain = chain.inverse_all(fwd_chain.copy())
        assert np.array_equal(inv_plan, inv_chain)
        assert np.array_equal(inv_plan, x)  # round trip

    @pytest.mark.parametrize("bits", (36, 62))
    def test_backends_match_numpy(self, bits):
        """The backend's NTT entry points agree with ``NttChain``."""
        degree = 1024
        moduli = _chain(2 * degree, bits, 2)
        contexts = [NttContext(degree, q) for q in moduli]
        plan = NttPlan(contexts)
        chain = NttChain(contexts)
        x = _limbs(moduli, degree, seed=17)
        backend = NumpyBackend()
        want_fwd = chain.forward_all(x.copy())
        assert np.array_equal(backend.ntt_forward_all(plan, x.copy()), want_fwd)
        assert np.array_equal(
            backend.ntt_inverse_all(plan, want_fwd.copy()),
            chain.inverse_all(want_fwd.copy()),
        )


# -- BConv parity ------------------------------------------------------------


class TestBconvParity:
    @pytest.mark.parametrize("bits", WORD_PATTERNS)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=5, deadline=None)
    def test_backends_match_legacy_rows(self, bits, seed):
        src = _chain(2 * N, bits, 3)
        dst = _primes(2 * N, bits - 1, 2, exclude=set(src))
        conv = BaseConverter(src, dst, centered=False)
        limbs = _limbs(src, N, seed)
        want = conv._convert_rows_legacy(limbs)
        assert np.array_equal(conv.convert_rows(limbs), want)
        assert np.array_equal(NumpyBackend().bconv(conv, limbs), want)


# -- key-switch inner product parity -----------------------------------------


def _naive_inner(kern, ext, b_stack, a_stack):
    acc0 = kern.mul(ext[0], b_stack[0])
    acc1 = kern.mul(ext[0], a_stack[0])
    for d in range(1, ext.shape[0]):
        acc0 = kern.add(acc0, kern.mul(ext[d], b_stack[d]))
        acc1 = kern.add(acc1, kern.mul(ext[d], a_stack[d]))
    return acc0, acc1


class TestKeyswitchInnerParity:
    @pytest.mark.parametrize("bits", WORD_PATTERNS)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=5, deadline=None)
    def test_backends_match_naive_sum(self, bits, seed):
        moduli = _chain(2 * N, bits, 3)
        kern = kernels.ModulusKernel(moduli)
        digits = 3
        ext = np.stack([_limbs(moduli, N, seed + d) for d in range(digits)])
        b_stack = np.stack([_limbs(moduli, N, seed + 10 + d) for d in range(digits)])
        a_stack = np.stack([_limbs(moduli, N, seed + 20 + d) for d in range(digits)])
        b_shoup_f = (
            kernels.shoup_precompute(b_stack, kern.q).astype(np.float64) * 2.0**-64
        )
        a_shoup_f = (
            kernels.shoup_precompute(a_stack, kern.q).astype(np.float64) * 2.0**-64
        )
        want = _naive_inner(kern, ext, b_stack, a_stack)
        backend = NumpyBackend()
        for shoups in ((None, None), (b_shoup_f, a_shoup_f)):
            got = backend.keyswitch_inner(kern, ext, b_stack, a_stack, *shoups)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])


# -- one scratch workspace ---------------------------------------------------


def _converters():
    """Two converters of different (K, L) shapes."""
    src_a = _chain(2 * N, 36, 3)
    dst_a = _primes(2 * N, 35, 5, exclude=set(src_a))
    src_b = dst_a[:2]
    dst_b = src_a + dst_a[2:]
    return [BaseConverter(src_a, dst_a), BaseConverter(src_b, dst_b)]


def _conversion_jobs(seed: int):
    """Interleaved (converter, limbs) pairs at widths N and 2N (ModDown's)."""
    jobs = []
    for rnd in range(2):
        for conv in _converters():
            for width in (N, 2 * N):
                limbs = _limbs(conv.src_moduli, width, seed + 7 * rnd + width)
                jobs.append((conv, limbs))
    return jobs


def _array_bytes(obj) -> int:
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


class TestWorkspace:
    def test_interleaved_shapes_match_legacy(self):
        for conv, limbs in _conversion_jobs(seed=5):
            want = conv._convert_rows_legacy(limbs)
            assert np.array_equal(conv.convert_rows(limbs), want)

    def test_threads_match_single_thread(self):
        """Each thread has its own workspace: no buffer is shared."""
        import sys
        from concurrent.futures import ThreadPoolExecutor

        jobs = _conversion_jobs(seed=9) * 3

        def run(pair):
            conv, limbs = pair
            kern = kernels.kernel_for(conv.dst_moduli)
            rows = conv.convert_rows(limbs)
            return rows, kern.mul_f(rows, rows), kern.reduce64_f(rows << np.uint64(3))

        want = [run(job) for job in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(run, job) for job in jobs]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for g, w in zip(got, want):
            for a, b in zip(g, w):
                assert np.array_equal(a, b)

    def test_no_per_instance_scratch(self):
        convs = _converters()
        kern = kernels.ModulusKernel(convs[0].dst_moduli)
        before = [_array_bytes(obj) for obj in (*convs, kern)]
        for conv, limbs in _conversion_jobs(seed=3):
            rows = conv.convert_rows(limbs)
            if conv is convs[0]:
                kern.reduce64_f(kern.add(rows, kern.mul_f(rows, rows)))
        assert [_array_bytes(obj) for obj in (*convs, kern)] == before
        for obj in (*convs, kern):
            assert not any(isinstance(v, dict) for v in vars(obj).values())


# -- evaluation keys: quotients made once, with the key ----------------------


def _native36_context():
    from repro.ckks.context import CkksContext
    from repro.params.presets import build_native_ckks_params

    params = build_native_ckks_params(word_bits=36, degree=1 << 10, depth=2)
    return CkksContext(params, seed=5)


class TestEvalKey:
    def test_second_pass_over_ten_keys_recomputes_nothing(
        self, small_context, small_evaluator, monkeypatch
    ):
        ct = small_context.encrypt(np.linspace(-1, 1, small_context.params.slots))
        for r in range(1, 11):  # first pass: keys and plans are made
            small_evaluator.rotate(ct, r)
        calls = []
        real = kernels.shoup_precompute

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(kernels, "shoup_precompute", counting)
        for r in range(1, 11):
            small_evaluator.rotate(ct, r)
        assert calls == []

    @pytest.mark.parametrize("chain", ("ds", "native36"))
    def test_stored_quotients_switch_bit_exact(self, chain, ds_context):
        from repro.ckks.keyswitch import KeySwitcher

        ctx = ds_context if chain == "ds" else _native36_context()
        params = ctx.params
        evk = ctx.keys.relinearization_key()
        assert evk.b_shoup_f is not None and evk.a_shoup_f is not None
        switcher = KeySwitcher(ctx)
        z = np.linspace(-1, 1, params.slots)
        # The top level keeps every q row; a lower one leaves a gap
        # before the aux rows the plan must still gather.
        for level in (params.max_level, 1):
            poly = ctx.encrypt(z, level=level).c1
            plan = switcher._plan(poly.moduli)
            b, a, b_f, a_f = plan.evk_stack(evk)
            for stack, stored in ((b, b_f), (a, a_f)):
                fresh = kernels.shoup_precompute(stack, plan.kern.q)
                assert np.array_equal(stored, fresh.astype(np.float64) * 2.0**-64)
            planned = switcher.switch(poly, evk)
            ctx.ring.use_plans = False
            try:
                legacy = switcher.switch(poly, evk)
            finally:
                ctx.ring.use_plans = True
            for got, want in zip(planned, legacy):
                assert np.array_equal(got.limbs, want.limbs)

    def test_wire_decoded_enrolled_key_switches_like_client_key(self):
        from repro.ckks.context import CkksContext, EvalKey
        from repro.serve import wire
        from repro.serve.offline import ServeOffline

        offline = ServeOffline(word_lengths=(36,), seed=41)
        preset = offline.preset(36)
        tenant = CkksContext(preset.params, seed=42)
        evk = tenant.keys.make_switch_key(preset.batch_public_key())
        ring = preset.context.ring
        decoded = wire.decode_switch_key(wire.encode_switch_key(evk), ring)
        session = offline.enroll(36, 2, tenant.keys.public_key(), decoded)
        assert isinstance(session.evk_in, EvalKey)
        assert np.array_equal(session.evk_in.b_shoup_f, evk.b_shoup_f)
        ct = wire.decode_ciphertext(
            wire.encode_ciphertext(tenant.encrypt(np.ones(preset.slots))), ring
        )
        ev = preset.evaluator
        got = ev.apply_switch_key(ct, session.evk_in)
        want = ev.apply_switch_key(ct, evk)
        assert np.array_equal(got.c0.limbs, want.c0.limbs)
        assert np.array_equal(got.c1.limbs, want.c1.limbs)
        with pytest.raises(ValueError):
            offline.enroll(36, 2, tenant.keys.public_key(), decoded[:-1])

    def test_enroll_refuses_wrong_basis_before_building_kernels(self):
        from repro.ckks.context import CkksContext
        from repro.serve.offline import ServeOffline

        offline = ServeOffline(word_lengths=(36,), seed=43)
        preset = offline.preset(36)
        tenant = CkksContext(preset.params, seed=44)
        evk = tenant.keys.make_switch_key(preset.batch_public_key())
        # Every digit over the full basis minus its last aux prime: the
        # right count, a plausible basis, the wrong one.
        short = range(len(preset.params.full_basis) - 1)
        wrong = [(b_j.keep_limbs(short), a_j.keep_limbs(short)) for b_j, a_j in evk]
        ring = preset.context.ring
        assert wrong[0][0].moduli not in ring._kernels
        before = dict(ring._kernels)
        with pytest.raises(ValueError):
            offline.enroll(36, 2, tenant.keys.public_key(), wrong)
        assert ring._kernels == before


# -- kernel cache plumbing ---------------------------------------------------


class TestRegistry:
    """The ``kernel_for`` LRU: one shared kernel per modulus."""

    def test_kernel_for_lru_identity_and_stats(self):
        q = _chain(2 * N, 36, 1)[0]
        before = kernels.kernel_cache_stats()
        k1 = kernel = kernels.kernel_for(q)
        k2 = kernels.kernel_for(q)
        assert k1 is k2
        after = kernels.kernel_cache_stats()
        assert after["hits"] > before["hits"]
        assert set(after) == {"hits", "misses", "maxsize", "currsize"}
        assert after["currsize"] <= after["maxsize"]
        assert kernel.q == np.uint64(q)


# -- end-to-end: planned evaluator path == legacy path -----------------------


class TestPlannedVsLegacy:
    def test_hmult_and_rotate_bit_exact(self):
        """Same seed, plans on vs off: ciphertext limbs must be identical."""
        from repro.ckks.context import CkksContext
        from repro.ckks.ops import Evaluator
        from repro.params.presets import build_native_ckks_params

        params = build_native_ckks_params(word_bits=36, degree=1 << 10, depth=2)
        saved = os.environ.get("REPRO_KERNEL_PLANS")
        os.environ["REPRO_KERNEL_PLANS"] = "off"
        try:
            ctx_legacy = CkksContext(params, seed=11)
        finally:
            if saved is None:
                os.environ.pop("REPRO_KERNEL_PLANS", None)
            else:
                os.environ["REPRO_KERNEL_PLANS"] = saved
        assert not ctx_legacy.ring.use_plans
        ctx = CkksContext(params, seed=11)
        assert ctx.ring.use_plans

        rng = np.random.default_rng(3)
        z = rng.standard_normal(params.slots) + 1j * rng.standard_normal(
            params.slots
        )
        ct_a, ct_b = ctx.encrypt(z), ctx.encrypt(z)
        la, lb = ctx_legacy.encrypt(z), ctx_legacy.encrypt(z)
        assert np.array_equal(ct_a.c0.limbs, la.c0.limbs)

        ev, ev_legacy = Evaluator(ctx), Evaluator(ctx_legacy)
        for planned, legacy in (
            (ev.multiply(ct_a, ct_b), ev_legacy.multiply(la, lb)),
            (ev.rotate(ct_a, 1), ev_legacy.rotate(la, 1)),
        ):
            assert np.array_equal(planned.c0.limbs, legacy.c0.limbs)
            assert np.array_equal(planned.c1.limbs, legacy.c1.limbs)
