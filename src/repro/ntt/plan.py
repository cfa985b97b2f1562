"""Precomputed NTT plans: fused tables, scratch reuse, zero re-dispatch.

An :class:`NttPlan` freezes everything the hot transform loop needs for
one (moduli chain, degree) pair at context-build time: stacked Shoup
twiddle tables, their float64 mirrors for the float-quotient lane, the
bit-reversal permutation, broadcast-ready modulus columns, and
preallocated scratch buffers.  ``forward_all``/``inverse_all`` then run
in-place strided butterfly passes with `out=` ufuncs — no table
recomputation, no per-call shape dispatch, no intermediate allocation.

The float-quotient lane (``repro.rns.kernels.FLOAT_QHAT_LIMIT``)
replaces the 128-bit emulated Shoup high product with a single float64
multiply whose truncation is provably within one of the integer Shoup
quotient for ``q < 2**48`` (see ``repro.check.bounds``); the remainder
lands in ``(-q, 3q)`` wrapped mod ``2**64`` and is repaired with the
``min(r, r + q)`` wrap trick plus a conditional subtraction.  Lazy
representatives on
this lane may differ from the integer path by a multiple of ``q``, but
canonical outputs are bit-identical — the parity suite asserts exact
equality against :class:`repro.ntt.reference.NttChain`.

Chains containing a modulus outside ``[2**14, 2**48)`` (the 50/62-bit
presets) fall back to the reference chain transforms behind the same
interface.
"""

from __future__ import annotations

import numpy as np

from repro.rns import kernels
from repro.ntt.reference import NttChain, NttContext

__all__ = ["NttPlan"]

_INV_2_64 = 2.0**-64

# Butterfly span at which the transform switches to the transposed chunk
# layout (see NttPlan._build_tail).
_TAIL_T = 32


class NttPlan:
    """Fused, preallocated (L, N) limb-matrix transform plan.

    Built once per (chain, degree) by :meth:`repro.rns.poly.RingContext.plan`
    and cached for the life of the ring; the per-modulus twiddle tables
    are shared with the cached :class:`NttContext` objects, so a plan
    costs one ``np.stack`` per table plus scratch buffers.

    Plans are single-threaded objects (scratch is reused across calls).
    """

    def __init__(self, contexts: list[NttContext]):
        if not contexts:
            raise ValueError("a plan needs at least one NTT context")
        degree = contexts[0].degree
        if any(c.degree != degree for c in contexts):
            raise ValueError("all contexts must share one degree")
        self.degree = degree
        self.moduli = tuple(c.modulus for c in contexts)
        self.float_lane = all(
            kernels.FLOAT_BARRETT_MIN <= q < kernels.FLOAT_QHAT_LIMIT
            for q in self.moduli
        )
        self._chain = NttChain(list(contexts))
        self._rev = contexts[0]._rev
        self._tail = False
        if not self.float_lane:
            return

        rows = len(contexts)
        n = degree
        q = np.array(self.moduli, dtype=np.uint64)
        self._q3 = q.reshape(-1, 1, 1)
        self._two_q3 = (q * np.uint64(2)).reshape(-1, 1, 1)
        self._q4 = q.reshape(-1, 1, 1, 1)
        self._two_q4 = (q * np.uint64(2)).reshape(-1, 1, 1, 1)
        self._q2 = q.reshape(-1, 1)
        self._two_q2 = (q * np.uint64(2)).reshape(-1, 1)
        self._psi = np.stack([c._psi_rev for c in contexts])
        self._psi_f = (
            np.stack([c._psi_rev_shoup for c in contexts]).astype(np.float64)
            * _INV_2_64
        )
        self._psi_inv = np.stack([c._psi_inv_rev for c in contexts])
        self._psi_inv_f = (
            np.stack([c._psi_inv_rev_shoup for c in contexts]).astype(np.float64)
            * _INV_2_64
        )
        self._n_inv = np.array([c.n_inv for c in contexts], dtype=np.uint64).reshape(
            -1, 1
        )
        self._n_inv_f = (
            np.array([c._n_inv_shoup for c in contexts], dtype=np.uint64)
            .astype(np.float64)
            .reshape(-1, 1)
            * _INV_2_64
        )
        # Last-GS-stage twiddles with n^{-1} folded in: the inverse's
        # final scaling comes for free inside the stage's Shoup multiply
        # (the u half pays one extra multiply by n^{-1} alone).
        w_last = np.array(
            [
                (int(c._psi_inv_rev[1]) * int(c.n_inv)) % c.modulus
                for c in contexts
            ],
            dtype=np.uint64,
        )
        self._last3 = w_last.reshape(-1, 1, 1)
        self._last3_f = (
            np.array(
                [(int(w) << 64) // c.modulus for w, c in zip(w_last, contexts)],
                dtype=np.uint64,
            )
            .astype(np.float64)
            .reshape(-1, 1, 1)
            * _INV_2_64
        )
        self._ninv3 = self._n_inv.reshape(-1, 1, 1)
        self._ninv3_f = self._n_inv_f.reshape(-1, 1, 1)
        # Flat scratch, reshaped to the (rows, m, t) stage view on use.
        half = rows * (n // 2)
        self._h0 = np.empty(half, dtype=np.uint64)
        self._h1 = np.empty(half, dtype=np.uint64)
        self._h2 = np.empty(half, dtype=np.uint64)
        self._hf = np.empty(half, dtype=np.float64)
        self._c0 = np.empty((rows, n), dtype=np.uint64)
        self._cf = np.empty((rows, n), dtype=np.float64)
        self._build_tail(contexts)

    def _build_tail(self, contexts: list[NttContext]) -> None:
        """Precompute the transposed-layout tables for the tail stages.

        Once the butterfly span ``t`` drops to ``_TAIL_T`` every
        remaining stage operates within contiguous chunks of ``2 * T``
        elements, but the ufunc inner loops shrink to ``t`` elements and
        strided access dominates (measured ~3x slower per stage than the
        wide early stages).  Transposing those chunks once — positions
        become the slow axis, the ``C = n / 2T`` chunk index the fast
        one — restores long contiguous inner loops for all
        ``log2(T) + 1`` tail stages.  Twiddles are re-laid-out here at
        build time; the chunk transpose composes with the bit-reversal
        gather on both ends, so it costs one extra copy per transform.
        """
        n = self.degree
        self._tail = self.float_lane and n >= 32 * _TAIL_T
        if not self._tail:
            return
        rows = len(self.moduli)
        t_cap = _TAIL_T
        chunk = 2 * t_cap
        c_count = n // chunk
        rev = self._rev

        def relayout(table: np.ndarray, m: int, b: int) -> np.ndarray:
            # table[:, m:2m] indexed by group g = c*B + b -> (rows, B, 1, C)
            s = table[:, m : 2 * m].reshape(rows, c_count, b)
            return np.ascontiguousarray(s.transpose(0, 2, 1))[:, :, None, :]

        self._tail_psi = {}
        self._tail_psi_f = {}
        self._tail_psi_inv = {}
        self._tail_psi_inv_f = {}
        t = t_cap
        while t >= 1:
            m = n // (2 * t)
            b = t_cap // t
            self._tail_psi[t] = relayout(self._psi, m, b)
            self._tail_psi_f[t] = relayout(self._psi_f, m, b)
            self._tail_psi_inv[t] = relayout(self._psi_inv, m, b)
            self._tail_psi_inv_f[t] = relayout(self._psi_inv_f, m, b)
            t //= 2
        # Forward output: natural j reads transposed flat p*C + c where
        # rev[j] = c*chunk + p.  Inverse input: transposed (p, c) reads
        # limbs[rev[c*chunk + p]].
        self._fwd_perm = (rev % chunk) * c_count + rev // chunk
        self._inv_perm = rev.reshape(c_count, chunk).T.reshape(-1)

    # -- float-lane Shoup stage multiply -----------------------------------

    def _shoup_stage(self, v, s, s_f, out, tmp, f, q, two_q):
        """``v * s mod q`` into ``out``, lazy ``[0, 2q)``, all in scratch.

        ``v`` holds values below ``4q``; the float64 quotient is within
        one of the integer Shoup quotient, so the wrapped remainder sits
        in ``(-q, 3q)`` and one wrap fix plus one conditional subtract
        repair it.
        """
        np.multiply(v, s_f, out=f)
        np.copyto(tmp, f, casting="unsafe")  # truncated quotient
        tmp *= q
        np.multiply(v, s, out=out)
        out -= tmp  # remainder, wrapped from (-q, 3q)
        np.add(out, q, out=tmp)
        np.minimum(out, tmp, out=out)  # [0, 3q)
        np.subtract(out, two_q, out=tmp)
        np.minimum(out, tmp, out=out)  # [0, 2q)

    def _butterfly_fwd(self, u, v, s, s_f, shape, q, two_q):
        """One CT stage: lazy inputs below ``4q``, outputs below ``4q``."""
        ub = self._h0.reshape(shape)
        vb = self._h1.reshape(shape)
        tb = self._h2.reshape(shape)
        fb = self._hf.reshape(shape)
        np.subtract(u, two_q, out=tb)
        np.minimum(u, tb, out=ub)  # [0, 2q)
        self._shoup_stage(v, s, s_f, vb, tb, fb, q, two_q)
        np.add(ub, vb, out=u)  # < 4q
        np.subtract(ub, vb, out=v)
        v += two_q  # u + 2q - v, < 4q

    def _butterfly_inv(self, u, v, s, s_f, shape, q, two_q):
        """One GS stage: lazy inputs below ``2q``, outputs below ``2q``."""
        total = self._h0.reshape(shape)
        diff = self._h1.reshape(shape)
        tb = self._h2.reshape(shape)
        fb = self._hf.reshape(shape)
        np.add(u, v, out=total)  # < 4q
        np.subtract(u, v, out=diff)
        diff += two_q  # < 4q
        np.subtract(total, two_q, out=tb)
        np.minimum(total, tb, out=u)  # [0, 2q)
        self._shoup_stage(diff, s, s_f, total, tb, fb, q, two_q)
        v[...] = total

    # -- transforms --------------------------------------------------------

    def forward_all(self, limbs: np.ndarray) -> np.ndarray:
        """Forward-transform every limb row; natural order in and out."""
        if not self.float_lane:
            return self._chain.forward_all(limbs)
        rows, n = limbs.shape
        a = np.array(limbs, dtype=np.uint64)
        t = n
        m = 1
        floor = _TAIL_T if self._tail else 0
        while m < n and t > 2 * floor:
            t //= 2
            view = a.reshape(rows, m, 2 * t)
            self._butterfly_fwd(
                view[:, :, :t],
                view[:, :, t:],
                self._psi[:, m : 2 * m, None],
                self._psi_f[:, m : 2 * m, None],
                (rows, m, t),
                self._q3,
                self._two_q3,
            )
            m *= 2
        if self._tail:
            chunk = 2 * _TAIL_T
            c_count = n // chunk
            a = np.ascontiguousarray(
                a.reshape(rows, c_count, chunk).transpose(0, 2, 1)
            )
            ts = _TAIL_T
            while ts >= 1:
                blocks = _TAIL_T // ts
                view = a.reshape(rows, blocks, 2 * ts, c_count)
                self._butterfly_fwd(
                    view[:, :, :ts, :],
                    view[:, :, ts:, :],
                    self._tail_psi[ts],
                    self._tail_psi_f[ts],
                    (rows, blocks, ts, c_count),
                    self._q4,
                    self._two_q4,
                )
                ts //= 2
            a = a.reshape(rows, n)
            perm = self._fwd_perm
        else:
            perm = self._rev
        np.subtract(a, self._two_q2, out=self._c0)
        np.minimum(a, self._c0, out=a)
        np.subtract(a, self._q2, out=self._c0)
        np.minimum(a, self._c0, out=a)
        return a[:, perm]

    def inverse_all(self, limbs: np.ndarray) -> np.ndarray:
        """Inverse-transform every limb row; natural order in and out."""
        if not self.float_lane:
            return self._chain.inverse_all(limbs)
        rows, n = limbs.shape
        t = 1
        m = n
        if self._tail:
            chunk = 2 * _TAIL_T
            c_count = n // chunk
            a = np.asarray(limbs, dtype=np.uint64)[:, self._inv_perm]
            while t <= _TAIL_T:
                blocks = _TAIL_T // t
                view = a.reshape(rows, blocks, 2 * t, c_count)
                self._butterfly_inv(
                    view[:, :, :t, :],
                    view[:, :, t:, :],
                    self._tail_psi_inv[t],
                    self._tail_psi_inv_f[t],
                    (rows, blocks, t, c_count),
                    self._q4,
                    self._two_q4,
                )
                t *= 2
                m //= 2
            a = np.ascontiguousarray(
                a.reshape(rows, chunk, c_count).transpose(0, 2, 1)
            ).reshape(rows, n)
        else:
            a = np.asarray(limbs, dtype=np.uint64)[:, self._rev]
        while m > 2:
            h = m // 2
            view = a.reshape(rows, h, 2 * t)
            self._butterfly_inv(
                view[:, :, :t],
                view[:, :, t:],
                self._psi_inv[:, h : 2 * h, None],
                self._psi_inv_f[:, h : 2 * h, None],
                (rows, h, t),
                self._q3,
                self._two_q3,
            )
            t *= 2
            m = h
        # Fused last stage: u' = (u + v) * n^{-1}, v' = (u - v) * s_1 *
        # n^{-1}, both canonicalized in place of the separate n^{-1}
        # fold the plain GS recursion would need.
        view = a.reshape(rows, 1, n)
        u = view[:, :, :t]
        v = view[:, :, t:]
        shape = (rows, 1, t)
        total = self._h0.reshape(shape)
        diff = self._h1.reshape(shape)
        tb = self._h2.reshape(shape)
        fb = self._hf.reshape(shape)
        np.add(u, v, out=total)  # < 4q
        np.subtract(u, v, out=diff)
        diff += self._two_q3  # < 4q
        self._shoup_stage(
            total, self._ninv3, self._ninv3_f, total, tb, fb,
            self._q3, self._two_q3,
        )
        np.subtract(total, self._q3, out=tb)
        np.minimum(total, tb, out=u)  # canonical
        self._shoup_stage(
            diff, self._last3, self._last3_f, diff, tb, fb,
            self._q3, self._two_q3,
        )
        np.subtract(diff, self._q3, out=tb)
        np.minimum(diff, tb, out=v)  # canonical
        return a
