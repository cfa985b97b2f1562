"""The kernel backend: the hot operations of the RNS-CKKS evaluator.

:class:`NumpyBackend` owns elementwise modular mul/add over an
``(L, N)`` limb matrix, the batched forward/inverse NTT over a
precomputed :class:`~repro.ntt.plan.NttPlan`, base conversion through a
:class:`~repro.rns.bconv.BaseConverter`, and the key-switch inner
product over the digit decomposition.  Every ``RingContext`` builds one
and every polynomial op dispatches through it, so these six methods are
the single choke point for kernel work.

It uses the float-quotient lane (``kernels.FLOAT_QHAT_LIMIT``) for
variable products and the fused key-switch inner product when the
chain's bounds certificate allows it; it is bit-exact with the legacy
per-limb paths by construction (canonical residues are unique), which
``tests/test_backends.py`` checks across the 28/36/50/62-bit presets.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.rns import kernels

if TYPE_CHECKING:
    from repro.ntt.plan import NttPlan
    from repro.rns.bconv import BaseConverter
    from repro.rns.kernels import ModulusKernel

__all__ = ["NumpyBackend"]


class NumpyBackend:
    """Single-process vectorized kernels (float-quotient lane where safe)."""

    name = "numpy"

    def mul(self, kern: ModulusKernel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if kern.float_ok and kern.split:
            return kern.mul_f(a, b)
        return kern.mul(a, b)

    def add(self, kern: ModulusKernel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return kern.add(a, b)

    def ntt_forward_all(self, plan: NttPlan, limbs: np.ndarray) -> np.ndarray:
        return plan.forward_all(limbs)

    def ntt_inverse_all(self, plan: NttPlan, limbs: np.ndarray) -> np.ndarray:
        return plan.inverse_all(limbs)

    def bconv(self, conv: BaseConverter, limbs: np.ndarray) -> np.ndarray:
        return conv.convert_rows(limbs)

    @kernels._wrapping
    def keyswitch_inner(
        self,
        kern: ModulusKernel,
        ext: np.ndarray,
        b_stack: np.ndarray,
        a_stack: np.ndarray,
        b_shoup_f: np.ndarray | None = None,
        a_shoup_f: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(sum_d ext_d * b_d, sum_d ext_d * a_d)`` mod the chain.

        The fused paths keep the ``D`` digit products lazy, sum them as
        plain uint64 (the gates guarantee no wraparound), and pay one
        float-Barrett reduction per output row — versus the legacy
        ``2D`` canonical multiplies plus ``2(D-1)`` modular additions.
        When the caller supplies precomputed per-element float Shoup
        quotients for the (constant) evk stacks, each digit product is a
        6-pass Shoup multiply left lazy in ``[0, 3q)`` instead of the
        ~3x more expensive variable split product.
        """
        digits = ext.shape[0]
        if (
            b_shoup_f is not None
            and a_shoup_f is not None
            and kern.float_ok
            and digits * 3 * int(kern.q_max) < (1 << 63)
        ):
            # (D, E, N) intermediates in BConv's workspace slots: the
            # two never nest, and both hold ``acc`` across a kernel call.
            f = kernels.workspace(3, ext.shape, np.float64)
            qhat = kernels.workspace(4, ext.shape, np.uint64)
            r = kernels.workspace(5, ext.shape, np.uint64)
            acc = kernels.workspace(6, ext.shape[1:], np.uint64)
            outs = []
            for stack, shoup_f in ((b_stack, b_shoup_f), (a_stack, a_shoup_f)):
                np.multiply(ext, shoup_f, out=f)
                np.copyto(qhat, f, casting="unsafe")
                qhat *= kern.q
                np.multiply(ext, stack, out=r)
                r -= qhat
                np.add(r, kern.q, out=qhat)
                np.minimum(r, qhat, out=r)  # wrap fix: [0, 3q)
                # Unrolled digit sum, < digits*3*q < 2**63.
                if digits == 1:
                    np.copyto(acc, r[0])
                else:
                    np.add(r[0], r[1], out=acc)
                    for d in range(2, digits):
                        acc += r[d]
                outs.append(kern.reduce64_f(acc))
            return outs[0], outs[1]
        fused = (
            kern.float_ok
            and kern.split
            and digits * 2 * int(kern.q_max) < (1 << 63)
        )
        if fused:
            t0 = kern.mul_f(ext, b_stack, lazy=True).sum(axis=0)
            t1 = kern.mul_f(ext, a_stack, lazy=True).sum(axis=0)
            return kern.reduce64_f(t0), kern.reduce64_f(t1)
        acc0 = kern.mul(ext[0], b_stack[0])
        acc1 = kern.mul(ext[0], a_stack[0])
        for d in range(1, digits):
            acc0 = kern.add(acc0, kern.mul(ext[d], b_stack[d]))
            acc1 = kern.add(acc1, kern.mul(ext[d], a_stack[d]))
        return acc0, acc1
