"""Homomorphic linear transforms on slots (BSGS matrix-vector).

A complex matrix ``M`` acts on a ciphertext's slot vector as
``z -> M z`` via the diagonal method:  ``M z = sum_d diag_d(M) *
rot_d(z)``, grouped baby-step/giant-step so only ``O(sqrt(n))``
rotations are needed (paper S5's BSGS subroutine — the bootstrapping
phase whose ``bs``/``gs`` split SHARP tunes to its memory capacity).

R-linear maps that also involve the conjugate (needed by CoeffToSlot /
SlotToCoeff) carry a second matrix applied to ``conj(z)``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from repro.ckks.cipher import Ciphertext, Plaintext
from repro.ckks.ops import Evaluator

__all__ = ["LinearTransform", "bsgs_split"]


def bsgs_split(n_diagonals: int, baby: int | None = None) -> tuple[int, int]:
    """(bs, gs) split with ``bs * gs >= n_diagonals``.

    Defaults to the balanced ``bs = gs = sqrt(D)`` the paper calls the
    computational optimum; SHARP's memory-capacity-aware fine-tuning
    picks a smaller ``bs`` instead (modeled in
    :mod:`repro.analysis.bsgs`).
    """
    if baby is None:
        baby = 1 << round(math.log2(max(1.0, math.sqrt(n_diagonals))))
    baby = max(1, min(baby, n_diagonals))
    giant = math.ceil(n_diagonals / baby)
    return baby, giant


# One matrix's BSGS schedule: the baby rotations it needs, then per
# giant step ``i`` the ``(j, pre-rolled diagonal)`` terms it sums.
_Giants = list[tuple[int, list[tuple[int, np.ndarray]]]]
_Part = tuple[int, list[int], _Giants]


@dataclass
class LinearTransform:
    """A (possibly conjugate-carrying) slot-space linear map.

    The BSGS diagonals are constants: they are extracted and pre-rolled
    once, and their encoded plaintexts are kept for the one ``(context,
    level, input scale, output scale)`` the transform last ran at — a
    bootstrapper applies each transform at a fixed point, so every call
    after the first reuses the set.  Another point re-encodes and
    replaces it, which keeps memory bounded.
    """

    matrix: np.ndarray  # applied to z
    conj_matrix: np.ndarray | None = None  # applied to conj(z)
    baby_steps: int | None = None
    _parts: list[_Part] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _encoded: tuple[tuple, list[list[list[Plaintext]]]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        self.matrix = m
        if self.conj_matrix is not None:
            c = np.asarray(self.conj_matrix, dtype=np.complex128)
            if c.shape != m.shape:
                raise ValueError("conjugate matrix shape mismatch")
            self.conj_matrix = c

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def reference_apply(self, z: np.ndarray) -> np.ndarray:
        out = self.matrix @ z
        if self.conj_matrix is not None:
            out = out + self.conj_matrix @ np.conj(z)
        return out

    # -- diagonal extraction ------------------------------------------------------

    @staticmethod
    def _diagonals(matrix: np.ndarray, tol: float = 0.0) -> dict[int, np.ndarray]:
        n = matrix.shape[0]
        j = np.arange(n)
        out = {}
        for d in range(n):
            diag = matrix[j, (j + d) % n]
            if tol == 0.0 or np.max(np.abs(diag)) > tol:
                out[d] = diag
        return out

    def _bsgs_parts(self) -> list[_Part]:
        """Per matrix: needed baby steps and pre-rolled diagonals (built once)."""
        if self._parts is None:
            n = self.size
            bs, gs = bsgs_split(n, self.baby_steps)
            matrices = [self.matrix]
            if self.conj_matrix is not None:
                matrices.append(self.conj_matrix)
            self._parts = []
            for matrix in matrices:
                scale_cut = 1e-14 * (np.max(np.abs(matrix)) + 1e-300)
                diags = self._diagonals(matrix, tol=scale_cut)
                giants: _Giants = []
                for i in range(gs):
                    # Pre-rotate each diagonal so the outer rotation by
                    # i*bs lands it in place.
                    terms = [
                        (j, np.roll(diags[i * bs + j], i * bs))
                        for j in range(bs)
                        if i * bs + j in diags
                    ]
                    if terms:
                        giants.append((i, terms))
                babies = sorted({d % bs for d in diags})
                self._parts.append((bs, babies, giants))
        return self._parts

    def _plaintexts(
        self, ev: Evaluator, ct: Ciphertext, target_scale: float
    ) -> list[list[list[Plaintext]]]:
        """Encoded diagonals for this application point (cached, one set)."""
        key = (ev.context, ct.level, ct.scale, target_scale)
        if self._encoded is None or self._encoded[0] != key:
            step_scale = ev.params.step_at(ct.level).scale
            pt_scale = target_scale * step_scale / ct.scale
            encoded = [
                [
                    [
                        ev.context.encode(diag, level=ct.level, scale=pt_scale)
                        for _, diag in terms
                    ]
                    for _, terms in giants
                ]
                for _, _, giants in self._bsgs_parts()
            ]
            self._encoded = (key, encoded)
        return self._encoded[1]

    # -- homomorphic application -----------------------------------------------------

    def apply(
        self, ev: Evaluator, ct: Ciphertext, output_scale: float | None = None
    ) -> Ciphertext:
        """Evaluate the transform; consumes exactly one level.

        ``output_scale`` sets the exact scale of the result (default:
        the input's scale).  Bootstrapping uses this to move a
        ciphertext between the normal working scale and the larger
        EvalMod scale: the diagonal plaintexts are encoded at whatever
        scale makes the post-rescale result land exactly there.
        """
        if ev.params.slots != self.size:
            raise ValueError("transform size must equal the slot count")
        bases = [ct]
        if self.conj_matrix is not None:
            bases.append(ev.conjugate(ct))
        target_scale = output_scale if output_scale is not None else ct.scale
        plaintexts = self._plaintexts(ev, ct, target_scale)

        acc: Ciphertext | None = None
        for (bs, babies, giants), base, part_pts in zip(
            self._bsgs_parts(), bases, plaintexts
        ):
            # Baby rotations rot_j(base) for the needed j in [0, bs).
            baby_cts = {j: ev.rotate(base, j) if j else base for j in babies}
            for (i, terms), pts in zip(giants, part_pts):
                inner = functools.reduce(
                    ev.add,
                    (
                        ev.multiply_plain(baby_cts[j], pt, rescale=False)
                        for (j, _), pt in zip(terms, pts)
                    ),
                )
                rescaled = ev.rescale(inner)
                rescaled = Ciphertext(
                    rescaled.c0, rescaled.c1, rescaled.level, target_scale
                )
                rotated = ev.rotate(rescaled, i * bs) if i * bs else rescaled
                acc = rotated if acc is None else ev.add(acc, rotated)
        if acc is None:
            raise ValueError("transform is numerically zero")
        return acc
