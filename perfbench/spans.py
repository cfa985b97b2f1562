"""Span tracing around the public entry points of each layer.

A :class:`Tracer` replaces each hook point below (a module function or a
class attribute, patched where callers look it up) with a wrapper that
records one span per call: name, start, end, parent span, request id,
benchmark phase, self time and a work count.  Wrappers are installed at
run time, only in a traced process, and removed again by
:meth:`Tracer.uninstall`.  A hook point that no longer exists is listed
in :attr:`Tracer.missing`; its layer then reports nothing.

Spans nest through a stack, so only synchronous callables are hooked:
an ``async`` function would interleave with other tasks on the loop.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path
from typing import Any, Callable

_now = time.perf_counter


def _rows(args: tuple, kwargs: dict) -> int:
    return int(args[2].shape[0])


def _bconv_macs(args: tuple, kwargs: dict) -> int:
    conv, limbs = args[1], args[2]
    return int(limbs.shape[0] * len(getattr(conv, "dst_moduli", ())) * limbs.shape[1])


def _ks_words(args: tuple, kwargs: dict) -> int:
    return int(2 * args[2].size)


def _label(args: tuple, kwargs: dict) -> str | None:
    return kwargs.get("label")


def _plan_jobs(args: tuple, kwargs: dict) -> str:
    return ",".join(job.job_id for job in args[2].jobs)


# (module, attribute path, span name, work count, request id)
HOOKS: list[tuple[str, str, str, Callable | None, Callable | None]] = [
    ("repro.ckks.context", "make_params", "params.build", None, None),
    ("repro.params.presets", "build_native_ckks_params", "params.build", None, None),
    ("repro.params.presets", "build_sharp_setting", "params.build", None, None),
    ("repro.ckks.context", "CkksContext.encode", "ckks.encode", None, None),
    ("repro.ckks.keyswitch", "KeySwitcher.switch", "ckks.keyswitch", None, None),
    ("repro.ckks.linear", "LinearTransform.apply", "ckks.lt", None, None),
    ("repro.ckks.poly_eval", "ChebyshevEvaluator.evaluate", "ckks.evalmod", None, None),
    ("repro.ckks.bootstrap", "Bootstrapper.mod_raise", "ckks.modraise", None, None),
    ("repro.ckks.ops", "Evaluator.multiply", "ckks.hmult", None, None),
    ("repro.ckks.ops", "Evaluator.multiply_plain", "ckks.pmult", None, None),
    ("repro.ckks.ops", "Evaluator.rotate", "ckks.rotate", None, None),
    ("repro.ckks.ops", "Evaluator.conjugate", "ckks.conjugate", None, None),
    ("repro.ckks.ops", "Evaluator.rescale", "ckks.rescale", None, None),
    ("repro.rns.backend", "NumpyBackend.ntt_forward_all", "rns.ntt_fwd", _rows, None),
    ("repro.rns.backend", "NumpyBackend.ntt_inverse_all", "rns.ntt_inv", _rows, None),
    ("repro.rns.backend", "NumpyBackend.bconv", "rns.bconv", _bconv_macs, None),
    ("repro.rns.backend", "NumpyBackend.keyswitch_inner", "rns.ks_inner", _ks_words, None),
    ("repro.rns.backend", "NumpyBackend.mul", "rns.mul", None, None),
    ("repro.rns.backend", "NumpyBackend.add", "rns.add", None, None),
    ("repro.serve.server", "admit_program", "check.admit", None, _label),
    ("repro.check.admission", "certify_for_execution", "sched.certify", None, None),
    ("repro.sched.execute", "execute_scheduled", "sched.execute", None, None),
    ("repro.serve.server", "FheServer._execute_plan", "serve.batch", None, _plan_jobs),
    ("repro.serve.server", "FheServer._execute_scheduled", "serve.program", None, None),
]

# Span record fields (lists, mutated in place while the span is open).
NAME, START, END, PARENT, RID, PHASE, SELF, WORK = range(8)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.phase = "setup"
        self.rid: str | None = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []
        self._wrappers: set[int] = set()
        self._root: int | None = None

    # -- recording ------------------------------------------------------------

    def open(self, name: str, rid: str | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        if rid is None:
            rid = self.spans[parent][RID] if parent >= 0 else self.rid
        # SELF accumulates child time while open; close() turns it into
        # the span's self time.
        self.spans.append([name, _now(), 0.0, parent, rid, self.phase, 0.0, 0])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, work: int = 0) -> None:
        end = _now()
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")
        rec = self.spans[index]
        duration = end - rec[START]
        rec[END] = end
        rec[SELF] = duration - rec[SELF]
        rec[WORK] = work
        if self._stack:
            self.spans[self._stack[-1]][SELF] += duration

    def begin_phase(self, phase: str) -> None:
        """End the current phase's root span and open ``bench.<phase>``.

        Time inside a root span but outside every layer span is the
        root's self time: the untraced remainder of that phase.
        """
        self.end_phase()
        self.phase = phase
        self._root = self.open(f"bench.{phase}")

    def end_phase(self) -> None:
        if self._root is not None:
            self.close(self._root)
            self._root = None

    # -- hooks ------------------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, work_of, rid_of) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name, rid_of(args, kwargs) if rid_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index, work_of(args, kwargs) if work_of else 0)

        return traced

    def install(self) -> None:
        for module_name, path, name, work_of, rid_of in HOOKS:
            try:
                owner: Any = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            if not callable(original):
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(original, name, work_of, rid_of)
            setattr(owner, attr, wrapper)
            self._undo.append((owner, attr, original))
            self._wrappers.add(id(wrapper))

    def check_hooked(self, obj: Any, module_name: str) -> None:
        """List as missing each hook of ``module_name`` that ``obj`` bypasses.

        The ``rns`` hooks patch :class:`NumpyBackend`; a context running
        another backend class calls its own methods, so that layer would
        read 0 without this check.
        """
        for module, path, _name, _work, _rid in HOOKS:
            attr = path.split(".")[-1]
            if module != module_name or f"{module}.{path}" in self.missing:
                continue
            if id(getattr(type(obj), attr, None)) not in self._wrappers:
                self.missing.append(f"{module}.{path} (bypassed by {type(obj).__name__})")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------------

    def layers(self, phase: str) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds, inclusive seconds, work.

        Inclusive time counts only the outermost span of a name, so a
        hook that calls itself is not counted twice.
        """
        out: dict[str, dict[str, float]] = {}
        for rec in self.spans:
            if rec[PHASE] != phase or not rec[END]:
                continue
            row = out.setdefault(
                rec[NAME], {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "work": 0}
            )
            row["calls"] += 1
            row["self_s"] += rec[SELF]
            row["work"] += rec[WORK]
            parent = rec[PARENT]
            while parent >= 0 and self.spans[parent][NAME] != rec[NAME]:
                parent = self.spans[parent][PARENT]
            if parent < 0:
                row["incl_s"] += rec[END] - rec[START]
        return out

    def child_windows(self, parent_name: str, child_name: str, phase: str):
        """``(before, after)`` seconds of each parent outside its child.

        For each ``parent_name`` span that has a ``child_name`` span
        directly inside it: time from the parent's start to the child's
        start, and from the child's end to the parent's end.
        """
        before = after = 0.0
        for rec in self.spans:
            if rec[NAME] != child_name or rec[PHASE] != phase or rec[PARENT] < 0:
                continue
            parent = self.spans[rec[PARENT]]
            if parent[NAME] == parent_name:
                before += rec[START] - parent[START]
                after += parent[END] - rec[END]
        return before, after

    def _top_level(self, phase: str):
        """Closed spans of ``phase`` directly under its ``bench.<phase>`` root."""
        for rec in self.spans:
            if rec[PHASE] == phase and rec[END] and rec[PARENT] >= 0:
                parent = self.spans[rec[PARENT]]
                if parent[PARENT] == -1 and parent[NAME] == f"bench.{phase}":
                    yield rec

    def inside(self, windows: list[tuple[float, float]], phase: str) -> float:
        """Seconds of ``windows`` that some layer span of ``phase`` covers.

        ``windows`` are ``(start, end)`` readings of the workload's own
        clock around each timed unit; the gap between this and their
        total length is timed work that ran outside every hook.
        """
        covered = 0.0
        for rec in self._top_level(phase):
            for start, end in windows:
                covered += max(0.0, min(end, rec[END]) - max(start, rec[START]))
        return covered

    def child_time(self, parent_name: str, phase: str) -> float:
        """Seconds spent in spans directly inside ``parent_name`` spans."""
        return sum(
            rec[END] - rec[START]
            for rec in self.spans
            if rec[PHASE] == phase and rec[END] and rec[PARENT] >= 0
            and self.spans[rec[PARENT]][NAME] == parent_name
        )

    def summary(self) -> dict[str, Any]:
        """Per phase: wall time, busy time, untraced remainder, layer table.

        ``busy_s`` is the time inside top-level layer spans and
        ``untraced_s`` the rest of the phase, so the two add up to
        ``wall_s`` by construction, as do the layer self times plus
        ``untraced_s``.
        """
        phases: dict[str, dict[str, Any]] = {}
        for rec in self.spans:
            if rec[PARENT] == -1 and rec[NAME] == f"bench.{rec[PHASE]}" and rec[END]:
                row = phases.setdefault(rec[PHASE], {"wall_s": 0.0, "untraced_s": 0.0})
                row["wall_s"] += rec[END] - rec[START]
                row["untraced_s"] += rec[SELF]
        for phase, row in phases.items():
            row["busy_s"] = row["wall_s"] - row["untraced_s"]
            layers = self.layers(phase)
            layers.pop(f"bench.{phase}", None)
            row["layers"] = layers
            row["ingress_s"], row["egress_s"] = self.child_windows(
                "serve.batch", "serve.program", phase
            )
        return {"phases": phases, "missing_hooks": self.missing, "spans": len(self.spans)}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "rid", "phase",
                               "self_s", "work"],
                    "missing_hooks": self.missing,
                    "spans": self.spans,
                },
                fh,
            )
