"""Per-layer timing by wrapping softmech's public functions from outside.

A function is wrapped in every softmech module whose globals hold it, because
that is where a caller looks the name up (``smoothness`` calls its own
``spawn_rng`` binding, not ``seeding.spawn_rng``).  ``MechanismSpec.__call__``
is wrapped on the class and keyed by kind and dimension.  Each wrapped call
records its duration and its self time: the duration minus the part covered
by wrapped calls inside it.  Recording happens only inside an operation, so
the workloads' own checks never show up.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (module, function) pairs wrapped under the key "<module>.<function>".
TRACED = (
    ("simplex", "finalize_distribution"),
    ("simplex", "check_distribution"),
    ("seeding", "spawn_rng"),
    ("distances", "lp_distance"),
    ("distances", "renyi_divergence"),
    ("smoothness", "empirical_lipschitz"),
    ("smoothness", "exp_l1_lb_witness"),
    ("smoothness", "sparsegen_lb_witness"),
    ("smmatrix", "build_softmax_matrix"),
    ("classification", "loss_total"),
    ("classification", "loss_grad"),
    ("classification", "subgradient_check"),
    ("submodular", "marginal_gains"),
    ("submodular", "manipulation_records"),
    ("auctions", "revenue_of_reserve"),
    ("auctions", "ic_audit"),
    ("cli", "main"),
)


class Tracer:
    """Installs the wrappers; collects per-call durations and per-operation
    self times while an operation is open."""

    def __init__(self):
        self.durations: dict[str, array] = defaultdict(lambda: array("d"))
        self.self_per_op: dict[str, list[float]] = defaultdict(list)
        self._op_self: dict[str, float] = defaultdict(float)
        self._stack: list[float] = []
        self._active = False
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, key_of):
        def traced(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            key = key_of(args)
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                inner = self._stack.pop()
                if self._stack:
                    self._stack[-1] += dt
                self.durations[key].append(dt)
                self._op_self[key] += dt - inner

        return traced

    def _patch(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "softmech" or n.startswith("softmech.")]
        for mod_name, fn_name in TRACED:
            fn = getattr(sys.modules[f"softmech.{mod_name}"], fn_name)
            key = f"{mod_name}.{fn_name}"
            wrapped = self._wrap(fn, lambda args, key=key: key)
            for mod in modules:
                if mod.__dict__.get(fn_name) is fn:
                    self._patch(mod, fn_name, wrapped)
        spec = sys.modules["softmech.mechanisms"].MechanismSpec
        self._patch(spec, "__call__", self._wrap(spec.__call__, lambda args: f"mechanisms.{args[0].kind}.d{len(args[1])}"))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def begin_op(self) -> None:
        self._active = True

    def end_op(self) -> None:
        self._active = False
        for key, t in self._op_self.items():
            self.self_per_op[key].append(t)
        self._op_self.clear()

    def calls(self, prefix: str) -> int:
        return sum(len(v) for k, v in self.durations.items() if k == prefix or k.startswith(prefix + "."))

    def call_us(self, key: str) -> float:
        """Median duration of one call in microseconds; 0 if never called."""
        d = self.durations.get(key)
        return float(np.median(d)) * 1e6 if d else 0.0

    def self_ms(self, key: str) -> float:
        """Median over operations of the key's self time in milliseconds; 0 if never called."""
        s = self.self_per_op.get(key)
        return float(np.median(s)) * 1e3 if s else 0.0

    def summary(self) -> dict:
        """Every traced key, for the trace file."""
        return {
            key: {
                "calls": len(d),
                "call_us_p50": float(np.median(d)) * 1e6,
                "call_us_p90": float(np.percentile(d, 90)) * 1e6,
                "total_s": float(np.sum(d)),
                "self_s": float(np.sum(self.self_per_op.get(key, []))),
            }
            for key, d in sorted(self.durations.items())
        }
