"""Spans around the calls into each isoshape layer, for the traced run.

The tracer replaces module-level names that the consumer modules look up
at call time (for example ``isoshape.optimize.pair_sum``) with wrappers
that record one span per call: name, start, end, its own id, the id of
the enclosing span on the same thread, the thread, and an optional work
count (kernel pairs, samples, iterations).  isoshape itself is not
edited.  The parent stack is thread-local because ``sweep_gamma`` runs
its fresh starts on worker threads; spans opened on a worker have no
parent, and the sweep's concurrency is computed from interval overlap.

Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from dataclasses import dataclass


def _pair_sum_work(args, result):
    rows = args["XA"].shape[0]
    cols = args["XB"].shape[0]
    return rows * cols * len(args["h_levels"]) / 1e6


def _field_work(args, result):
    n = args["X"].shape[0]
    return n * n * len(args["h_levels"]) / 1e6


def _samples_work(args, result):
    return args["n_samples"] / 1e6


def _iterations_work(args, result):
    return result[1].iterations


# (module, attribute looked up by that module, span name, work count).
# One span name may be installed in several consumer modules: each module
# binds its own reference at import time, so each must be wrapped.
LAYERS = (
    ("energy", "pair_sum", "energy.value", _pair_sum_work),
    ("optimize", "pair_sum", "energy.value", _pair_sum_work),
    ("fuglede", "pair_sum", "energy.value", _pair_sum_work),
    ("optimize", "pair_potential_field", "energy.field", _field_work),
    ("energy", "weighted_perimeter", "energy.perimeter", None),
    ("optimize", "weighted_perimeter", "energy.perimeter", None),
    ("fuglede", "weighted_perimeter", "energy.perimeter", None),
    ("energy", "riesz_self", "energy.riesz_self", None),
    ("oracle", "riesz_self", "energy.riesz_self", None),
    ("energy", "interaction", "energy.interaction", None),
    ("energy", "total_energy", "energy.total_energy", None),
    ("optimize", "total_energy", "energy.total_energy", None),
    ("cli", "total_energy", "energy.total_energy", None),
    ("optimize", "minimize", "optimize.minimize", _iterations_work),
    ("cli", "minimize", "optimize.minimize", _iterations_work),
    ("optimize", "_objective", "optimize.objective", None),
    ("optimize", "shape_gradient", "optimize.gradient", None),
    ("optimize", "_h1_operator", "optimize.precond", None),
    ("optimize", "cho_factor", "optimize.precond", None),
    ("optimize", "cho_solve", "optimize.precond", None),
    ("optimize", "sweep_gamma", "optimize.sweep", None),
    ("cli", "sweep_gamma", "optimize.sweep", None),
    ("fuglede", "deficit_report", "fuglede.deficit_report", None),
    ("cli", "deficit_report", "fuglede.deficit_report", None),
    ("fuglede", "riesz_deficit", "fuglede.riesz_deficit", None),
    ("oracle", "mc_riesz", "oracle.mc_riesz", _samples_work),
    ("oracle", "rasterize", "oracle.rasterize", None),
    ("oracle", "raster_measures", "oracle.raster_measures", None),
    ("oracle", "run_raster_agreement", "oracle.check.run_raster_agreement", None),
    ("oracle", "run_v_lipschitz", "oracle.check.run_v_lipschitz", None),
    ("oracle", "run_rel_isop", "oracle.check.run_rel_isop", None),
    ("oracle", "run_en_lower_bound", "oracle.check.run_en_lower_bound", None),
    ("geometry", "make_grid", "geometry.make_grid", None),
    ("oracle", "make_grid", "geometry.make_grid", None),
    ("cli", "make_grid", "geometry.make_grid", None),
    ("geometry", "radial_at_directions", "geometry.radial_at_directions", None),
    ("oracle", "radial_at_directions", "geometry.radial_at_directions", None),
    ("geometry", "membership", "geometry.membership", None),
    ("optimize", "membership", "geometry.membership", None),
    ("oracle", "membership", "geometry.membership", None),
    ("cli", "main", "cli.main", None),
)


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    id: int
    parent: int
    thread: int
    work: float

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs the LAYERS wrappers and collects their spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, work):
        sig = inspect.signature(fn) if work is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else 0
            with self._lock:
                sid = next(self._ids)
            stack.append(sid)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                amount = 0.0
                if sig is not None and result is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    amount = float(work(bound.arguments, result))
                span = Span(name, t0, t1, sid, parent,
                            threading.get_ident(), amount)
                with self._lock:
                    self.spans.append(span)

        return traced

    def install(self):
        """Wrap every LAYERS name; a name a module lacks is skipped and
        recorded in ``missing``."""
        self.missing = []
        for mod_name, attr, name, work in LAYERS:
            module = importlib.import_module(f"isoshape.{mod_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"isoshape.{mod_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, work))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved = []


def _self_time(span: Span, children: dict) -> float:
    # children of one span run on its thread, one after another
    return span.dur - sum(c.dur for c in children.get(span.id, ()))


def layer_metrics(spans) -> dict:
    """Per-layer numbers for the spans of one repetition of a workload."""
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        children.setdefault(s.parent, []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def secs(name):
        return sum(s.dur for s in by_name.get(name, ()))

    def work(name):
        return sum(s.work for s in by_name.get(name, ()))

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    out = {}
    for key, name in (("energy.value", "energy.value"),
                      ("energy.field", "energy.field")):
        out[f"{key}.calls"] = calls(name)
        out[f"{key}.s"] = secs(name)
        out[f"{key}.mpairs"] = work(name)
        out[f"{key}.mpair_per_s"] = rate(work(name), secs(name))
    out["energy.perimeter.calls"] = calls("energy.perimeter")
    out["energy.perimeter.s"] = secs("energy.perimeter")
    for name in ("energy.riesz_self", "energy.interaction",
                 "energy.total_energy"):
        out[f"{name}.s"] = secs(name)

    minimizes = by_name.get("optimize.minimize", [])
    iterations = work("optimize.minimize")
    evals = calls("optimize.objective")
    out["optimize.minimize.calls"] = len(minimizes)
    out["optimize.minimize.s"] = secs("optimize.minimize")
    out["optimize.iterations"] = iterations
    out["optimize.objective_evals"] = evals
    # one objective evaluation per minimize is the starting point; the
    # rest are line-search trials
    out["optimize.ls_trials_per_iter"] = rate(evals - len(minimizes),
                                              iterations)
    out["optimize.gradient.calls"] = calls("optimize.gradient")
    out["optimize.gradient.s"] = secs("optimize.gradient")
    out["optimize.precond.s"] = secs("optimize.precond")
    out["optimize.self_s"] = sum(_self_time(s, children) for s in minimizes)
    sweeps = by_name.get("optimize.sweep", [])
    sweep_s = sum(s.dur for s in sweeps)
    busy = sum(m.dur for sw in sweeps for m in minimizes
               if m.start >= sw.start and m.end <= sw.end)
    out["optimize.sweep.s"] = sweep_s
    out["optimize.sweep.concurrency"] = rate(busy, sweep_s)

    out["fuglede.deficit_report.s"] = secs("fuglede.deficit_report")
    out["fuglede.riesz_deficit.s"] = secs("fuglede.riesz_deficit")
    out["oracle.mc_riesz.calls"] = calls("oracle.mc_riesz")
    out["oracle.mc_riesz.s"] = secs("oracle.mc_riesz")
    out["oracle.mc_riesz.msamples_per_s"] = rate(work("oracle.mc_riesz"),
                                                 secs("oracle.mc_riesz"))
    out["oracle.rasterize.s"] = secs("oracle.rasterize")
    out["oracle.raster_measures.s"] = secs("oracle.raster_measures")
    for check in ("run_raster_agreement", "run_v_lipschitz", "run_rel_isop",
                  "run_en_lower_bound"):
        out[f"oracle.check.{check}.s"] = secs(f"oracle.check.{check}")
    for name in ("geometry.make_grid", "geometry.radial_at_directions",
                 "geometry.membership"):
        out[f"{name}.s"] = secs(name)
    out["cli.main.s"] = secs("cli.main")
    return out
