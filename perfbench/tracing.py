"""Span recorder for the traced benchmark run.

The program is not changed: each layer's public functions are wrapped from
outside, at every module attribute of the ``dropintmle`` package that is
bound to the original function (callers such as ``engine``, ``harness`` and
``cli`` import these functions by name, so each of their bindings is
replaced).  Every call made while the tracer is enabled records one span with
its name, start, end and parent; spans stay in memory and are written out
when the run ends.  A layer's self time is its spans' duration minus the
time covered by their direct children.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter

MB = float(2 ** 20)

# public functions per layer, as named in the package
LAYERS = {
    "panel": ("write_panel_csv", "read_panel_csv", "read_event_csv",
              "ingest_long_events", "validate_panel"),
    "sim": ("fit_reference_gstar", "oracle_risk_difference", "simulate_trial"),
    "interventions": ("fit_stochastic_gstar",),
    "learners": ("fit_binary_glm", "fit_discrete_super_learner",
                 "fit_intercept_fluctuation"),
    "features": ("history_design", "mechanism_design", "gstar_design"),
    "engine": ("fit_g", "tmle_arm", "clever_weight_path", "support_diagnostics"),
    "harness": ("compute_truths", "run_replications", "emit_report"),
    "cli": ("cli_main",),
}

CLI_COMMANDS = ("simulate", "ingest", "estimate")


def _arguments(sig, args, kwargs) -> dict:
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _glm_counts(sig, args, kwargs, result) -> dict:
    max_iter = _arguments(sig, args, kwargs)["max_iter"]
    return {"iters": int(result.n_iter),
            "at_max_iter": int(result.n_iter >= max_iter),
            "nonconverged": int(not result.converged)}


def _design_bytes(sig, args, kwargs, result) -> dict:
    return {"bytes": int(result.nbytes)}


def _file_bytes(param):
    def annotate(sig, args, kwargs, result) -> dict:
        return {"bytes": os.path.getsize(_arguments(sig, args, kwargs)[param])}
    return annotate


def _oracle_draws(sig, args, kwargs, result) -> dict:
    # both hypothetical arms are simulated at n_mc draws each
    return {"draws": 2 * int(_arguments(sig, args, kwargs)["n_mc"])}


ANNOTATORS = {
    "learners.fit_binary_glm": _glm_counts,
    "features.history_design": _design_bytes,
    "features.mechanism_design": _design_bytes,
    "features.gstar_design": _design_bytes,
    "panel.write_panel_csv": _file_bytes("path"),
    "panel.read_panel_csv": _file_bytes("path"),
    "panel.read_event_csv": _file_bytes("path"),
    "sim.oracle_risk_difference": _oracle_draws,
}


class Tracer:
    """In-memory span store; records only while ``enabled``."""

    def __init__(self):
        self.spans: list[dict] = []
        self.enabled = False
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name, func):
        sig = inspect.signature(func)
        annotate = ANNOTATORS.get(name)
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            span_name = name
            if name == "cli.cli_main":
                argv = _arguments(sig, args, kwargs)["argv"]
                span_name = f"{name}.{argv[0]}"
            span = {"id": len(tracer.spans), "name": span_name,
                    "parent": tracer._stack[-1] if tracer._stack else None,
                    "start": perf_counter()}
            tracer.spans.append(span)
            tracer._stack.append(span["id"])
            try:
                result = func(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                tracer._stack.pop()
            if annotate is not None:
                span.update(annotate(sig, args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        """Replace every package binding of each layer function by a wrapper."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "dropintmle" or key.startswith("dropintmle."))]
        for layer, names in LAYERS.items():
            home = sys.modules[f"dropintmle.{layer}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    def bindings(self) -> list[str]:
        return sorted(f"{mod.__name__}.{attr}" for mod, attr, _ in self._restore)


def self_times(spans) -> list[float]:
    """Per-span duration minus the time covered by its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


COUNTED = {"learners.fit_binary_glm", "learners.fit_discrete_super_learner",
           "learners.fit_intercept_fluctuation", "features.history_design",
           "engine.tmle_arm", "engine.clever_weight_path"}


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in report order."""
    names = []
    for layer, fnames in LAYERS.items():
        for fname in fnames:
            if layer == "cli":
                names += [f"cli.cli_main.{c}.s" for c in CLI_COMMANDS]
                continue
            base = f"{layer}.{fname}"
            if base in COUNTED:
                names.append(f"{base}.calls")
            names.append(f"{base}.s")
            if base == "learners.fit_binary_glm":
                names += [f"{base}.{c}" for c in ("iters", "at_max_iter", "nonconverged")]
    names += ["panel.csv_mb", "sim.oracle_draws_per_s", "features.design_mb",
              "trace.spans", "trace.overhead_s"]
    return names


def unit(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "count"


def summarize(spans) -> dict[str, float]:
    """Per-layer metrics from the recorded spans (overhead is added by the caller)."""
    own = self_times(spans)
    secs: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    extra: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, own):
        secs[s["name"]] += t
        calls[s["name"]] += 1
        for key in ("iters", "at_max_iter", "nonconverged"):
            extra[f"{s['name']}.{key}"] += s.get(key, 0)
        if s["name"].startswith("panel."):
            extra["csv_bytes"] += s.get("bytes", 0)
        elif s["name"].startswith("features."):
            parent = spans[s["parent"]]["name"] if s["parent"] is not None else ""
            if not parent.startswith("features."):
                extra["design_bytes"] += s["bytes"]
        elif s["name"] == "sim.oracle_risk_difference":
            extra["draws"] += s["draws"]
    out = {}
    for name in metric_names():
        if name.endswith(".calls"):
            out[name] = calls[name[:-len(".calls")]]
        elif name.endswith(".s"):
            out[name] = secs[name[:-len(".s")]]
        elif name.startswith("learners.fit_binary_glm."):
            out[name] = int(extra[name])
    oracle_s = secs["sim.oracle_risk_difference"]
    out["panel.csv_mb"] = extra["csv_bytes"] / MB
    out["features.design_mb"] = extra["design_bytes"] / MB
    out["sim.oracle_draws_per_s"] = extra["draws"] / oracle_s if oracle_s > 0 else 0.0
    out["trace.spans"] = len(spans)
    return out
