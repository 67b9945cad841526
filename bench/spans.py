"""Spans around nucshoot's layer boundaries, installed from outside the package.

A module that does `from .integrator import integrate_radial` calls the
function through its own binding, so a wrapper only records calls when it
replaces that binding: the span for integrator work must go on
`nucshoot.shooting.integrate_radial`, and patching `nucshoot.integrator`
alone records nothing.  `install` therefore walks every layer module and
replaces each binding of a layer's public function (its `__all__`, plus the
CLI entry points below) with a wrapper that records a span.

Spans live in memory.  Process-pool workers forked after `install` inherit
the wrappers; a worker writes its spans to `<spill_dir>/spans-<pid>.jsonl`
each time its outermost span closes, and `Recorder.collect` merges them.
All times come from `time.perf_counter`, which on Linux is the system-wide
monotonic clock, so intervals from different processes line up.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import types
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "shooting", "integrator", "portrait", "physics", "serialize")
# cli has no __all__; these are the functions callers enter it through
# (main in-process, _sweep_row in each pool worker).
ENTRY_POINTS = {"nucshoot.cli": ("main", "_sweep_row")}
# called once per CSV cell: a span there would cost more than the call
UNTRACED = {"nucshoot.serialize": ("float17",)}


def _config_r_max(args, kwargs, pos):
    cfg = kwargs.get("config", args[pos] if len(args) > pos else None)
    if cfg is None:
        from nucshoot.integrator import DEFAULT_CONFIG
        cfg = DEFAULT_CONFIG
    return cfg.r_max


def _radial_attrs(args, kwargs, traj):
    # the first sample is the exact origin state and the second the Taylor
    # hand-off point, so every further sample is one accepted step
    return {"steps": len(traj.r) - 2, "end": traj.termination.kind.value}


def _shot_attrs(args, kwargs, out):
    return {"class": out.shot_class.value, "r_max": _config_r_max(args, kwargs, 2)}


def _search_attrs(args, kwargs, gs):
    return {"r_max": _config_r_max(args, kwargs, 1)}


def _write_attrs(args, kwargs, result):
    text = kwargs.get("text", args[1] if len(args) > 1 else "")
    return {"bytes": len(text.encode("utf-8"))}


def _row_attrs(args, kwargs, row):
    return {"a": row["a"], "b": row["b"], "status": row["status"]}


ATTRS = {
    "integrator.integrate_radial": _radial_attrs,
    "shooting.classify_shot": _shot_attrs,
    "shooting.bisect_ground_state": _search_attrs,
    "serialize.write_text": _write_attrs,
    "cli._sweep_row": _row_attrs,
}


class Recorder:
    """Keeps spans in memory; in a forked worker, spills them to a file."""

    def __init__(self, spill_dir: Path):
        self.spill_dir = Path(spill_dir)
        self.pid = os.getpid()
        self.origin_pid = self.pid
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.fork_parent = None
        self._seq = 0

    def _adopt_fork(self):
        # first span in a forked child: drop the parent's copy, remember
        # which parent span was open when the child was made
        self.fork_parent = self.stack[-1]["id"] if self.stack else None
        self.pid = os.getpid()
        self.spans = []
        self.stack = []

    def open(self, name: str) -> dict:
        if os.getpid() != self.pid:
            self._adopt_fork()
        self._seq += 1
        parent = self.stack[-1]["id"] if self.stack else self.fork_parent
        span = {"id": f"{self.pid}-{self._seq}", "parent": parent, "name": name,
                "pid": self.pid, "start": perf_counter(), "end": None, "attrs": {}}
        self.stack.append(span)
        return span

    def close(self, span: dict, attrs: dict | None) -> None:
        span["end"] = perf_counter()
        if attrs:
            span["attrs"] = attrs
        self.stack.pop()
        self.spans.append(span)
        if not self.stack and self.pid != self.origin_pid:
            self.spill()

    def spill(self) -> None:
        path = self.spill_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def collect(self) -> list[dict]:
        """This process's spans plus every spilled worker span; clears both."""
        spans, self.spans = self.spans, []
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                spans.extend(json.loads(line) for line in fh)
            path.unlink()
        return spans


def _wrap(fn, name: str, recorder: Recorder):
    attrs_of = ATTRS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            recorder.close(span, {"raised": True})
            raise
        recorder.close(span, attrs_of(args, kwargs, result) if attrs_of else None)
        return result

    return traced


def traced_names(module) -> dict[str, str]:
    """Binding name -> span name for every layer function `module` binds."""
    out = {}
    for bound, obj in vars(module).items():
        if not isinstance(obj, types.FunctionType):
            continue
        owner = obj.__module__
        if not owner.startswith("nucshoot.") or owner.split(".", 1)[1] not in LAYERS:
            continue
        public = getattr(importlib.import_module(owner), "__all__", ())
        if obj.__name__ in UNTRACED.get(owner, ()):
            continue
        if obj.__name__ in public or obj.__name__ in ENTRY_POINTS.get(owner, ()):
            out[bound] = f"{owner.split('.', 1)[1]}.{obj.__name__}"
    return out


def install(recorder: Recorder) -> list[tuple]:
    """Wrap every layer-function binding in every layer module; returns undo list."""
    patched = []
    for layer in LAYERS:
        module = importlib.import_module(f"nucshoot.{layer}")
        for bound, span_name in traced_names(module).items():
            original = getattr(module, bound)
            setattr(module, bound, _wrap(original, span_name, recorder))
            patched.append((module, bound, original))
    return patched


def uninstall(patched: list[tuple]) -> None:
    for module, bound, original in reversed(patched):
        setattr(module, bound, original)


@contextmanager
def tracing(recorder: Recorder):
    patched = install(recorder)
    try:
        yield recorder
    finally:
        uninstall(patched)


# ------------------------------------------------------------------ analysis

def _covered(interval, others) -> float:
    """Length of the part of `interval` that the union of `others` covers."""
    lo, hi = interval
    total = 0.0
    cur_lo = cur_hi = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in others):
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict[str, list] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - _covered((s["start"], s["end"]), children.get(s["id"], ()))
            for s in spans}


def _ancestors(span, by_id):
    parent = by_id.get(span["parent"])
    while parent is not None:
        yield parent
        parent = by_id.get(parent["parent"])


def summarize(spans: list[dict]) -> dict[str, float]:
    """Per-layer counts and times for one pass of a workload."""
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)
    out: dict[str, float] = {}

    def matches(span, names):
        return span["name"] in names or span["name"].split(".")[0] in names

    def total(names, key="self"):
        """Self time of the matching spans, or the duration of the outermost ones."""
        if key == "self":
            return sum(selfs[s["id"]] for s in spans if matches(s, names))
        return sum(s["end"] - s["start"] for s in spans
                   if matches(s, names)
                   and not any(matches(a, names) for a in _ancestors(s, by_id)))

    radial = [s for s in spans if s["name"] == "integrator.integrate_radial"]
    steps = sum(s["attrs"].get("steps", 0) for s in radial)
    ends = [s["attrs"].get("end") for s in radial]
    shots = [s for s in spans if s["name"] == "shooting.classify_shot"]
    searches = [s for s in spans if s["name"] == "shooting.bisect_ground_state"]
    seed = bisect = escalated = 0
    for shot in shots:
        names = [a["name"] for a in _ancestors(shot, by_id)]
        if "shooting.seed_bracket" in names:
            seed += 1
        elif "shooting.bisect_ground_state" in names:
            bisect += 1
            search = next(a for a in _ancestors(shot, by_id)
                          if a["name"] == "shooting.bisect_ground_state")
            escalated += shot["attrs"]["r_max"] > search["attrs"]["r_max"]
    undetermined = sum(s["attrs"]["class"] == "Undetermined" for s in shots)
    integrator_self = total({"integrator"})

    out["integrator.steps"] = steps
    out["integrator.steps_per_shot"] = steps / len(shots) if shots else 0.0
    out["integrator.us_per_step"] = 1e6 * integrator_self / steps if steps else 0.0
    out["integrator.self_s"] = integrator_self
    out["integrator.end.event"] = ends.count("Event")
    out["integrator.end.rmax"] = ends.count("ReachedRmax")
    out["integrator.end.blowup"] = ends.count("Blowup")
    out["shooting.shots"] = len(shots)
    out["shooting.searches"] = len(searches)
    out["shooting.shots_per_search"] = (seed + bisect) / len(searches) if searches else 0.0
    out["shooting.seed_shots"] = seed
    out["shooting.bisect_shots"] = bisect
    out["shooting.escalated_shots"] = escalated
    out["shooting.undetermined"] = undetermined
    out["shooting.undetermined_frac"] = undetermined / len(shots) if shots else 0.0
    out["shooting.self_s"] = total({"shooting"})
    out["shooting.audit_s"] = total({"shooting.audit_lemmas"}, "span")
    out["shooting.fit_s"] = total({"shooting.fit_decay_rate"}, "span")
    out["portrait.winding_s"] = total({"portrait.winding_count"}, "span")
    out["physics.s"] = total({"physics"}, "span")
    out["serialize.s"] = total({"serialize"}, "span")
    out["serialize.bytes"] = sum(s["attrs"].get("bytes", 0) for s in spans
                                 if s["name"] == "serialize.write_text")
    out["cli.self_s"] = total({"cli"})
    return out


def per_root(spans: list[dict], root_name: str) -> list[tuple[dict, dict]]:
    """(root span, summary of its subtree) for every span named root_name."""
    by_id = {s["id"]: s for s in spans}
    groups: dict[str, list] = {}
    for s in spans:
        chain = [s] + list(_ancestors(s, by_id))
        root = next((a for a in chain if a["name"] == root_name), None)
        if root is not None:
            groups.setdefault(root["id"], []).append(s)
    return [(by_id[rid], summarize(members)) for rid, members in groups.items()]
