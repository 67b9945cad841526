"""Self-tests of the benchmark's tracing and measurement.

    python3 bench/selftest.py

1. A span's self time is its duration minus the part its children cover.
2. The wrappers restore every original binding, and a wrapper on
   nucshoot.integrator alone records nothing for a shot.
3. Two same-seed traced runs give identical counts (ground_state, sweep).
4. Spread: a (9, 4) search repeated in one process, wall against CPU time.

Prints one line per check and exits 1 if any fails.
"""
from __future__ import annotations

import importlib
import io
import json
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter, process_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from run import COUNTS  # noqa: E402
from spans import LAYERS, Recorder, self_times, tracing  # noqa: E402

OUT = ROOT / ".bench_out" / "selftest"


def _span(sid, parent, start, end, name="x.y"):
    return {"id": sid, "parent": parent, "name": name, "pid": 0,
            "start": start, "end": end, "attrs": {}}


def check_self_time():
    spans = [_span("r", None, 0.0, 10.0), _span("a", "r", 1.0, 3.0),
             _span("b", "r", 2.0, 5.0), _span("c", "r", 7.0, 8.0),
             _span("d", "b", 2.5, 4.0), _span("e", "r", 9.5, 11.0)]
    got = self_times(spans)
    # r: children cover [1, 5] + [7, 8] + [9.5, 10] = 5.5 of its 10
    want = {"r": 4.5, "a": 2.0, "b": 1.5, "c": 1.0, "d": 1.5, "e": 1.5}
    assert all(abs(got[k] - v) < 1e-12 for k, v in want.items()), got

    from nucshoot import cli
    recorder = Recorder(OUT)
    with tracing(recorder), redirect_stdout(io.StringIO()):
        rc = cli.main(["ground-state", "--a", "4", "--b", "1", "--out", str(OUT / "gs")])
    spans = recorder.collect()
    assert rc == 0
    root = next(s for s in spans if s["name"] == "cli.main")
    total_self = sum(self_times(spans).values())
    # one thread, properly nested spans: the self times tile the root span
    assert abs(total_self - (root["end"] - root["start"])) < 1e-6, total_self
    return f"synthetic spans exact; {len(spans)} real spans tile cli.main to 1e-6 s"


def _bindings():
    out = {}
    for layer in LAYERS:
        module = importlib.import_module(f"nucshoot.{layer}")
        out.update({(layer, k): v for k, v in vars(module).items()})
    return out


def check_restore():
    from nucshoot import integrator, shooting
    from nucshoot.model import ModelParams
    before = _bindings()
    recorder = Recorder(OUT)
    with tracing(recorder):
        wrapped = [k for k, v in _bindings().items() if v is not before[k]]
        assert ("shooting", "integrate_radial") in wrapped
        shooting.classify_shot(0.9, ModelParams(9.0, 4.0))
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before), "a binding was not restored"
    assert any(s["name"] == "integrator.integrate_radial" for s in recorder.collect())

    # callers bind integrate_radial at import, so a wrapper on the
    # defining module sees no call
    from spans import _wrap
    original = integrator.integrate_radial
    integrator.integrate_radial = _wrap(original, "integrator.integrate_radial", recorder)
    try:
        shooting.classify_shot(0.9, ModelParams(9.0, 4.0))
    finally:
        integrator.integrate_radial = original
    assert not recorder.collect(), "a call went through nucshoot.integrator"
    return f"{len(wrapped)} bindings wrapped and restored; integrator-only wrap records 0 spans"


def _traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    report = json.loads(proc.stdout.splitlines()[-2].split(" ", 1)[1])
    assert result["correct"], report["failure_reasons"]
    counts = {k: report["all_layer_metrics"][k] for k in COUNTS}
    return counts, report["per_op"]


def check_same_seed_counts():
    lines = []
    for workload in ("ground_state", "sweep"):
        first = _traced_run(workload, 7)
        second = _traced_run(workload, 7)
        assert first == second, (workload, first, second)
        lines.append(f"{workload}: {first[0]['shooting.shots']} shots, "
                     f"{first[0]['integrator.steps']} steps twice")
    return "; ".join(lines)


def check_spread():
    from nucshoot.model import ModelParams
    from nucshoot.shooting import bisect_ground_state
    walls, cpus = [], []
    for _ in range(8):
        w0, c0 = perf_counter(), process_time()
        bisect_ground_state(ModelParams(9.0, 4.0))
        walls.append(perf_counter() - w0)
        cpus.append(process_time() - c0)
    ratio = statistics.median(c / w for c, w in zip(cpus, walls))
    # the search never waits, so CPU time tracks wall time; a wide wall
    # spread is then the machine's speed, which only whole-run medians absorb
    assert ratio > 0.9, ratio
    return (f"(9,4) search wall {min(walls):.3f}..{max(walls):.3f} s, "
            f"median cpu/wall {ratio:.3f}")


def main() -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    failed = 0
    try:
        for check in (check_self_time, check_restore, check_same_seed_counts, check_spread):
            try:
                print(f"ok   {check.__name__}: {check()}", flush=True)
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {check.__name__}: {exc}", flush=True)
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
