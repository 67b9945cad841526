"""nucshoot benchmark: run one workload for one seed and print its metrics.

    python3 bench/run.py --workload ground_state --seed 1 --seconds 20 --trace 0

Runs from a source checkout: the package is imported from `src/` next to
this directory, never from an installed copy.  A run repeats whole passes
of the workload (see workloads.py) until --seconds have elapsed, checks the
outputs outside the timed calls, and prints a report line and then, as the
last line, {"correct", "attempted", "failed", "metrics"}.

--trace 0  end-to-end metrics, tracing off.
--trace 1  per-layer metrics: passes alternate traced / untraced, so the
           report also gives the tracing overhead; every traced pass must
           give the same counts.
"""
from __future__ import annotations

import os

# one BLAS thread per process, set before numpy loads here or in children,
# so np.polyfit starts no threads beyond the sweep's two workers
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import metadata
from pathlib import Path
from time import monotonic, perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from spans import Recorder, per_root, summarize, tracing  # noqa: E402
from workloads import (NE_R_MAX, WORKLOADS, kappa_key,  # noqa: E402
                       make_pass)

X_TOL = 1e-8
SETUP_REPEATS = 7
SETUP_CODE = ("import time, nucshoot\nfrom nucshoot import cli\n"
              "cli.build_parser()\nprint(time.monotonic())")
# failure reasons that mean an output was wrong or missing; a unit with one
# of them is `failed`.  An audit failure is the program's own certificate
# rejecting a right answer: a known defect (ROADMAP item 4), counted apart
# as `rejected` so that it shows without making the operation a failure.
WRONG = ("error", "x_star", "status", "decayed", "bytes")


def _wrong(reasons) -> bool:
    return any(r in WRONG for r in reasons)

PER_LAYER = ("integrator.steps", "integrator.steps_per_shot", "integrator.us_per_step",
             "integrator.self_s", "integrator.end.event", "integrator.end.rmax",
             "integrator.end.blowup", "shooting.shots", "shooting.shots_per_search",
             "shooting.seed_shots", "shooting.bisect_shots", "shooting.escalated_shots",
             "shooting.undetermined_frac", "shooting.self_s", "serialize.bytes")
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "peak_rss_mb": "MB",
         "integrator.us_per_step": "us", "integrator.self_s": "s",
         "shooting.self_s": "s", "shooting.undetermined_frac": "1",
         "serialize.bytes": "bytes"}
TIMES = ("integrator.us_per_step", "integrator.self_s", "shooting.self_s",
         "shooting.audit_s", "shooting.fit_s", "portrait.winding_s", "physics.s",
         "serialize.s", "cli.self_s")
# spans each workload must produce; absent ones are named in the report
EXPECTED_SPANS = {
    "ground_state": ("cli.main", "shooting.bisect_ground_state", "shooting.seed_bracket",
                     "shooting.classify_shot", "integrator.integrate_radial",
                     "shooting.audit_lemmas", "shooting.fit_decay_rate",
                     "portrait.winding_count", "physics.profile_table",
                     "serialize.json_text", "serialize.csv_text", "serialize.write_text"),
    "nonexistence": ("shooting.classify_grid", "shooting.classify_shot",
                     "integrator.integrate_radial"),
    "sweep": ("cli.main", "cli._sweep_row", "shooting.bisect_ground_state",
              "shooting.classify_shot", "integrator.integrate_radial",
              "shooting.audit_lemmas", "portrait.winding_count",
              "physics.plateau_metrics", "serialize.csv_text", "serialize.write_text"),
}
ROOT_SPAN = {"ground_state": "cli.main", "nonexistence": "shooting.classify_grid",
             "sweep": "cli._sweep_row"}


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    if not (SRC / "nucshoot" / "__init__.py").is_file():
        _fail(f"no nucshoot sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import nucshoot
    if Path(nucshoot.__file__).resolve().parent != (SRC / "nucshoot").resolve():
        _fail(f"imported nucshoot from {nucshoot.__file__}, not from {SRC}")
    import nucshoot.cli
    return nucshoot


def _reference() -> dict:
    path = BENCH / "reference.json"
    if not path.is_file():
        _fail(f"missing {path}; rebuild it with bench/oracle.py")
    return json.loads(path.read_text())["x_star"]


def measure_setup() -> list[float]:
    """Fresh interpreter to `import nucshoot` + `cli.build_parser()` done.

    The child prints time.monotonic() when done; on Linux that clock is
    system-wide, so the difference to the parent's launch time is exact.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = monotonic()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            _fail(f"setup probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]) - t0)
    return times


def environment(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "nucshoot").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "seed": seed, "git_commit": commit, "src_sha256": digest.hexdigest()}


# ---------------------------------------------------------------- operations

def _call_cli(cli, argv: list[str]) -> tuple[int | None, float, str]:
    buf = io.StringIO()
    t0 = perf_counter()
    try:
        with redirect_stdout(buf), redirect_stderr(buf):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 64
    except Exception as exc:  # a raised error is a counted failure
        rc = None
        buf.write(repr(exc))
    return rc, perf_counter() - t0, buf.getvalue()


def op_ground_state(pkg, op, out: Path, ref: dict) -> dict:
    rc, wall, text = _call_cli(pkg.cli, list(op.argv) + ["--out", str(out)])
    rec = {"label": op.label, "wall": wall, "rc": rc, "attempted": 1, "failed": 1,
           "rejected": 0, "reasons": []}
    if rc not in (0, 1):
        rec["reasons"].append("error")
        rec["message"] = text.strip()[-300:]
        return rec
    doc = json.loads((out / "ground_state.json").read_text())
    rec["x_star"] = doc["x_star"]
    rec["dx"] = abs(doc["x_star"] - ref[kappa_key(op.kappa)]["x_star"])
    if rec["dx"] > X_TOL:
        rec["reasons"].append("x_star")
    if rc == 1 or not doc["all_checks_passed"]:
        rec["reasons"].append("audit")
        rec["failed_checks"] = [c["name"] for c in doc["lemma_report"] if not c["passed"]]
    if (out / "trajectory.csv").stat().st_size == 0:
        rec["reasons"].append("error")
    rec["failed"] = int(_wrong(rec["reasons"]))
    rec["rejected"] = int("audit" in rec["reasons"] and not rec["failed"])
    return rec


def op_nonexistence(pkg, op) -> dict:
    cfg = pkg.IntegratorConfig(r_max=NE_R_MAX)
    rec = {"label": op.label, "wall": 0.0, "attempted": 0, "failed": 0, "rejected": 0,
           "reasons": [], "grids": {}}
    for label, a, b, xs in op.grids:
        t0 = perf_counter()
        try:
            outs = pkg.shooting.classify_grid(pkg.ModelParams(a, b), xs, cfg)
        except Exception as exc:  # a raised error fails every shot of the grid
            rec["wall"] += perf_counter() - t0
            rec["grids"][label] = repr(exc)
            bad, reason = len(xs), "error"
        else:
            rec.setdefault("grid_walls", []).append(perf_counter() - t0)
            rec["wall"] += rec["grid_walls"][-1]
            classes: dict[str, int] = {}
            for o in outs:
                classes[o.shot_class.value] = classes.get(o.shot_class.value, 0) + 1
            del outs  # hold one grid's trajectories at a time, as the program does
            rec["grids"][label] = classes
            bad, reason = classes.get("Decayed", 0), "decayed"
        rec["reasons"] += [reason] * bad
        rec["attempted"] += len(xs)
        rec["failed"] += bad
    return rec


def op_sweep(pkg, op, out: Path, ref: dict, first_csv: dict) -> dict:
    rc, wall, text = _call_cli(pkg.cli, list(op.argv) + ["--out", str(out)])
    rec = {"label": op.label, "wall": wall, "rc": rc, "reasons": [], "rows": []}
    if rc != 0:
        rows = len(op.argv[2].split(",")) * len(op.argv[4].split(","))
        rec.update(attempted=rows, failed=rows, rejected=0, reasons=["error"],
                   message=text.strip()[-300:])
        return rec
    lines = (out / "sweep.csv").read_text().splitlines()
    first_csv.setdefault("lines", lines)
    header = lines[0].split(",")
    failed = rejected = 0
    for i, line in enumerate(lines[1:], 1):
        row = dict(zip(header, line.split(",")))
        a, b = float(row["a"]), float(row["b"])
        reasons = []
        want = "ok" if a - 2.0 * b > 0.0 else "nonexistence"
        if row["status"] != want:
            reasons.append("status")
        elif want == "ok":
            dx = abs(float(row["x_star"]) - ref[kappa_key(b / a)]["x_star"])
            if dx > X_TOL:
                reasons.append("x_star")
            if float(row["lemma_pass_rate"]) != 1.0:
                reasons.append("audit")
        if i >= len(first_csv["lines"]) or line != first_csv["lines"][i]:
            reasons.append("bytes")
        failed += _wrong(reasons)
        rejected += bool(reasons) and not _wrong(reasons)
        rec["reasons"].extend(reasons)
        rec["rows"].append({"a": a, "b": b, "status": row["status"], "reasons": reasons})
    if len(lines) != len(first_csv["lines"]):
        rec["reasons"].append("bytes")
    rec["attempted"] = len(lines) - 1
    rec["failed"] = failed
    rec["rejected"] = rejected
    return rec


def run_pass(workload: str, pkg, ops, out: Path, ref: dict, first_csv: dict) -> list[dict]:
    records = []
    for i, op in enumerate(ops):
        if workload == "ground_state":
            records.append(op_ground_state(pkg, op, out / f"op{i}", ref))
        elif workload == "nonexistence":
            records.append(op_nonexistence(pkg, op))
        else:
            records.append(op_sweep(pkg, op, out / f"op{i}", ref, first_csv))
    return records


# ------------------------------------------------------------------ metrics

def percentile_tail(values: list[float]) -> dict | None:
    """Highest whole percentile that keeps at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return None
    pct = math.floor(100.0 * (n - 10) / n)
    ranked = sorted(values)
    return {"pct": pct, "value": ranked[max(0, math.ceil(pct / 100.0 * n) - 1)]}


def end_to_end(workload: str, records: list[dict], setup: list[float]) -> tuple[dict, dict]:
    walls = [r["wall"] for r in records]
    busy = sum(walls)
    attempted = sum(r["attempted"] for r in records)
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {"setup_s": statistics.median(setup),
               "ops_per_s": attempted / busy,
               "op_p50_s": statistics.median(walls),
               "peak_rss_mb": (self_kib + child_kib) * 1024 / 1e6}
    # the issue's failed_frac: wrong outputs and audit rejections together
    rejected = sum(r["rejected"] for r in records)
    named = {"setup_s_samples": setup, "audit_rejected": rejected,
             "failed_frac": (sum(r["failed"] for r in records) + rejected) / attempted}
    if workload == "ground_state":
        certified = sum(not r["reasons"] for r in records)
        named.update(ground_states_per_s=certified / busy, search_p50_s=metrics["op_p50_s"],
                     search_samples=len(walls), search_tail=percentile_tail(walls))
    elif workload == "nonexistence":
        named.update(shots_per_s=attempted / busy, grid_sets=len(walls))
    else:
        certified = sum(not row["reasons"] for r in records for row in r["rows"])
        named.update(rows_per_s=attempted / busy, ground_states_per_s=certified / busy,
                     sweeps=len(walls))
    return metrics, named


COUNTS = tuple(k for k in PER_LAYER if k not in TIMES) + ("shooting.searches",
                                                          "shooting.undetermined")


def per_layer(workload: str, traced: list[list[dict]], ops) -> tuple[dict, dict]:
    """Per-layer metrics of one pass, plus the report's extra detail."""
    summaries = [summarize(spans) for spans in traced]
    first = summaries[0]
    unstable = sorted({k for s in summaries[1:] for k in COUNTS if s[k] != first[k]})
    metrics = {k: (statistics.median(s[k] for s in summaries) if k in TIMES else first[k])
               for k in first}
    seen = {s["name"] for s in traced[0]}
    roots = sorted(per_root(traced[0], ROOT_SPAN[workload]), key=lambda rs: rs[0]["start"])
    if workload == "sweep":
        labels = [f"{r['attrs']['a']:g},{r['attrs']['b']:g}" for r, _ in roots]
    elif workload == "nonexistence":
        labels = [grid[0] for grid in ops[0].grids]
    else:
        labels = [op.label for op in ops]
    per_op = {label: {"shots": s["shooting.shots"], "steps": s["integrator.steps"],
                      "undetermined": s["shooting.undetermined"]}
              for label, (_, s) in zip(labels, roots)}
    detail = {"all_layer_metrics": metrics,
              "missing_spans": [n for n in EXPECTED_SPANS[workload] if n not in seen],
              "unstable_counts": unstable, "per_op": per_op}
    return {k: metrics[k] for k in PER_LAYER}, detail


def baseline_diff(workload: str, per_op: dict) -> dict:
    base = json.loads((BENCH / "baseline.json").read_text())[workload]
    diff = {label: {"baseline": want, "now": per_op.get(label)}
            for label, want in base.items()
            if per_op.get(label) is None
            or any(per_op[label][k] != v for k, v in want.items())}
    return {"matches": not diff, "diff": diff}


# --------------------------------------------------------------------- main

def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)

    pkg = _import_package()
    ref = _reference()
    os.chdir(ROOT)  # artifacts carry --out, so keep it a fixed relative path
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    out = Path(".bench_out") / tag
    shutil.rmtree(out, ignore_errors=True)
    spill = out / "spans"
    spill.mkdir(parents=True)

    setup = [] if args.trace else measure_setup()
    ops = make_pass(args.workload, args.seed)
    records, pass_walls, traced_spans = [], [], []
    first_csv: dict = {}
    deadline = perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(pass_walls) % 2 == 0
        t0 = perf_counter()
        if traced:
            recorder = Recorder(spill)
            with tracing(recorder):
                recs = run_pass(args.workload, pkg, ops, out, ref, first_csv)
            traced_spans.append(recorder.collect())
        else:
            recs = run_pass(args.workload, pkg, ops, out, ref, first_csv)
        pass_walls.append({"traced": traced, "wall": perf_counter() - t0,
                           "busy": sum(r["wall"] for r in recs),
                           "op_walls": [w for r in recs for w in r.get("grid_walls", [r["wall"]])]})
        records.extend(recs)
        if perf_counter() >= deadline and len(pass_walls) >= 1 + args.trace:
            break

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    reasons: dict[str, int] = {}
    for r in records:
        for reason in r["reasons"]:
            reasons[reason] = reasons.get(reason, 0) + 1
    report = {"workload": args.workload, "env": environment(args.seed),
              "seconds": args.seconds, "inputs": [op.label for op in ops],
              "passes": pass_walls, "failure_reasons": reasons,
              "first_pass": records[:len(ops)]}
    if args.trace:
        metrics, detail = per_layer(args.workload, traced_spans, ops)
        busy = {t: statistics.median(p["busy"] for p in pass_walls if p["traced"] is t)
                for t in (True, False)}
        detail["trace_overhead_frac"] = busy[True] / busy[False] - 1.0
        detail["baseline"] = baseline_diff(args.workload, detail["per_op"])
        report.update(detail)
        correct_counts = not detail["unstable_counts"]
    else:
        metrics, named = end_to_end(args.workload, records, setup)
        report["workload_metrics"] = named
        correct_counts = True
    correct = correct_counts and not any(reasons.get(k) for k in WRONG)

    report_path = Path(".bench_out") / f"{tag}.json"
    report_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(out, ignore_errors=True)
    print("report " + json.dumps(report, sort_keys=True))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": UNITS.get(k, "count")}
                          for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
