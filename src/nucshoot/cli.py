"""Command-line front end.

Subcommands: ground-state, classify, portrait, sweep, verify.  All
artifacts are deterministic for fixed flags and seed; exit codes are
0 success, 1 check failure, 2 parameter-regime rejection, 3 numerical
failure, 64 usage error.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .integrator import (DEFAULT_CONFIG, IntegratorConfig, StiffnessError,
                         integrate_conservative)
from .model import (ModelParams, PhasePoint, Regime, classify_regime,
                    critical_points)
from .physics import InsufficientHorizonError, plateau_metrics, profile_table
from .portrait import (admissible_contains, admissible_region,
                       energy_sign_grid, level_curves, zero_contour)
from .serialize import SCHEMA_VERSION, csv_text, json_text, svg_plot, write_text
from .shooting import BracketFailureError, bisect_ground_state, classify_shot
from .verify import run_checks

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_REGIME = 2
EXIT_NUMERICAL = 3
EXIT_USAGE = 64

_DEFAULT_SEED = 20240901

_NUMERICAL_ERRORS = (BracketFailureError, StiffnessError)


class _Parser(argparse.ArgumentParser):
    """argparse front end whose usage failures exit with code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation: flags over config file over defaults."""

    command: str
    a: float | None
    b: float | None
    x: float | None
    rtol: float
    atol: float
    r_max: float
    x_tol: float
    out_dir: Path
    formats: tuple[str, ...]
    levels: tuple[float, ...]
    resolution: int
    a_grid: tuple[float, ...]
    b_grid: tuple[float, ...]
    seed: int
    jobs: int | None

    def integrator(self) -> IntegratorConfig:
        return IntegratorConfig(self.rtol, self.atol, self.r_max)

    def resolved(self) -> dict:
        """Every field as plain JSON data: paths as strings, tuples as lists."""
        def plain(v):
            if isinstance(v, Path):
                return str(v)
            return list(v) if isinstance(v, tuple) else v
        return {f.name: plain(getattr(self, f.name)) for f in fields(self)}


# config-file keys: every field but the subcommand, with out_dir spelled
# like its flag
_CONFIG_KEYS = {"out" if f.name == "out_dir" else f.name
                for f in fields(RunConfig) if f.name != "command"}


def _read_config_file(path: str, parser: argparse.ArgumentParser) -> dict:
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        parser.error(f"cannot read config file {path!r}: {exc}")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            parser.error(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            parser.error(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = val.strip()
    return values


def _floats_csv(text: str, parser, what: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        parser.error(f"invalid {what}: {text!r}")


def _resolve(args, parser) -> RunConfig:
    file_vals = _read_config_file(args.config, parser) if args.config else {}

    def pick(name, cast, default):
        flag = getattr(args, name, None)
        if flag is not None:
            return flag
        if name in file_vals:
            try:
                return cast(file_vals[name])
            except ValueError:
                parser.error(f"config key {name!r}: cannot parse "
                             f"{file_vals[name]!r}")
        return default

    formats = pick("formats", str, "csv,json,svg")
    formats = tuple(tok.strip() for tok in formats.split(",") if tok.strip())
    for fmt in formats:
        if fmt not in ("csv", "json", "svg"):
            parser.error(f"unknown output format {fmt!r}")
    levels = _floats_csv(pick("levels", str, "0"), parser, "levels")
    if not all(math.isfinite(v) for v in levels):
        parser.error("levels must be finite")
    a_grid = _floats_csv(pick("a_grid", str, ""), parser, "a_grid")
    b_grid = _floats_csv(pick("b_grid", str, ""), parser, "b_grid")
    if not all(math.isfinite(v) and v > 0 for v in a_grid + b_grid):
        parser.error("grid values must be positive and finite")

    x_tol = pick("x_tol", float, 1e-12)
    if not x_tol > 0:
        parser.error("x_tol must be positive")
    x = pick("x", float, None)
    if x is not None and not math.isfinite(x):
        parser.error("x must be finite")
    resolution = pick("resolution", int, 200)
    if resolution < 2:
        parser.error("resolution must be at least 2")
    seed = pick("seed", int, _DEFAULT_SEED)
    if seed < 0:
        parser.error("seed must be nonnegative")
    jobs = pick("jobs", int, None)
    if jobs is not None and jobs < 1:
        parser.error("jobs must be at least 1")
    out_dir = Path(pick("out", str, "."))

    cfg = RunConfig(
        command=args.command,
        a=pick("a", float, None),
        b=pick("b", float, None),
        x=x,
        rtol=float(pick("rtol", float, DEFAULT_CONFIG.rtol)),
        atol=float(pick("atol", float, DEFAULT_CONFIG.atol)),
        r_max=float(pick("r_max", float, DEFAULT_CONFIG.r_max)),
        x_tol=float(x_tol),
        out_dir=out_dir,
        formats=formats,
        levels=levels,
        resolution=int(resolution),
        a_grid=a_grid, b_grid=b_grid,
        seed=int(seed),
        jobs=jobs,
    )
    try:
        cfg.integrator()
    except ValueError as exc:
        parser.error(str(exc))
    return cfg


def _make_out_dir(cfg: RunConfig, parser) -> None:
    """Create --out once the command's inputs are valid; classify, which
    writes only to stdout, never calls this."""
    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.error(f"output directory {cfg.out_dir} is not writable: {exc}")


def _require_params(cfg: RunConfig, parser) -> ModelParams:
    if cfg.a is None or cfg.b is None:
        parser.error("--a and --b are required")
    try:
        return ModelParams(cfg.a, cfg.b)
    except ValueError as exc:
        parser.error(str(exc))


def build_parser() -> _Parser:
    parser = _Parser(prog="nucshoot", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def common(p, needs_ab=True):
        if needs_ab:
            p.add_argument("--a", type=float, default=None)
            p.add_argument("--b", type=float, default=None)
        p.add_argument("--config", type=str, default=None,
                       help="key=value file; flags override it")
        p.add_argument("--out", dest="out", type=str, default=None)
        p.add_argument("--rtol", type=float, default=None)
        p.add_argument("--atol", type=float, default=None)
        p.add_argument("--r-max", dest="r_max", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)

    p_gs = sub.add_parser("ground-state", help="find x* by ITP and audit the trajectory")
    common(p_gs)
    p_gs.add_argument("--x-tol", dest="x_tol", type=float, default=None)

    p_cl = sub.add_parser("classify", help="classify a single shot")
    common(p_cl)
    p_cl.add_argument("--x", type=float, default=None)

    p_po = sub.add_parser("portrait", help="level sets, critical points, trajectories")
    common(p_po)
    p_po.add_argument("--levels", type=str, default=None,
                      help="comma-separated energy levels (default 0)")
    p_po.add_argument("--resolution", type=int, default=None)
    p_po.add_argument("--formats", type=str, default=None,
                      help="subset of csv,svg (json ignored here)")

    p_sw = sub.add_parser("sweep", help="parameter sweep over an (a, b) grid")
    common(p_sw, needs_ab=False)
    p_sw.add_argument("--a-grid", dest="a_grid", type=str, default=None)
    p_sw.add_argument("--b-grid", dest="b_grid", type=str, default=None)
    p_sw.add_argument("--jobs", type=int, default=None)
    p_sw.add_argument("--x-tol", dest="x_tol", type=float, default=None)

    p_ve = sub.add_parser("verify", help="run the cross-module check suite")
    common(p_ve, needs_ab=False)

    return parser


# ---------------------------------------------------------------- ground-state

def _lemma_report_payload(report) -> list[dict]:
    return [
        {"name": c.name, "passed": bool(c.passed), "value": c.value,
         "threshold": c.threshold, "note": c.note}
        for c in report.checks
    ]


def cmd_ground_state(cfg: RunConfig, parser) -> int:
    params = _require_params(cfg, parser)
    if classify_regime(params) is not Regime.SUPERCRITICAL:
        print(f"no decaying ground state exists for a = {params.a:g}, "
              f"b = {params.b:g}: the existence theory requires a - 2b > 0 "
              f"(here a - 2b = {params.a - 2 * params.b:g})", file=sys.stderr)
        return EXIT_REGIME
    _make_out_dir(cfg, parser)
    try:
        gs = bisect_ground_state(params, cfg.integrator(), x_tol=cfg.x_tol)
    except _NUMERICAL_ERRORS as exc:
        print(f"ground-state search failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    payload = {
        "schema": SCHEMA_VERSION,
        "config": cfg.resolved(),
        "x_star": gs.x_star,
        "bracket": [gs.bracket[0], gs.bracket[1]],
        "decay_rate": gs.decay_rate,
        "decay_C": gs.decay_C,
        "lemma_report": _lemma_report_payload(gs.lemma_report),
        "all_checks_passed": bool(gs.lemma_report.passed),
        "regime": classify_regime(params).value,
    }
    if gs.u_star is not None:
        payload["u_star"] = gs.u_star
    write_text(cfg.out_dir / "ground_state.json", json_text(payload))
    table = profile_table(gs.trajectory, params)
    write_text(cfg.out_dir / "trajectory.csv", csv_text(table))
    for check in gs.lemma_report.checks:
        status = "pass" if check.passed else "FAIL"
        print(f"{check.name}: {status}")
    print(f"x_star = {gs.x_star!r}  bracket width = "
          f"{gs.bracket[1] - gs.bracket[0]:.3e}  decay rate = {gs.decay_rate:.6f}")
    if gs.u_star is not None:
        print(f"u_star = 1 - x_star = {gs.u_star!r}  (below the float grid of x)")
    return EXIT_OK if gs.lemma_report.passed else EXIT_CHECK_FAILED


# -------------------------------------------------------------------- classify

def cmd_classify(cfg: RunConfig, parser) -> int:
    params = _require_params(cfg, parser)
    if cfg.x is None:
        parser.error("--x is required")
    try:
        out = classify_shot(cfg.x, params, cfg.integrator())
    except StiffnessError as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    term = out.trajectory.termination
    payload = {
        "schema": SCHEMA_VERSION,
        "config": cfg.resolved(),
        "x0": out.x0,
        "shot_class": out.shot_class.value,
        "r_x": out.r_x,
        "g_at_rx": out.g_at_rx,
        "H_at_rx": out.H_at_rx,
        "termination": term.describe(),
        "r_end": out.trajectory.r_end,
    }
    sys.stdout.write(json_text(payload))
    return EXIT_OK


# -------------------------------------------------------------------- portrait

def _portrait_rows(curves) -> dict:
    level_col, branch_col, f_col, g_col = [], [], [], []
    for curve in curves:
        for fv, gv in curve.samples:
            level_col.append(curve.level)
            branch_col.append(curve.branch.value)
            f_col.append(fv)
            g_col.append(gv)
    return {"level": level_col, "branch": branch_col, "f": f_col, "g": g_col}


def cmd_portrait(cfg: RunConfig, parser) -> int:
    params = _require_params(cfg, parser)
    _make_out_dir(cfg, parser)
    regime = classify_regime(params)
    curves = []
    for level in cfg.levels:
        if level == 0.0 and regime is Regime.CRITICAL:
            curves.extend(zero_contour(params, resolution=cfg.resolution))
        else:
            curves.extend(level_curves(params, [level],
                                       resolution=cfg.resolution))
    crits = critical_points(params)
    supercritical = regime is Regime.SUPERCRITICAL

    rng = np.random.default_rng(cfg.seed)
    f_corner = math.sqrt(max(params.a - params.b, 0.25))
    starts = []
    while len(starts) < 4:
        f0 = rng.uniform(-f_corner, f_corner)
        g0 = rng.uniform(-1.0, 1.0)
        if not supercritical or admissible_contains(PhasePoint(f0, g0), params):
            starts.append(PhasePoint(f0, g0))
    config = replace(cfg.integrator(), r_max=20.0)
    trajectories = [integrate_conservative(p0, params, config) for p0 in starts]
    boundary = admissible_region(params, cfg.resolution) if supercritical else None

    if "csv" in cfg.formats:
        write_text(cfg.out_dir / "portrait_curves.csv",
                   csv_text(_portrait_rows(curves)))
        write_text(cfg.out_dir / "portrait_critical.csv", csv_text({
            "f": [cp.location.f for cp in crits],
            "g": [cp.location.g for cp in crits],
            "kind": [cp.kind.value for cp in crits],
        }))
        if supercritical:
            write_text(cfg.out_dir / "portrait_admissible.csv", csv_text({
                "f": boundary[:, 0], "g": boundary[:, 1],
            }))
        tcols = {"trajectory": [], "r": [], "f": [], "g": []}
        for i, traj in enumerate(trajectories):
            tcols["trajectory"].extend([float(i)] * len(traj.r))
            tcols["r"].extend(traj.r.tolist())
            tcols["f"].extend(traj.f.tolist())
            tcols["g"].extend(traj.g.tolist())
        write_text(cfg.out_dir / "portrait_trajectories.csv", csv_text(tcols))

    if "svg" in cfg.formats:
        f_hi = max([1.5 * f_corner] +
                   [float(np.max(np.abs(c.samples[:, 0]))) for c in curves
                    if len(c.samples)])
        xlim = (-1.05 * f_hi, 1.05 * f_hi)
        ylim = (-1.6, 1.6)
        fs, gs, hgrid = energy_sign_grid(params, xlim, ylim)
        rects = []
        df = fs[1] - fs[0]
        dg = gs[1] - gs[0]
        # meshgrid 'xy' layout: hgrid[j, i] pairs gs[j] with fs[i]
        for i, fv in enumerate(fs):
            for j, gv in enumerate(gs):
                if hgrid[j, i] < 0:
                    rects.append((fv - df / 2, gv - dg / 2,
                                  fv + df / 2, gv + dg / 2, "#e8e8e8"))
        polylines = [(c.samples.tolist(), "black", 1.5, "") for c in curves]
        for traj in trajectories:
            polylines.append((np.column_stack([traj.f, traj.g]).tolist(),
                              "#2a7f2a", 1.0, ""))
        if supercritical:
            polylines.append((boundary.tolist(), "#c03030", 1.5, "6,3"))
        pts = [(cp.location.f, cp.location.g, 3.5, "#1030c0") for cp in crits]
        svg = svg_plot(xlim, ylim, polylines, rects=rects, points=pts,
                       title=f"phase portrait a={params.a:g} b={params.b:g}")
        write_text(cfg.out_dir / "portrait.svg", svg)
    return EXIT_OK


# ----------------------------------------------------------------------- sweep

def _sweep_row(task: tuple) -> dict:
    a, b, config, x_tol = task
    params = ModelParams(a, b)
    if classify_regime(params) is not Regime.SUPERCRITICAL:
        return {"a": a, "b": b, "status": "nonexistence"}
    try:
        gs = bisect_ground_state(params, config, x_tol=x_tol)
    except _NUMERICAL_ERRORS as exc:
        return {"a": a, "b": b, "status": f"error:{type(exc).__name__}"}
    try:
        score = plateau_metrics(gs.trajectory).plateau_score
    except InsufficientHorizonError:
        score = float("nan")
    checks = gs.lemma_report.checks
    rate = sum(1 for c in checks if c.passed) / len(checks)
    return {"a": a, "b": b, "status": "ok", "x_star": gs.x_star,
            "decay_rate": gs.decay_rate, "plateau_score": score,
            "lemma_pass_rate": rate}


def cmd_sweep(cfg: RunConfig, parser) -> int:
    if not cfg.a_grid or not cfg.b_grid:
        parser.error("--a-grid and --b-grid must be nonempty")
    _make_out_dir(cfg, parser)
    pairs = sorted((a, b) for a in cfg.a_grid for b in cfg.b_grid)
    config = cfg.integrator()
    tasks = [(a, b, config, cfg.x_tol) for a, b in pairs]
    jobs = cfg.jobs or getattr(os, "process_cpu_count", os.cpu_count)() or 1
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            rows = list(pool.map(_sweep_row, tasks))
    else:
        rows = [_sweep_row(t) for t in tasks]
    # nonexistence and error rows leave the solution cells empty
    keys = ("a", "b", "status", "x_star", "decay_rate", "plateau_score",
            "lemma_pass_rate")
    cols = {key: [row.get(key, "") for row in rows] for key in keys}
    write_text(cfg.out_dir / "sweep.csv", csv_text(cols))
    n_ok = sum(1 for r in rows if r["status"] == "ok")
    print(f"sweep: {len(rows)} rows, {n_ok} solved")
    return EXIT_OK


# ---------------------------------------------------------------------- verify

def cmd_verify(cfg: RunConfig, parser) -> int:
    _make_out_dir(cfg, parser)
    results = []
    for res in run_checks(cfg.integrator(), cfg.seed, cfg.x_tol):
        results.append(res)
        print(f"{res['name']}: {'pass' if res['passed'] else 'FAIL'} "
              f"(value {res['value']:.3e}, threshold {res['threshold']:.3e})")
    all_passed = all(r["passed"] for r in results)
    payload = {
        "schema": SCHEMA_VERSION,
        "config": cfg.resolved(),
        "checks": results,
        "all_passed": all_passed,
    }
    write_text(cfg.out_dir / "verify_report.json", json_text(payload))
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


# ------------------------------------------------------------------------ main

def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = _resolve(args, parser)
    commands = {"ground-state": cmd_ground_state, "classify": cmd_classify,
                "portrait": cmd_portrait, "sweep": cmd_sweep, "verify": cmd_verify}
    return commands[args.command](cfg, parser)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
