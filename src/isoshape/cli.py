"""Command-line front end: configuration parsing, orchestration, artifacts.

Subcommands
-----------
eval         energy breakdown of the unit-volume ball at the configured
             parameters, written as JSON
minimize     descend E_gamma from the configured initial shape; writes the
             final configuration (shape.json) and its breakdown
sweep        minimize across a gamma list; writes CSV and, with --svg, a
             polyline chart of energy and asphericity against log gamma
fuglede      deficit table (perimeter and Riesz deficits, H^1 norm, ratio)
             for single-mode perturbations of the unit ball, as CSV
verify       run every oracle corpus and write the check reports as JSON;
             any violation makes the exit status 1
scale-check  residuals of the scaling identity
             E_1(m^(1/d) Omega) = m^((d-1+p)/d) E_gamma(Omega) with
             gamma = m^(-(p+alpha-d-1)/d) across a (p, alpha) grid

Configuration comes from an optional JSON file (--config) plus flags;
flags override file values, unknown file keys are rejected, and every
parse error names the offending key and the violated constraint.
Defaults: d=2, p=2, alpha=1, gamma=0.01, n=128, seed=0, max_iter=2000.

Exit codes: 0 success, 1 check violation, 2 usage or configuration
error, 3 numerical failure during a run.  CSV output uses '.' decimal
and 17 significant digits so reruns of an identical RunConfig reproduce
files byte for byte; SVG is emitted directly as polylines with no
plotting dependency.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .energy import total_energy
from .errors import ConfigError, IsoshapeError, ValidationError
from .fuglede import deficit_report, report_to_csv
from .geometry import (
    EnergyParams,
    config_to_dict,
    dilate,
    make_ball,
    make_grid,
    unit_ball_volume,
)
from .errors import CriticalExponentError
from .optimize import (
    OptimizerOptions,
    build_initial_config,
    gamma_to_mass,
    minimize,
    records_to_csv,
    sweep_gamma,
)

__all__ = ["RunConfig", "parse_config", "run", "main",
           "sweep_svg", "SCALE_CSV_HEADER"]

COMMANDS = ("eval", "minimize", "sweep", "fuglede", "verify", "scale-check")

# keys accepted in a JSON config file; everything else is rejected
_FILE_KEYS = {
    "d": int, "p": float, "alpha": float, "gamma": float,
    "gammas": list, "n": int, "seed": int, "out": str, "svg": bool,
    "max_iter": int,
}

_DEFAULT_GAMMAS = tuple(float(g) for g in np.logspace(-3.0, 2.0, 11))

SCALE_CSV_HEADER = "d,p,alpha,gamma,m,residual,status"


@dataclass(frozen=True)
class RunConfig:
    """One fully validated run: command, physics, grids, optimizer, output."""

    command: str
    params: EnergyParams
    n: int
    opts: OptimizerOptions
    gammas: tuple
    out: str
    seed: int
    svg: bool

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}; "
                              f"choose from {COMMANDS}")
        if self.n < 8:
            raise ConfigError(f"key 'n': grid resolution {self.n}; need n >= 8")
        if not self.gammas or not all(math.isfinite(g) and g > 0
                                      for g in self.gammas):
            raise ConfigError("key 'gammas': need a nonempty list of "
                              "finite, positive gammas")
        if self.seed < 0:
            raise ConfigError(f"key 'seed': seed {self.seed}; need seed >= 0")


def _coerce(key: str, value, kind):
    if kind is float and isinstance(value, (int, float)) \
            and not isinstance(value, bool):
        return float(value)
    if kind is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if kind is bool and isinstance(value, bool):
        return value
    if kind is str and isinstance(value, str):
        return value
    if kind is list and isinstance(value, (list, tuple)):
        try:
            return [float(v) for v in value]
        except (TypeError, ValueError):
            raise ConfigError(f"key {key!r}: expected a list of numbers, "
                              f"got {value!r}") from None
    raise ConfigError(f"key {key!r}: expected {kind.__name__}, got {value!r}")


def _read_file(path: str) -> dict:
    fp = Path(path)
    if not fp.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(fp.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path}: top level must be an object")
    out = {}
    for key, value in raw.items():
        if key not in _FILE_KEYS:
            raise ConfigError(f"unknown config key {key!r}; allowed keys: "
                              f"{sorted(_FILE_KEYS)}")
        out[key] = _coerce(key, value, _FILE_KEYS[key])
    return out


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="isoshape",
        description="minimize and verify the weighted nonlocal "
                    "isoperimetric energy")
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("--config", metavar="FILE", help="JSON run configuration")
    ap.add_argument("--d", type=int, help="ambient dimension (2 or 3)")
    ap.add_argument("--p", type=float, help="density exponent, a(x)=|x|^p")
    ap.add_argument("--alpha", type=float, help="Riesz exponent in (0, d)")
    ap.add_argument("--gamma", type=float, help="interaction strength")
    ap.add_argument("--gammas", metavar="LIST",
                    help="comma-separated gamma list for sweeps")
    ap.add_argument("--n", type=int, help="sphere grid resolution")
    ap.add_argument("--seed", type=int, help="RNG seed")
    ap.add_argument("--out", metavar="DIR", help="output directory")
    ap.add_argument("--svg", action="store_true", default=None,
                    help="also write an SVG chart (sweep only)")
    return ap


def parse_config(argv) -> RunConfig:
    """argv (without program name) -> validated RunConfig.

    File values come first, command-line flags override them, and every
    constraint violation is reported as ConfigError naming the key.
    """
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code not in (0, None):
            raise ConfigError("invalid command line (see usage above)") from None
        raise
    if ns.gamma is not None and ns.gammas is not None:
        raise ConfigError("conflicting flags: --gamma and --gammas both "
                          "given; sweeps take --gammas, single runs --gamma")

    cfg = dict(d=2, p=2.0, alpha=1.0, gamma=0.01, n=128, seed=0,
               out=".", svg=False, gammas=list(_DEFAULT_GAMMAS),
               max_iter=2000)
    if ns.config is not None:
        cfg.update(_read_file(ns.config))
    for key in ("d", "p", "alpha", "gamma", "n", "seed", "out", "svg"):
        value = getattr(ns, key)
        if value is not None:
            cfg[key] = value
    if ns.gammas is not None:
        try:
            cfg["gammas"] = [float(tok) for tok in ns.gammas.split(",") if tok]
        except ValueError:
            raise ConfigError(f"--gammas: expected comma-separated floats, "
                              f"got {ns.gammas!r}") from None

    try:
        params = EnergyParams(d=cfg["d"], p=cfg["p"], alpha=cfg["alpha"],
                              gamma=cfg["gamma"])
    except ValidationError as exc:
        raise ConfigError(f"energy parameters: {exc}") from None
    try:
        opts = OptimizerOptions(max_iter=cfg["max_iter"])
    except ValidationError as exc:
        raise ConfigError(f"optimizer options: {exc}") from None
    return RunConfig(command=ns.command, params=params, n=int(cfg["n"]),
                     opts=opts, gammas=tuple(sorted(cfg["gammas"])),
                     out=cfg["out"], seed=int(cfg["seed"]), svg=cfg["svg"])


# ----------------------------------------------------------------------
# artifact writers
# ----------------------------------------------------------------------

def _write(outdir: Path, name: str, text: str) -> Path:
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / name
    path.write_text(text)
    return path


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _params_dict(params: EnergyParams, n: int) -> dict:
    return {"d": params.d, "p": params.p, "alpha": params.alpha,
            "gamma": params.gamma, "n": n}


def sweep_svg(records) -> str:
    """A 720 x 480 chart of two stacked polyline panels: energy and
    asphericity vs log10 gamma."""
    recs = [r for r in records if math.isfinite(r.energy)]
    if not recs:
        raise ValidationError("no finite sweep records to plot")
    xs = [math.log10(r.gamma) for r in recs]
    panels = [("energy e(gamma)", [r.energy for r in recs]),
              ("asphericity", [r.asphericity for r in recs])]
    width, height, mx = 720, 480, 70
    panel_h = (height - 60) // 2
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" font-family="monospace" font-size="11">']
    x0, x1 = min(xs), max(xs)
    xspan = (x1 - x0) or 1.0

    def sx(x):
        return mx + (x - x0) / xspan * (width - mx - 20)

    for i, (label, ys) in enumerate(panels):
        top = 20 + i * (panel_h + 20)
        y0, y1 = min(ys), max(ys)
        yspan = (y1 - y0) or 1.0

        def sy(y, top=top, y0=y0, yspan=yspan):
            return top + panel_h - (y - y0) / yspan * panel_h

        parts.append(f'<rect x="{mx}" y="{top}" width="{width - mx - 20}" '
                     f'height="{panel_h}" fill="none" stroke="black"/>')
        parts.append(f'<text x="{mx}" y="{top - 6}">{label}</text>')
        for k in range(math.ceil(x0), math.floor(x1) + 1):
            parts.append(f'<line x1="{sx(k):.1f}" y1="{top}" '
                         f'x2="{sx(k):.1f}" y2="{top + panel_h}" '
                         f'stroke="#ccc"/>')
            parts.append(f'<text x="{sx(k) - 14:.1f}" y="{top + panel_h + 14}">'
                         f'1e{k:+d}</text>')
        for value, frac in ((y0, 1.0), (y1, 0.0)):
            parts.append(f'<text x="4" y="{top + frac * panel_h + 4:.1f}">'
                         f'{value:.3g}</text>')
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f4e9c" '
                     f'stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _cmd_eval(cfg: RunConfig, outdir: Path) -> int:
    grid = make_grid(cfg.params.d, cfg.n)
    r0 = unit_ball_volume(cfg.params.d) ** (-1.0 / cfg.params.d)
    ball = make_ball(r0, np.zeros(cfg.params.d), grid)
    bd = total_energy(ball, cfg.params)
    doc = {"params": _params_dict(cfg.params, cfg.n),
           "shape": "ball", "radius": r0, "breakdown": bd.to_dict()}
    path = _write(outdir, "eval.json", _json(doc))
    print(f"eval: total={bd.total:.12g} (perimeter={bd.weighted_perimeter:.12g}"
          f" riesz={bd.riesz:.12g}) -> {path}")
    return 0


def _cmd_minimize(cfg: RunConfig, outdir: Path) -> int:
    grid = make_grid(cfg.params.d, cfg.n)
    init = build_initial_config(cfg.params, grid, cfg.opts.init)
    config, record = minimize(init, cfg.params, cfg.opts)
    shape_path = _write(outdir, "shape.json",
                        json.dumps(config_to_dict(config)) + "\n")
    doc = {"params": _params_dict(cfg.params, cfg.n),
           "record": {"energy": record.energy,
                      "asphericity": record.asphericity,
                      "iterations": record.iterations,
                      "converged": record.converged,
                      "n_components": record.n_components},
           "breakdown": record.breakdown.to_dict()}
    path = _write(outdir, "minimize.json", _json(doc))
    print(f"minimize: energy={record.energy:.12g} "
          f"asphericity={record.asphericity:.3e} "
          f"iterations={record.iterations} converged={record.converged} "
          f"-> {shape_path}, {path}")
    return 0


def _cmd_sweep(cfg: RunConfig, outdir: Path) -> int:
    grid = make_grid(cfg.params.d, cfg.n)
    records = sweep_gamma(cfg.gammas, cfg.params, grid, cfg.opts)
    csv_path = _write(outdir, "sweep.csv", records_to_csv(records))
    print(f"sweep: {len(records)} gammas -> {csv_path}")
    if cfg.svg:
        svg_path = _write(outdir, "sweep.svg", sweep_svg(records))
        print(f"sweep: chart -> {svg_path}")
    return 0


def _positive_gamma(cfg: RunConfig) -> float:
    """The gamma of a command that needs gamma > 0, else ConfigError."""
    if not cfg.params.gamma > 0:
        raise ConfigError(f"key 'gamma': {cfg.command} needs gamma > 0, "
                          f"got {cfg.params.gamma:g}")
    return cfg.params.gamma


def _cmd_fuglede(cfg: RunConfig, outdir: Path) -> int:
    gamma = _positive_gamma(cfg)
    grid = make_grid(cfg.params.d, cfg.n)
    rows = deficit_report(grid, modes=(2, 3, 4, 5, 6),
                          epsilons=(0.1, 0.05, 0.025), R=1.0,
                          p=cfg.params.p, alpha=cfg.params.alpha, gamma=gamma)
    path = _write(outdir, "fuglede.csv", report_to_csv(rows))
    print(f"fuglede: {len(rows)} deficit rows -> {path}")
    return 0


def _cmd_verify(cfg: RunConfig, outdir: Path) -> int:
    from .oracle import run_all_checks
    reports = run_all_checks(seed=cfg.seed)
    path = _write(outdir, "verify.json", _json(reports))
    violations = 0
    for rep in reports:
        status = "ok" if rep["violations"] == 0 else "FAIL"
        print(f"verify: {rep['check']:<18} trials={rep['trials']:<4} "
              f"violations={rep['violations']:<3} "
              f"worst_margin={rep['worst_margin']:+.3e}  {status}")
        violations += rep["violations"]
    print(f"verify: report -> {path}")
    return 1 if violations else 0


_SCALE_GRID = ((0.5, 0.5), (1.0, 0.5), (3.0, 0.5),
               (0.5, 1.0), (1.0, 1.0), (3.0, 1.0))


def _cmd_scale_check(cfg: RunConfig, outdir: Path) -> int:
    from .oracle import random_star
    d = cfg.params.d
    gamma = _positive_gamma(cfg)
    rng = np.random.default_rng(cfg.seed)
    rows = []
    failures = 0
    for p, alpha in _SCALE_GRID:
        shape = random_star(rng, n=cfg.n, d=d, amp=0.08, kmax=3)
        params = EnergyParams(d=d, p=p, alpha=alpha, gamma=gamma)
        try:
            m = gamma_to_mass(gamma, params)
        except CriticalExponentError:
            rows.append((d, p, alpha, gamma, math.nan, math.nan, "critical"))
            continue
        lhs = total_energy(dilate(shape, m ** (1.0 / d)),
                           replace(params, gamma=1.0)).total
        rhs = m ** ((d - 1 + p) / d) * total_energy(shape, params).total
        residual = abs(lhs - rhs) / abs(rhs)
        status = "pass" if residual <= 1e-6 else "FAIL"
        failures += int(status == "FAIL")
        rows.append((d, p, alpha, gamma, m, residual, status))
    lines = [SCALE_CSV_HEADER]
    for d_, p, alpha, g, m, res, status in rows:
        lines.append(",".join([str(d_), "%.17g" % p, "%.17g" % alpha,
                               "%.17g" % g, "%.17g" % m, "%.17g" % res,
                               status]))
        print(f"scale-check: d={d_} p={p:<4g} alpha={alpha:<4g} "
              f"gamma={g:g} m={m:<12.6g} residual={res:.3e}  {status}")
    path = _write(outdir, "scale_check.csv", "\n".join(lines) + "\n")
    print(f"scale-check: table -> {path}")
    return 1 if failures else 0


_DISPATCH = {
    "eval": _cmd_eval,
    "minimize": _cmd_minimize,
    "sweep": _cmd_sweep,
    "fuglede": _cmd_fuglede,
    "verify": _cmd_verify,
    "scale-check": _cmd_scale_check,
}


def run(cfg: RunConfig) -> int:
    """Execute one RunConfig; returns the process exit code."""
    return _DISPATCH[cfg.command](cfg, Path(cfg.out))


def main(argv=None) -> int:
    try:
        cfg = parse_config(sys.argv[1:] if argv is None else argv)
    except ConfigError as exc:
        print(f"isoshape: config error: {exc}", file=sys.stderr)
        return 2
    except SystemExit:
        return 0
    try:
        return run(cfg)
    except ConfigError as exc:
        print(f"isoshape: config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"isoshape: cannot write artifacts: {exc}", file=sys.stderr)
        return 2
    except IsoshapeError as exc:
        print(f"isoshape: {cfg.command} failed numerically: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
