"""Command-line driver: experiment orchestration, persistence, reproduction.

Subcommands (one per experiment family):

    greedy           design controls, persist them with the basis order
    identify         synthesize data with the configured truth and fit
                     coefficients; writes error-field and Taylor outputs
    baseline         random constant controls + identification
    landscape        2-D objective scan over a coefficient pair
    taylor           Taylor-gap table from a stored identification
    stability-probe  empirical perturbation-response ratios
    all              greedy -> identify -> landscape

Artifacts are directories of JSON summaries and CSV matrices; CSV floats
carry 17 significant digits so reruns with equal seeds are byte-identical.
A directory holds one design: ``greedy`` and ``baseline`` start it over
(``write_design``); ``identify``, ``landscape`` and ``taylor`` read its
config, basis and controls (``--config`` only names the directory, and is
not read when ``--out`` is given), and every other command writes only its
own outputs.
Exit codes: 0 success, 2 config error, 3 numerical failure, 4 partial
result (a greedy design stopped by a failure, written up to its last step).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import analysis
from .config import ConfigError, ExperimentConfig, build_context, greedy_config, truth_nonlinearity
from .exceptions import GreedyFailure, NumericalError
from .greedy import run_greedy
from .grid import Grid
from .nonlinearity import CLOSED_FORM_KINDS
from .objectives import constant_control

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_PARTIAL = 4


def _fmt(x: float) -> str:
    return "%.17g" % x


def write_csv(path: Path, header: list[str], rows, formatted: bool = False) -> None:
    """The header line, then one line per row, a tuple of numbers, each
    written with 17 significant digits: floats round-trip and integers
    (all below 10^17 here) are written as integers.  With ``formatted`` the
    rows are those lines already, newline included."""
    if not formatted:
        line = ",".join(["%.17g"] * len(header)) + "\n"
        rows = (line % row for row in rows)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(rows)


def write_matrix_csv(path: Path, corner: str, col_coords, row_coords, matrix) -> None:
    """Matrix with axis headers: first row = column coordinates, first
    column = row coordinates; NaN entries spelled 'nan'."""
    with open(path, "w") as fh:
        fh.write(corner + "," + ",".join(_fmt(c) for c in col_coords) + "\n")
        for r, row in zip(row_coords, matrix):
            fh.write(_fmt(r) + "," + ",".join(_fmt(v) for v in row) + "\n")


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_controls(path: Path, grid: Grid) -> list[np.ndarray]:
    """Controls by index; ConfigError unless every value is finite, every
    boundary node holds 0 and the controls are 0..M-1, each setting every
    grid node exactly once, as write_design writes them."""
    lines = path.read_text().strip().split("\n")[1:]
    side = grid.n + 1
    flat, values = np.empty(len(lines), dtype=np.int64), np.empty(len(lines))
    for row, line in enumerate(lines):
        try:
            m, comp, i, j, value = line.split(",")
            m, comp, i, j, values[row] = int(m), int(comp), int(i), int(j), float(value)
        except ValueError as exc:
            raise ConfigError(f"{path}: malformed row {line!r}") from exc
        if not (0 <= comp <= 1 and 0 <= i < side and 0 <= j < side):
            raise ConfigError(f"{path}: row {line!r} lies outside the n={grid.n} grid")
        if not 0 <= m < len(lines):
            raise ConfigError(f"{path}: row {line!r} has no control index 0..M-1")
        flat[row] = ((m * 2 + comp) * side + i) * side + j
    if not np.isfinite(values).all():
        raise ConfigError(f"{path}: non-finite row {lines[np.argmin(np.isfinite(values))]!r}")
    i, j = flat // side % side, flat % side
    stray = (values != 0.0) & ((i % grid.n == 0) | (j % grid.n == 0))
    if stray.any():
        raise ConfigError(f"{path}: row {lines[np.argmax(stray)]!r} sets a boundary "
                          f"node, which every control holds at 0")
    del lines  # free the row strings before the fields are allocated
    fields = np.zeros((flat.max(initial=-1) // (2 * side * side) + 1, 2, side, side))
    if not np.all(np.bincount(flat, minlength=fields.size) == 1):
        raise ConfigError(f"{path}: the controls are not 0..M-1, each setting every "
                          f"node of the n={grid.n} grid exactly once")
    fields.reshape(-1)[flat] = values
    return list(fields)


def _load_artifact(out: Path):
    cfg = ExperimentConfig.load(out / "config.json")
    path = out / "basis.json"
    try:
        doc = json.loads(path.read_text())
        degree, order = doc["degree"], list(doc["order"])
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"{path}: malformed basis ({exc!r})") from exc
    if degree != cfg.degree:
        raise ConfigError(f"{path}: basis degree disagrees with config")
    try:
        ctx = build_context(cfg, order)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    controls = read_controls(out / "controls.csv", ctx.grid)
    if not controls:
        raise ConfigError(f"{out / 'controls.csv'} holds no control")
    return cfg, ctx, controls


def read_identified(out: Path, basis):
    """What identify stored: the coefficients by basis position and the truth
    they were fitted against, which may be an ``identify --truth`` override
    of the configured one; (None, None) before identify ran.  ConfigError
    unless identified.csv holds one row per position of ``basis``, in order,
    and identify.json names a closed-form truth."""
    path = out / "identified.csv"
    if not path.exists():
        return None, None
    exponents = basis.ordered_exponents()
    alpha = []
    for line in path.read_text().strip().split("\n")[1:]:
        try:
            position, i1, i2, value = line.split(",")
            position, exp, value = int(position), (int(i1), int(i2)), float(value)
        except ValueError as exc:
            raise ConfigError(f"{path}: malformed row {line!r}") from exc
        if (position != len(alpha) or position >= len(exponents)
                or exponents[position] != exp):
            raise ConfigError(f"{path}: row {line!r} does not follow basis.json")
        alpha.append(value)
    if len(alpha) != len(exponents):
        raise ConfigError(f"{path}: {len(alpha)} coefficients for a basis of "
                          f"{len(exponents)}")
    info = out / "identify.json"
    try:
        kind = json.loads(info.read_text())["truth"]
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"{info}: malformed ({exc!r})") from exc
    if kind not in CLOSED_FORM_KINDS:
        raise ConfigError(f"{info}: truth {kind!r} is not one of {CLOSED_FORM_KINDS}")
    return np.array(alpha), kind


# every file a command writes into an artifact directory besides the design
ARTIFACTS = ("greedy.json", "identified.csv", "identify.json", "error_field.csv",
             "taylor.csv", "landscape.csv", "stability.json", "summary.json")


def _control_lines(controls):
    """The ``control,component,i,j,value`` line of every node of every
    control in index order, as write_csv formats it.  The ``component,i,j``
    part is formatted once per grid shape, and each distinct value once per
    control: the cache keys on the value and its sign, since -0.0 == 0.0
    but prints as -0."""
    tails = {}
    for m, field in enumerate(controls):
        if field.shape not in tails:
            nodes = np.indices(field.shape).reshape(field.ndim, -1).T.tolist()
            tails[field.shape] = ["%d,%d,%d," % tuple(node) for node in nodes]
        texts = {}
        prefix = f"{m},"
        for tail, value in zip(tails[field.shape], field.ravel().tolist()):
            key = (value, math.copysign(1.0, value))
            text = texts.get(key)
            if text is None:
                text = texts[key] = "%.17g\n" % value
            yield prefix + tail + text


def write_design(cfg: ExperimentConfig, out: Path, controls, basis, summary: dict,
                 swaps=(), winners=()) -> None:
    """Start ``out`` over with a design: delete every file in ARTIFACTS, then
    write config.json, controls.csv, basis.json and a new summary.json."""
    out.mkdir(parents=True, exist_ok=True)
    for name in ARTIFACTS:
        (out / name).unlink(missing_ok=True)
    cfg.save(out / "config.json")
    write_csv(out / "controls.csv", ["control", "component", "i", "j", "value"],
              _control_lines(controls), formatted=True)
    write_json(out / "basis.json", {
        "degree": basis.degree,
        "exponents": [list(e) for e in basis.exponents],
        "order": [int(j) for j in basis.order],
        "swaps": [list(s) for s in swaps],
        "winners": [int(w) for w in winners],
    })
    write_json(out / "summary.json", dict(summary, tool_version=_version()))


def write_taylor(out: Path, kind: str, alpha, basis) -> None:
    table = analysis.taylor_error_table(kind, alpha, basis)
    write_csv(out / "taylor.csv",
              ["i1", "i2", "truth_coeff", "identified_coeff", "abs_error"],
              [(i1, i2, t, a, err) for (i1, i2), (t, a, err) in sorted(table.items())])


def read_summary(out: Path) -> dict:
    """summary.json of ``out``, or {} before any command wrote one.  Commands
    that add a section read it before they write anything, and write it
    back last, so one that fails on it has changed nothing."""
    path = out / "summary.json"
    try:
        payload = json.loads(path.read_text()) if path.exists() else {}
    except ValueError as exc:
        raise ConfigError(f"{path}: malformed ({exc!r})") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: the top level must be a JSON object")
    return payload


def cmd_greedy(cfg: ExperimentConfig, out: Path) -> int:
    ctx = build_context(cfg)
    gcfg = greedy_config(cfg)
    t0 = time.perf_counter()
    failure = None
    try:
        run = run_greedy(ctx, gcfg)
    except GreedyFailure as exc:
        # a failed design is written like a complete one, up to its last step
        run, failure = exc.partial, exc
    elapsed = time.perf_counter() - t0
    write_design(cfg, out, run.controls, run.basis,
                 {"greedy": {"k_final": run.k_final, "stopped_by": run.stopped_by,
                             "seconds": elapsed}},
                 run.swaps, run.winners)
    doc = {"failed": failure is not None, "k_final": run.k_final,
           "stopped_by": run.stopped_by, "f_max_history": run.f_max_history,
           "progress": run.progress}
    if failure is not None:
        doc["message"] = str(failure)
    write_json(out / "greedy.json", doc)
    if failure is not None:
        print(f"greedy failed: {failure}", file=sys.stderr)
        return EXIT_PARTIAL
    print(f"greedy: {run.k_final} controls ({run.stopped_by}) in {elapsed:.1f}s -> {out}")
    return EXIT_OK


def cmd_identify(out: Path, truth_override: str | None = None) -> int:
    cfg, ctx, controls = _load_artifact(out)
    summary = read_summary(out)
    return _identify(out, cfg, ctx, controls, truth_override or cfg.truth, summary)


def _identify(out: Path, cfg: ExperimentConfig, ctx, controls, kind: str,
              summary: dict) -> int:
    """identify on the design in ``out``, handed over as it is held in memory
    with the summary it extends."""
    truth = truth_nonlinearity(cfg, kind)
    t0 = time.perf_counter()
    data = analysis.generate_data(truth, controls, ctx)
    k_restrict = len(controls) if len(controls) < ctx.basis.size else None
    alpha, value, res = analysis.identify(
        controls, data, ctx, cfg.optim_coeff, cfg.alpha_max,
        seed=cfg.seed, k=k_restrict)
    elapsed = time.perf_counter() - t0

    exps = ctx.basis.ordered_exponents()
    write_csv(out / "identified.csv", ["position", "i1", "i2", "coefficient"],
              [(p, e[0], e[1], float(alpha[p])) for p, e in enumerate(exps)])

    states = ctx.solve(ctx.combo(alpha), np.stack(controls))
    sets, square = analysis.solution_sets(states)
    coll = [analysis.collinearity(s.points) for s in sets]
    coll_union = analysis.collinearity(np.concatenate([s.points for s in sets]))
    efield = analysis.error_field(truth, alpha, ctx.basis, square,
                                  m=cfg.error_lattice_m)
    write_matrix_csv(out / "error_field.csv", "y2\\y1", efield.y1, efield.y2,
                     efield.samples.T)
    onset = max(
        float(np.max(np.abs(analysis.error_values(truth, alpha, ctx.basis,
                                                   s.points[:, 0], s.points[:, 1]))))
        for s in sets
    )
    offset = float(np.max(np.abs(efield.samples)))

    write_taylor(out, kind, alpha, ctx.basis)

    write_json(out / "identify.json", {
        "truth": kind,
        "objective_value": value,
        "iterations": res.iterations,
        "evals": res.evals,
        "converged": bool(res.converged),
        "seconds": elapsed,
        "square_center": list(square[0]),
        "square_side": square[1],
        "collinearity_per_control": coll,
        "collinearity_union": coll_union,
        "max_error_on_sets": onset,
        "max_error_on_square": offset,
    })
    write_json(out / "summary.json",
               dict(summary, identify={"truth": kind, "objective_value": value,
                                       "max_collinearity": max(coll),
                                       "collinearity_union": coll_union,
                                       "seconds": elapsed}))
    print(f"identify[{kind}]: objective {value:.3e} in {elapsed:.1f}s -> {out}")
    return EXIT_OK


def cmd_baseline(cfg: ExperimentConfig, out: Path, count: int,
                 mode: str = "diagonal") -> int:
    ctx = build_context(cfg)
    box = greedy_config(cfg).box
    try:
        controls = analysis.random_constant_controls(count, box, ctx.grid,
                                                     seed=cfg.seed, mode=mode)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    write_design(cfg, out, controls, ctx.basis,
                 {"baseline": {"count": count, "seed": cfg.seed, "mode": mode}})
    # %.17g round-trips, so these are the controls identify would read back
    return _identify(out, cfg, ctx, controls, cfg.truth, read_summary(out))


def _resolve_pair(ctx, pair: str) -> tuple[int, int]:
    if pair == "auto":
        # the quadratic pair: coefficients multiplying y1^2 and y1*y2
        try:
            return ctx.basis.position_of((2, 0)), ctx.basis.position_of((1, 1))
        except ValueError as exc:
            raise ConfigError("automatic pair needs polynomial degree >= 2") from exc
    try:
        i, j = (int(p) for p in pair.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad --pair {pair!r}: expected 'auto' or 'i,j'") from exc
    if not (0 <= i < ctx.basis.size and 0 <= j < ctx.basis.size and i != j):
        raise ConfigError(f"pair positions out of range: {i},{j}")
    return i, j


def cmd_landscape(out: Path, pair: str, points: int, lo: float,
                  hi: float | None = None, truth_override: str | None = None) -> int:
    if points < 1:
        raise ConfigError(f"--points must be >= 1, got {points}")
    cfg, ctx, controls = _load_artifact(out)
    summary = read_summary(out)
    hi = cfg.alpha_max if hi is None else hi
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"--lo and --hi must be finite, got {lo} and {hi}")
    # scan the objective identify minimized: its truth and its coefficients
    alpha_base, kind = read_identified(out, ctx.basis)
    truth = truth_nonlinearity(cfg, truth_override or kind or cfg.truth)
    data = analysis.generate_data(truth, controls, ctx)
    idx = _resolve_pair(ctx, pair)
    if alpha_base is None:
        alpha_base = np.zeros(ctx.basis.size)
    lattice = np.linspace(lo, hi, points)
    scan = analysis.landscape_scan(controls, data, ctx, alpha_base, idx,
                                   lattice, lattice)
    write_matrix_csv(out / "landscape.csv", "c1\\c2", scan.coeff2, scan.coeff1,
                     scan.values)
    write_json(out / "summary.json",
               dict(summary, landscape={"index_pair": list(idx), "points": points,
                                        "lo": lo, "hi": hi}))
    print(f"landscape over positions {idx} -> {out / 'landscape.csv'}")
    return EXIT_OK


def cmd_taylor(out: Path) -> int:
    _, ctx, _ = _load_artifact(out)
    alpha, kind = read_identified(out, ctx.basis)
    if alpha is None:
        raise ConfigError("artifact has no identified coefficients; run identify")
    write_taylor(out, kind, alpha, ctx.basis)
    return EXIT_OK


def cmd_stability(cfg: ExperimentConfig, out: Path, k: int, samples: int) -> int:
    ctx = build_context(cfg)
    if not 1 <= k <= ctx.basis.size:
        raise ConfigError(f"--k must lie in [1, {ctx.basis.size}], got {k}")
    if samples < 2:
        raise ConfigError(f"--samples must be >= 2, got {samples}")
    summary = read_summary(out)
    # probe at the box midpoint, or half the upper bound if that is zero
    mid = 0.5 * (np.asarray(cfg.eps_a) + np.asarray(cfg.eps_b))
    if np.all(mid == 0.0):
        mid = 0.5 * np.asarray(cfg.eps_b)
    stats = analysis.stability_probe(ctx, k, samples, cfg.seed,
                                     constant_control(ctx.grid, mid),
                                     alpha_max=cfg.alpha_max)
    payload = {
        "k": k,
        "samples_used": stats.samples_used,
        "h1_per_dalpha": {"max": stats.h1_per_dalpha[0],
                          "median": stats.h1_per_dalpha[1]},
        "y_per_dalpha": {"max": stats.y_per_dalpha[0],
                         "median": stats.y_per_dalpha[1]},
        "dalpha_per_y": {"max": stats.dalpha_per_y[0],
                         "median": stats.dalpha_per_y[1]},
    }
    # the probe's config goes here, never into a design's config.json
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "stability.json", dict(payload, config=cfg.to_dict()))
    write_json(out / "summary.json", dict(summary, stability=payload))
    print(f"stability probe k={k}: H1 ratio max {stats.h1_per_dalpha[0]:.3e}")
    return EXIT_OK


def cmd_all(cfg: ExperimentConfig, out: Path) -> int:
    # the landscape step needs the quadratic pair; refuse before any work
    _resolve_pair(build_context(cfg), "auto")
    code = cmd_greedy(cfg, out)
    if code != EXIT_OK:
        return code
    code = cmd_identify(out)
    if code != EXIT_OK:
        return code
    return cmd_landscape(out, "auto", 21, 0.0)


def _version() -> str:
    from . import __version__

    return __version__


# commands that read the config.json of the design in the artifact directory;
# the command line's config only names that directory when --out does not
DESIGN_READERS = ("identify", "landscape", "taylor")


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.load(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.output_dir = args.out
    cfg.validate()
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greedyrecon",
        description="design optimal inputs and identify an unknown coupling "
                    "nonlinearity in a two-component elliptic system",
    )
    parser.add_argument("--config", help="path to a JSON config file")
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument("--out", help="artifact directory")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("greedy")
    p = sub.add_parser("identify")
    p.add_argument("--truth", choices=CLOSED_FORM_KINDS)
    p = sub.add_parser("baseline")
    p.add_argument("--count", type=int, default=19)
    p.add_argument("--mode", choices=["diagonal", "independent"],
                   default="diagonal")
    p = sub.add_parser("landscape")
    p.add_argument("--pair", default="auto",
                   help="'auto' or two comma-separated basis positions")
    p.add_argument("--points", type=int, default=21)
    p.add_argument("--lo", type=float, default=0.0)
    p.add_argument("--hi", type=float, default=None)
    p.add_argument("--truth", choices=CLOSED_FORM_KINDS)
    sub.add_parser("taylor")
    p = sub.add_parser("stability-probe")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--samples", type=int, default=50)
    sub.add_parser("all")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in DESIGN_READERS and args.out is not None:
            cfg, out = None, Path(args.out)
        else:
            cfg = _load_config(args)
            out = Path(cfg.output_dir)
        if args.command == "greedy":
            return cmd_greedy(cfg, out)
        if args.command == "identify":
            return cmd_identify(out, truth_override=args.truth)
        if args.command == "baseline":
            return cmd_baseline(cfg, out, args.count, mode=args.mode)
        if args.command == "landscape":
            return cmd_landscape(out, args.pair, args.points, args.lo, args.hi,
                                 truth_override=args.truth)
        if args.command == "taylor":
            return cmd_taylor(out)
        if args.command == "stability-probe":
            return cmd_stability(cfg, out, args.k, args.samples)
        if args.command == "all":
            return cmd_all(cfg, out)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
