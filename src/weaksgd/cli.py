"""Command-line entry point.

Subcommands:

* ``constants`` — closed-form vs Monte Carlo normalizing constants, with a
  four-standard-error agreement verdict per dimension.
* ``run`` — execute a configured experiment; writes ``curve.csv``,
  ``curve.svg`` and a ``manifest`` that reproduces the run bit for bit.
* ``game`` — build and solve the set-query matrix game.
* ``verify`` — fast invariant battery over the whole package.

Exit codes: 0 success, 1 invalid configuration, 2 runtime failure,
3 failed verdict/invariant.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__, game, geometry
from .evaluation import emit_csv, emit_svg
from .experiments import (
    ConfigError,
    config_from_mapping,
    config_to_mapping,
    run_curve,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_CHECK = 3


def parse_config(text: str) -> dict:
    """Flat ``key = value`` lines; ``#`` starts a comment; later keys win."""
    out = {}
    for ln_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {ln_no}: expected 'key = value', got {raw!r}")
        out[key.strip()] = value.strip()
    return out


def serialize_config(mapping: dict) -> str:
    """Normalized form: sorted keys, single spaces, trailing newline."""
    return "".join(f"{k} = {mapping[k]}\n" for k in sorted(mapping))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="weaksgd")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("constants", help="closed-form vs Monte Carlo constants")
    c.add_argument("--m", default="1,2,3,10,50",
                   help="comma-separated output dimensions")
    c.add_argument("--scale", type=float, default=1.0, help="range bound M for c1")
    c.add_argument("--samples", type=int, default=10**6)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", default=None, help="optional CSV destination")

    r = sub.add_parser("run", help="run a configured experiment")
    r.add_argument("--config", default=None, help="key = value configuration file")
    r.add_argument("--outdir", default=".", help="where curve.csv/curve.svg/manifest go")
    run_flags = [
        ("task", str, "sin-regression | anchor-classification | libsvm | csv-regression"),
        ("strategy", str, "query strategy; the valid set depends on the task"),
        ("schedule", str, "decaying (gamma0/sqrt(t)) or constant"),
        ("input", str, "input file for libsvm / csv-regression tasks"),
        ("target", str, "CSV target column names, comma-separated"),
        ("budget", int, "total number of label bits per trial"),
        ("trials", int, "number of seeded trials to aggregate"),
        ("seed", int, "base seed; trial i runs at seed+i"),
        ("classes", int, "class count for anchor-classification"),
        ("rank", int, "number of kernel representers"),
        ("grid-size", int, "evaluation grid size for synthetic risks"),
        ("jobs", int, "worker processes for trials"),
        ("sigma", float, "kernel bandwidth (default: task-specific)"),
        ("gamma0", float, "step-size scale"),
        ("ridge", float, "coefficient shrinkage strength"),
        ("bound", float, "range bound M for least-squares thresholds"),
        ("epsilon", float, "excluded band half-width for anchor-classification"),
        ("train-fraction", float, "train share for file-backed tasks"),
    ]
    for key, kind, text in run_flags:
        if kind is str:
            r.add_argument(f"--{key}", default=None, help=text)
        else:
            r.add_argument(f"--{key}", type=kind, default=None, help=text)

    g = sub.add_parser("game", help="solve the set-query matrix game")
    g.add_argument("--p", default=None, help="comma-separated class distribution")
    g.add_argument("--sets", default=None,
                   help="semicolon-separated sets of comma-separated classes; "
                        "defaults to all singletons")
    g.add_argument("--counterexample", action="store_true",
                   help="load the three-class counter-example p=(.4,.3,.3) "
                        "with singleton queries")
    g.add_argument("--tol", type=float, default=1e-9)

    v = sub.add_parser("verify", help="run the fast invariant battery")
    v.add_argument("--seed", type=int, default=0)
    return parser


def cmd_constants(args) -> int:
    try:
        ms = [int(tok) for tok in args.m.split(",") if tok.strip()]
        if not ms or args.samples < 1000 or not args.scale > 0:
            raise ValueError
    except ValueError:
        print("constants: --m needs integers, --samples >= 1000, --scale > 0",
              file=sys.stderr)
        return EXIT_CONFIG
    rng = np.random.default_rng(args.seed)
    header = "m,c2_closed,c2_mc,c2_se,c1_closed,c1_mc,c1_se,verdict"
    rows = []
    all_ok = True
    for m in ms:
        c2 = geometry.c2_constant(m)
        c1 = geometry.c1_constant(m, args.scale)
        e2 = geometry.estimate_constant_mc(rng, m, "median", args.samples)
        e1 = geometry.estimate_constant_mc(rng, m, "least-squares", args.samples,
                                           M=args.scale)
        ok = e2.agrees_with(c2) and e1.agrees_with(c1)
        all_ok &= ok
        rows.append(f"{m},{c2!r},{e2.mean!r},{e2.std_error!r},"
                    f"{c1!r},{e1.mean!r},{e1.std_error!r},{'ok' if ok else 'FAIL'}")
    print(header)
    for row in rows:
        print(row)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(header + "\n" + "\n".join(rows) + "\n")
    if not all_ok:
        print("constants: closed form and Monte Carlo disagree beyond 4 standard errors",
              file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


_RUN_FLAGS = ("task", "strategy", "schedule", "input", "target", "budget", "trials",
              "seed", "classes", "rank", "grid_size", "jobs", "sigma", "gamma0",
              "ridge", "bound", "epsilon", "train_fraction")


def cmd_run(args) -> int:
    mapping = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                mapping.update(parse_config(fh.read()))
        except OSError as exc:
            print(f"run: cannot read config: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    for key in _RUN_FLAGS:
        value = getattr(args, key)
        if value is not None:
            mapping[key] = str(value)
    try:
        cfg = config_from_mapping(mapping).resolved()
    except ConfigError as exc:
        print(f"run: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    os.makedirs(args.outdir, exist_ok=True)
    paths = [os.path.join(args.outdir, name) for name in ("curve.csv", "curve.svg", "manifest")]
    try:
        curve = run_curve(cfg)
        if not np.isfinite(curve.mean_risk).all():
            raise ValueError("the risk curve is not finite; the iterates diverged "
                             "(try a smaller gamma0)")
        emit_csv(curve, paths[0])
        emit_svg([(cfg.strategy, curve)], paths[1], axes="loglog")
        manifest = (f"# weaksgd {__version__}, numpy {np.__version__}\n"
                    + serialize_config(config_to_mapping(cfg)))
        with open(paths[2], "w", encoding="utf-8") as fh:
            fh.write(manifest)
    except Exception as exc:  # partial artifacts must not survive a failed run
        for p in paths:
            if os.path.exists(p):
                os.unlink(p)
        print(f"run: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"wrote {paths[0]}, {paths[1]}, {paths[2]}")
    return EXIT_OK


def cmd_game(args) -> int:
    try:
        if args.counterexample:
            p = np.array([0.4, 0.3, 0.3])
            family = game.singleton_family(3)
        else:
            if not args.p:
                raise ConfigError("game needs --p or --counterexample")
            p = np.array([float(tok) for tok in args.p.split(",")])
            if args.sets:
                family = [frozenset(int(t) for t in chunk.split(","))
                          for chunk in args.sets.split(";") if chunk.strip()]
            else:
                family = game.singleton_family(len(p))
        matrix = game.build_game(p, family)
    except (ConfigError, ValueError) as exc:
        print(f"game: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        sol = game.solve_game(matrix, tol=args.tol)
    except game.GameSolveError as exc:
        print(f"game: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"value,{sol.value!r}")
    print("query_strategy," + ",".join(repr(float(x)) for x in sol.row_strategy))
    print("prediction_strategy," + ",".join(repr(float(x)) for x in sol.col_strategy))
    print(f"duality_gap,{sol.duality_gap!r}")
    return EXIT_OK


def _verify_checks(seed: int):
    from .surrogate import surrogate_target_check
    rng = np.random.default_rng(seed)

    def constants_agree():
        for m in (1, 2, 3, 8):
            if not geometry.estimate_constant_mc(rng, m, "median", 200_000).agrees_with(
                geometry.c2_constant(m)
            ):
                return False
            if not geometry.estimate_constant_mc(
                rng, m, "least-squares", 200_000, M=1.0
            ).agrees_with(geometry.c1_constant(m, 1.0)):
                return False
        return True

    def reconstruction():
        for _ in range(3):
            z = geometry.sample_sphere(rng, 3)
            mean, se = geometry.estimate_reconstruction_mc(rng, z, "median", 100_000)
            if (np.abs(mean - geometry.c2_constant(3) * z) > 5 * se + 1e-12).any():
                return False
        return True

    def anchored_median():
        w = np.array([1.0, 1.0, 2.0 * np.cos(np.pi / 6.0)])
        med = geometry.geometric_median(np.eye(3), w / w.sum(), tol=1e-10)
        return float(np.abs(med - np.array([0.0, 0.0, 1.0])).max()) < 1e-6

    def counterexample_game():
        sol = game.solve_game(game.build_game(
            [0.4, 0.3, 0.3], game.singleton_family(3)), tol=1e-9)
        return (abs(sol.value + 0.1) < 1e-6
                and np.abs(sol.row_strategy - [0.5, 0.25, 0.25]).max() < 1e-6
                and np.abs(sol.col_strategy - [0.25, 0.375, 0.375]).max() < 1e-6)

    def oracle_protocol():
        from .oracle import BudgetExhausted, QueryOracle, StreamingViolation
        orc = QueryOracle.for_regression(np.ones((2, 1)), budget=2)
        try:
            orc.halfspace_query(1, [0.0], [1.0])
            return False
        except StreamingViolation:
            pass
        orc.halfspace_query(0, [0.0], [1.0])
        orc.halfspace_query(1, [0.0], [1.0])
        try:
            orc.halfspace_query(1, [0.0], [1.0])
            return False
        except BudgetExhausted:
            return orc.budget_used == 2

    def ordering():
        w = np.array([1.0, 1.0, 2.0 * np.cos(np.pi / 6.0)])
        return surrogate_target_check(w / w.sum(), tol=1e-6).ok

    return [
        ("constants-4sigma", constants_agree),
        ("reconstruction-identity", reconstruction),
        ("geometric-median-anchor", anchored_median),
        ("counterexample-game", counterexample_game),
        ("oracle-protocol", oracle_protocol),
        ("surrogate-ordering", ordering),
    ]


def cmd_verify(args) -> int:
    failures = 0
    for name, check in _verify_checks(args.seed):
        try:
            ok = bool(check())
        except Exception as exc:
            print(f"FAIL {name}: {exc}")
            failures += 1
            continue
        print(("ok   " if ok else "FAIL ") + name)
        failures += 0 if ok else 1
    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "constants":
            return cmd_constants(args)
        if args.command == "run":
            return cmd_run(args)
        if args.command == "game":
            return cmd_game(args)
        if args.command == "verify":
            return cmd_verify(args)
    except ConfigError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
