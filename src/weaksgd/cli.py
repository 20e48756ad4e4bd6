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
from dataclasses import fields

import numpy as np

from . import __version__, game, geometry
from .evaluation import emit_csv, emit_svg
from .experiments import (
    ConfigError,
    ExperimentConfig,
    _owned,
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


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a malformed command line; here 2 is a runtime failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="weaksgd")
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
    # each config field is a flag, kept as a string: config_from_mapping parses it
    for f in fields(ExperimentConfig):
        r.add_argument(f"--{f.name.replace('_', '-')}", default=None, help=f.metadata["help"])

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


def _constants_table(rng, ms, scale: float, samples: int):
    """CSV rows of closed-form c2 and c1 against Monte Carlo, one per dimension,
    and whether every row agrees within four standard errors. Every dimension
    and the sample count are checked by their owners before the first draw."""
    closed = [(_owned("--m", m, "a sphere dimension", geometry.c2_constant, m),
               geometry.c1_constant(m, scale)) for m in ms]
    rows = []
    all_ok = True
    for m, (c2, c1) in zip(ms, closed):
        e2 = _owned("--samples", samples, "a Monte Carlo sample count",
                    geometry.estimate_constant_mc, rng, m, "median", samples)
        e1 = geometry.estimate_constant_mc(rng, m, "least-squares", samples, M=scale)
        ok = e2.agrees_with(c2) and e1.agrees_with(c1)
        all_ok &= ok
        rows.append(f"{m},{c2!r},{e2.mean!r},{e2.std_error!r},"
                    f"{c1!r},{e1.mean!r},{e1.std_error!r},{'ok' if ok else 'FAIL'}")
    return rows, all_ok


def cmd_constants(args) -> int:
    try:
        ms = [int(tok) for tok in args.m.split(",") if tok.strip()]
    except ValueError:
        ms = []
    if not ms:
        raise ConfigError(f"--m needs comma-separated integers, got {args.m!r}")
    _owned("--scale", args.scale, "a range bound", geometry._check_scale, args.scale)
    rng = _owned("--seed", args.seed, "a generator seed", np.random.default_rng, args.seed)
    rows, all_ok = _constants_table(rng, ms, args.scale, args.samples)
    header = "m,c2_closed,c2_mc,c2_se,c1_closed,c1_mc,c1_se,verdict"
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


def cmd_run(args) -> int:
    mapping = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                mapping.update(parse_config(fh.read()))
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
    for f in fields(ExperimentConfig):
        value = getattr(args, f.name)
        if value is not None:
            mapping[f.name] = value
    cfg = config_from_mapping(mapping).resolved()
    names = ("curve.csv", "curve.svg", "manifest")
    paths = [os.path.join(args.outdir, name) for name in names]
    # written under temporary names and moved into place only once all three
    # exist, so a failed run leaves an earlier run's artifacts as they were
    temps = [os.path.join(args.outdir, f".{name}.{os.getpid()}.tmp") for name in names]
    try:
        curve = run_curve(cfg)
        if not np.isfinite(curve.mean_risk).all():
            raise ValueError("the risk curve is not finite; the iterates diverged "
                             "(try a smaller gamma0)")
        os.makedirs(args.outdir, exist_ok=True)  # only now: a failed run leaves no new directory
        emit_csv(curve, temps[0])
        emit_svg([(cfg.strategy, curve)], temps[1])
        manifest = (f"# weaksgd {__version__}, numpy {np.__version__}\n"
                    + serialize_config(config_to_mapping(cfg)))
        with open(temps[2], "w", encoding="utf-8") as fh:
            fh.write(manifest)
    except Exception:
        for p in temps:
            if os.path.exists(p):
                os.unlink(p)
        raise
    for temp, path in zip(temps, paths):
        os.replace(temp, path)
    print(f"wrote {paths[0]}, {paths[1]}, {paths[2]}")
    return EXIT_OK


def cmd_game(args) -> int:
    _owned("--tol", args.tol, "a tolerance", geometry._check_tol, args.tol)
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
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    sol = game.solve_game(matrix, tol=args.tol)
    print(f"value,{sol.value!r}")
    print("query_strategy," + ",".join(repr(float(x)) for x in sol.row_strategy))
    print("prediction_strategy," + ",".join(repr(float(x)) for x in sol.col_strategy))
    print(f"duality_gap,{sol.duality_gap!r}")
    return EXIT_OK


def _verify_checks(rng: np.random.Generator):
    from .surrogate import surrogate_target_check

    def constants_agree():
        return _constants_table(rng, (1, 2, 3, 8), 1.0, 200_000)[1]

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
    rng = _owned("--seed", args.seed, "a generator seed", np.random.default_rng, args.seed)
    failures = 0
    for name, check in _verify_checks(rng):
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
    command = {"constants": cmd_constants, "run": cmd_run, "game": cmd_game,
               "verify": cmd_verify}[args.command]
    try:
        return command(args)
    except ConfigError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
