"""Command-line entry point for reproducible generate/build/measure runs.

Every invocation is a pure function of its arguments and input files; the
``repro`` subcommand replays a stored run. Exit codes: 0 success, 2 usage,
3 domain error (a number too large for a float among them), 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

from spanlab import analytic, mc, metrics, nets
from spanlab.configs import (SCHEMA_VERSION, PointConfig, Window, _json_object,
                             csv_text, hex_config, json_text, poisson, square_grid,
                             tri_config, uniform_n)

# flags that carry builder parameters (see nets.BUILDERS) -> add_argument keywords
_BUILDER_FLAGS = {
    "m": {"type": int},
    "k": {"type": int},
    "t": {"type": float},
    "variant": {"choices": ["N1", "N2", "N3"]},
    "directions": {"help": "comma-separated cone direction indices"},
}

# configuration kind -> (flags it requires, generator(window, args))
_GENERATORS = {
    "poisson": ((), lambda w, a: poisson(w, rate=a.rate, seed=a.seed, torus=a.torus)),
    "uniform": (("n",), lambda w, a: uniform_n(a.n, w, seed=a.seed, torus=a.torus)),
    "square": ((), lambda w, a: square_grid(w)),
    "hex": ((), lambda w, a: hex_config(w)),
    "tri": ((), lambda w, a: tri_config(w)),
}

# bounds flag -> (its type, rows(value) as (name, value) pairs); bounds
# needs --table or at least one of these
_BOUNDS = {
    "psi-star": (float, lambda s: [("psi_star", analytic.psi_star(s))]),
    "prop38": (float, lambda c: zip(("prop38_lower_bound", "prop38_best_h", "prop38_best_L"),
                                    analytic.prop38_lower_bound(c))),
    "lm": (int, lambda m: [("theta_mean_length", analytic.theta_mean_length(m))]),
    "lk": (int, lambda k: [("cone_Lk", analytic.cone_Lk(k))]),
}

RESULT_CSV_HEADER = ("estimator", "params", "mean", "se", "n", "seed", "schema_version")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_IO = 4


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(path, "w") as f:
            f.write(text if text.endswith("\n") else text + "\n")


def _load(path: str) -> str:
    with open(path) as f:
        return f.read()


def _window_arg(spec: str) -> Window:
    parts = [float(v) for v in spec.split(",")]
    if len(parts) not in (1, 4):
        raise ValueError("window must be SIDE or X0,Y0,X1,Y1")
    return Window.from_bounds([0.0, 0.0, parts[0], parts[0]] if len(parts) == 1 else parts)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer: {text}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer: {text}")
    return value


def _builder_params(args) -> dict:
    params = {name: getattr(args, name, None) for name in _BUILDER_FLAGS}
    params = {name: v for name, v in params.items() if v is not None}
    if "directions" in params:
        params["directions"] = [int(v) for v in params["directions"].split(",")]
    return params


def _save_run(path: str | None, argv: list[str]) -> None:
    if path:
        with open(path, "w") as f:
            f.write(json_text(argv=list(argv)))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    if args.torus and args.kind in ("square", "hex", "tri"):
        raise ValueError("lattices have no torus form")
    cfg = _GENERATORS[args.kind][1](_window_arg(args.window), args)
    _write(args.out, cfg.to_json())
    return EXIT_OK


def cmd_build(args) -> int:
    cfg = PointConfig.from_json(_load(args.config))
    net = nets.build(args.net, cfg, _builder_params(args))
    _write(args.out, net.to_json())
    return EXIT_OK


def cmd_measure(args) -> int:
    net = nets.Network.from_json(_load(args.network))
    cols = ["schema_version", "kind", "normalized_length"]
    vals = [SCHEMA_VERSION, net.kind, metrics.normalized_length(net, args.margin)]
    if args.stretch:
        rep = metrics.stretch(net, mode=args.stretch,
                              margin_fraction=args.margin, seed=args.seed)
        cols += ["stretch_mode", "max_stretch", "argmax_i", "argmax_j", "n_pairs"]
        vals += [rep.mode, rep.max_ratio, *rep.argmax_pair, rep.n_pairs]
    if args.lines:
        rate, se = metrics.intersection_rate(net, n_lines=args.lines,
                                             seed=args.seed,
                                             margin_fraction=args.margin)
        cols += ["intersection_rate", "intersection_rate_se"]
        vals += [rate, se]
    _write(args.out, csv_text(cols, [vals]))
    return EXIT_OK


def cmd_bounds(args) -> int:
    if args.table:
        header = ("name", "param", "value", "tag", "schema_version")
        rows = analytic.reference_constants()
    else:
        header = ("name", "param", "value", "schema_version")
        rows = [(name, param, value) for flag, (_, rows_of) in _BOUNDS.items()
                if (param := getattr(args, flag.replace("-", "_"))) is not None
                for name, value in rows_of(param)]
    _write(args.out, csv_text(header, [(*row, SCHEMA_VERSION) for row in rows]))
    return EXIT_OK


def _psi_ave_upper(args, runs) -> list:
    result, worst = mc.estimate_psi_ave_upper(args.net, _builder_params(args),
                                              _window_arg(args.window), mode=args.mode, **runs)
    sys.stderr.write(f"max stretch {worst.max_ratio:.17g} over {worst.n_pairs} pairs\n")
    return [result]


# experiment name -> (flags it requires, runner(args, runs) -> results); a
# --net also requires its builder's flags, and a runner that takes a window
# parses --window itself, so one that ignores it never rejects it
_EXPERIMENTS = {
    "psi_ave_upper": (("net",), _psi_ave_upper),
    "crossing": (("h", "L"), lambda a, runs: list(mc.crossing_experiment(a.h, a.L, **runs))),
    "empirical_lm": (("m",), lambda a, runs: [mc.empirical_Lm(a.m, _window_arg(a.window),
                                                              **runs)]),
    "empirical_lk": (("k",), lambda a, runs: [mc.empirical_Lk(a.k, _window_arg(a.window),
                                                              **runs)]),
}


def cmd_experiment(args) -> int:
    runs = {"replicates": args.replicates, "master_seed": args.seed}
    results = _EXPERIMENTS[args.name][1](args, runs)
    _write(args.out, csv_text(RESULT_CSV_HEADER,
                              [(r.estimator, r.params, r.mean, r.se, r.n, r.seed,
                                SCHEMA_VERSION) for r in results]))
    return EXIT_OK


def cmd_repro(args) -> int:
    doc = _json_object(_load(args.run))
    argv = doc["argv"]
    if not (isinstance(argv, list) and all(isinstance(arg, str) for arg in argv)):
        raise ValueError("a run file's argv must be a list of strings")
    if argv and argv[0] == "repro":
        raise ValueError("refusing to replay a repro run")
    return main(argv)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="spanlab",
                                description="geometric-network workbench")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="sample or construct a configuration")
    g.add_argument("kind", choices=list(_GENERATORS))
    g.add_argument("--window", default="40", help="SIDE or X0,Y0,X1,Y1")
    g.add_argument("--rate", type=float, default=1.0)
    g.add_argument("--n", type=int)
    g.add_argument("--seed", type=_non_negative_int, default=0)
    g.add_argument("--torus", action="store_true")
    g.set_defaults(func=cmd_generate)

    b = sub.add_parser("build", help="build a network over a configuration")
    b.add_argument("config", help="configuration JSON file")
    b.add_argument("net", choices=list(nets.BUILDERS))
    for name, options in _BUILDER_FLAGS.items():
        b.add_argument(f"--{name}", **options)
    b.set_defaults(func=cmd_build)

    m = sub.add_parser("measure", help="measure a network file")
    m.add_argument("network", help="network JSON file")
    m.add_argument("--stretch", choices=["steiner", "graph"])
    m.add_argument("--margin", type=float, default=metrics.DEFAULT_MARGIN,
                   help="inner-window margin fraction for length, intersection "
                        "rate and planar stretch; stretch on a torus scores "
                        "every city")
    m.add_argument("--lines", type=_non_negative_int, default=0,
                   help="intersection-rate test lines (0 = skip)")
    m.add_argument("--seed", type=_non_negative_int, default=0)
    m.set_defaults(func=cmd_measure)

    bo = sub.add_parser("bounds", help="evaluate analytic bounds as CSV")
    bo.add_argument("--table", action="store_true",
                    help="emit the reference-constant table")
    for flag, (kind, _) in _BOUNDS.items():
        bo.add_argument(f"--{flag}", type=kind)
    bo.set_defaults(func=cmd_bounds)

    e = sub.add_parser("experiment", help="run a Monte Carlo experiment")
    e.add_argument("name", choices=list(_EXPERIMENTS))
    e.add_argument("--net", choices=[kind for kind in nets.BUILDERS
                                     if kind not in ("alt_diag", "lattice")])
    for name, options in _BUILDER_FLAGS.items():
        if name != "directions":  # psi_ave_upper builds cone roads in every direction
            e.add_argument(f"--{name}", **options)
    e.add_argument("--h", type=float)
    e.add_argument("--L", type=float)
    e.add_argument("--mode", choices=["steiner", "graph"], default="steiner")
    e.add_argument("--window", default="40",
                   help="SIDE or X0,Y0,X1,Y1; crossing ignores it and uses a "
                        "strip of width 40*max(h, L, 1)")
    e.add_argument("--replicates", type=_positive_int, default=20)
    e.add_argument("--seed", type=_non_negative_int, default=0)
    e.set_defaults(func=cmd_experiment)

    r = sub.add_parser("repro", help="replay a stored run")
    r.add_argument("run", help="run JSON file with an argv list")
    r.set_defaults(func=cmd_repro)

    for s in (g, b, m, bo, e):
        s.add_argument("--out", default="-")
        s.add_argument("--save-run", dest="save_run",
                       help="record this invocation as a replayable run file")
    for s in (g, b, m, bo, e, r):
        s.set_defaults(usage_error=s.error)  # prints the subcommand's usage
    return p


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:
            # the top level takes no flag but -h, so anything before the
            # subcommand is its own
            report = parser.error if argv.index(args.command) else args.usage_error
            report(f"unrecognized arguments: {' '.join(extra)}")
        required = {}
        if args.command == "experiment":
            required[args.name] = _EXPERIMENTS[args.name][0]
        elif args.command == "generate":
            required[args.kind] = _GENERATORS[args.kind][0]
        elif args.command == "bounds" and not args.table and all(
                getattr(args, flag.replace("-", "_")) is None for flag in _BOUNDS):
            args.usage_error("pick one of " + "/".join(map("--{}".format, ["table", *_BOUNDS])))
        net = getattr(args, "net", None)
        if net is not None:
            required[f"network {net}"] = nets.BUILDERS[net][0]
        for what, names in required.items():
            missing = [f"--{name}" for name in names if getattr(args, name) is None]
            if missing:
                args.usage_error(f"{what} requires {', '.join(missing)}")
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        code = args.func(args)
        _save_run(getattr(args, "save_run", None), list(argv))
        return code
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_IO
    except (ValueError, OverflowError) as exc:  # OverflowError: an integer too large for a float
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
