"""Command-line entry point for reproducible generate/build/measure runs.

Every invocation is a pure function of its arguments and input files; the
``repro`` subcommand replays a stored run. Exit codes: 0 success, 2 usage,
3 domain error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

from spanlab import analytic, mc, metrics, nets
from spanlab.configs import (SCHEMA_VERSION, PointConfig, Window, hex_config,
                             poisson, square_grid, tri_config, uniform_n)

# flags that carry builder parameters (see nets.BUILDERS)
_BUILDER_FLAGS = ("m", "k", "t", "variant", "directions")

# experiment name -> flags it requires (a --net also requires its builder's)
_EXPERIMENT_FLAGS = {
    "psi_ave_upper": ("net",),
    "crossing": ("h", "L"),
    "empirical_lm": ("m",),
    "empirical_lk": ("k",),
}

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_IO = 4


def _fmt(x: float) -> str:
    return f"{x:.17g}"


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
    if len(parts) == 1:
        return Window.square(parts[0])
    if len(parts) == 4:
        return Window(*parts)
    raise ValueError("window must be SIDE or X0,Y0,X1,Y1")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer: {text}")
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
            json.dump({"schema_version": SCHEMA_VERSION, "argv": list(argv)}, f)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    window = _window_arg(args.window)
    if args.kind == "poisson":
        cfg = poisson(window, rate=args.rate, seed=args.seed, torus=args.torus)
    elif args.kind == "uniform":
        if args.n is None:
            raise ValueError("uniform requires --n")
        cfg = uniform_n(args.n, window, seed=args.seed, torus=args.torus)
    elif args.kind == "square":
        cfg = square_grid(window)
    elif args.kind == "hex":
        cfg = hex_config(window)
    elif args.kind == "tri":
        cfg = tri_config(window)
    else:
        raise ValueError(f"unknown configuration kind {args.kind!r}")
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
    vals = [str(SCHEMA_VERSION), net.kind,
            _fmt(metrics.normalized_length(net, args.margin))]
    if args.stretch:
        rep = metrics.stretch(net, mode=args.stretch,
                              margin_fraction=args.margin, seed=args.seed)
        cols += ["stretch_mode", "max_stretch", "argmax_i", "argmax_j", "n_pairs"]
        vals += [rep.mode, _fmt(rep.max_ratio), str(rep.argmax_pair[0]),
                 str(rep.argmax_pair[1]), str(rep.n_pairs)]
    if args.lines:
        rate, se = metrics.intersection_rate(net, n_lines=args.lines,
                                             seed=args.seed,
                                             margin_fraction=args.margin)
        cols += ["intersection_rate", "intersection_rate_se"]
        vals += [_fmt(rate), _fmt(se)]
    _write(args.out, ",".join(cols) + "\n" + ",".join(vals))
    return EXIT_OK


def cmd_bounds(args) -> int:
    header = "name,param,value,schema_version"

    def row(name, param, value):
        return f"{name},{_fmt(param)},{_fmt(value)},{SCHEMA_VERSION}"

    if args.table:
        table = analytic.reference_constants()
        _write(args.out, table.to_csv())
        return EXIT_OK
    rows = [header]
    if args.psi_star is not None:
        rows.append(row("psi_star", args.psi_star, analytic.psi_star(args.psi_star)))
    if args.prop38 is not None:
        value, h, L = analytic.prop38_lower_bound(args.prop38)
        rows.append(row("prop38_lower_bound", args.prop38, value))
        rows.append(row("prop38_best_h", args.prop38, h))
        rows.append(row("prop38_best_L", args.prop38, L))
    if args.lm is not None:
        rows.append(row("theta_mean_length", args.lm,
                        analytic.theta_mean_length(args.lm)))
    if args.lk is not None:
        rows.append(row("cone_Lk", args.lk, analytic.cone_Lk(args.lk)))
    if len(rows) == 1:
        raise ValueError("bounds: pick one of --table/--psi-star/--prop38/--lm/--lk")
    _write(args.out, "\n".join(rows))
    return EXIT_OK


def cmd_experiment(args) -> int:
    window = _window_arg(args.window)
    results = []
    if args.name == "psi_ave_upper":
        result, worst = mc.estimate_psi_ave_upper(
            args.net, _builder_params(args), window, replicates=args.replicates,
            master_seed=args.seed, mode=args.mode)
        results.append(result)
        sys.stderr.write(f"max stretch {_fmt(worst.max_ratio)} over "
                         f"{worst.n_pairs} pairs\n")
    elif args.name == "crossing":
        first, second = mc.crossing_experiment(
            args.h, args.L, replicates=args.replicates, master_seed=args.seed)
        results += [first, second]
    elif args.name == "empirical_lm":
        results.append(mc.empirical_Lm(args.m, window,
                                       replicates=args.replicates,
                                       master_seed=args.seed))
    elif args.name == "empirical_lk":
        results.append(mc.empirical_Lk(args.k, window,
                                       replicates=args.replicates,
                                       master_seed=args.seed))
    else:
        raise ValueError(f"unknown experiment {args.name!r}")
    lines = [mc.RESULT_CSV_HEADER] + [r.csv_row() for r in results]
    _write(args.out, "\n".join(lines))
    return EXIT_OK


def cmd_repro(args) -> int:
    doc = json.loads(_load(args.run))
    argv = doc["argv"]
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
    g.add_argument("kind", choices=["poisson", "uniform", "square", "hex", "tri"])
    g.add_argument("--window", default="40", help="SIDE or X0,Y0,X1,Y1")
    g.add_argument("--rate", type=float, default=1.0)
    g.add_argument("--n", type=int)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--torus", action="store_true")
    g.add_argument("--out", default="-")
    g.set_defaults(func=cmd_generate)

    b = sub.add_parser("build", help="build a network over a configuration")
    b.add_argument("config", help="configuration JSON file")
    b.add_argument("net", choices=list(nets.BUILDERS))
    b.add_argument("--m", type=int)
    b.add_argument("--k", type=int)
    b.add_argument("--t", type=float)
    b.add_argument("--variant", choices=["N1", "N2", "N3"])
    b.add_argument("--directions", help="comma-separated cone direction indices")
    b.add_argument("--out", default="-")
    b.set_defaults(func=cmd_build)

    m = sub.add_parser("measure", help="measure a network file")
    m.add_argument("network", help="network JSON file")
    m.add_argument("--stretch", choices=["steiner", "graph"])
    m.add_argument("--margin", type=float, default=metrics.DEFAULT_MARGIN)
    m.add_argument("--lines", type=int, default=0,
                   help="intersection-rate test lines (0 = skip)")
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--out", default="-")
    m.set_defaults(func=cmd_measure)

    bo = sub.add_parser("bounds", help="evaluate analytic bounds as CSV")
    bo.add_argument("--table", action="store_true",
                    help="emit the reference-constant table")
    bo.add_argument("--psi-star", dest="psi_star", type=float)
    bo.add_argument("--prop38", type=float)
    bo.add_argument("--lm", type=int)
    bo.add_argument("--lk", type=int)
    bo.add_argument("--out", default="-")
    bo.set_defaults(func=cmd_bounds)

    e = sub.add_parser("experiment", help="run a Monte Carlo experiment")
    e.add_argument("name", choices=list(_EXPERIMENT_FLAGS))
    e.add_argument("--net", choices=[kind for kind in nets.BUILDERS
                                     if kind not in ("alt_diag", "lattice")])
    e.add_argument("--m", type=int)
    e.add_argument("--k", type=int)
    e.add_argument("--t", type=float)
    e.add_argument("--variant", choices=["N1", "N2", "N3"])
    e.add_argument("--h", type=float)
    e.add_argument("--L", type=float)
    e.add_argument("--mode", choices=["steiner", "graph"], default="steiner")
    e.add_argument("--window", default="40",
                   help="SIDE or X0,Y0,X1,Y1; crossing ignores it and uses a "
                        "strip of width 40*max(h, L, 1)")
    e.add_argument("--replicates", type=_positive_int, default=20)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--out", default="-")
    e.set_defaults(func=cmd_experiment)

    r = sub.add_parser("repro", help="replay a stored run")
    r.add_argument("run", help="run JSON file with an argv list")
    r.set_defaults(func=cmd_repro)

    for s in (g, b, m, bo, e):
        s.add_argument("--save-run", dest="save_run",
                       help="record this invocation as a replayable run file")
    return p


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        required = {}
        if args.command == "experiment":
            required[args.name] = _EXPERIMENT_FLAGS[args.name]
        net = getattr(args, "net", None)
        if net is not None:
            required[f"network {net}"] = nets.BUILDERS[net][0]
        for what, names in required.items():
            missing = [f"--{name}" for name in names if getattr(args, name) is None]
            if missing:
                parser.error(f"{what} requires {', '.join(missing)}")
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        code = args.func(args)
        _save_run(getattr(args, "save_run", None), list(argv))
        return code
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_IO
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
