"""Command line front end.

Subcommands
-----------
tune       fit a family to a data vector; prints s_hat, SURE minimum, df
edf        excess degrees of freedom by a chosen method
simulate   run a simulation grid from a config file or preset, write CSV
bounds     evaluate named bound quantities (all exact)
selfcheck  run the acceptance battery; nonzero exit if any criterion fails

Global flags --seed and --out come before the subcommand.  Identical
seeds give byte-identical output.

Vector-valued options (--theta0, --sigmas, --center, ...) accept either a
comma-separated list or @path to read the numbers from a file.

Exit status: 0 on success, 1 when a computation or selfcheck fails, 2 on
usage errors (including malformed config files).
"""

import argparse
import dataclasses
import io
import sys

import numpy as np

from .bootstrap import SAMPLERS, BootstrapConfig, bootstrap_edf
from .bounds import (best_subset_constant, chi_sq_max_bound, edf_upper_bound_simplified,
                     gas_stations_rotation, gaussian_surface_area_ball, general_theta_bound,
                     nested_bound_tail_split, nested_null_edf_bound)
from .core import DomainError, EdfReport, GaussianModel, ShapeError, _check_count, mc_edf
from .simulate import (FAMILY_REGISTRY, PRESETS, ConfigError, parse_config, run_simulation,
                       write_csv)
from .stein import edf_implicit_diff

# The registry's families under their command line names.
CLI_FAMILIES = {name.replace("_", "-"): entry for name, entry in FAMILY_REGISTRY.items()}


class UsageError(Exception):
    """Options that contradict one another; exit status 2."""


def _read_numbers(source, ndmin=1, text=None):
    """Numbers separated by commas or whitespace, as a vector (with ndmin=2, a
    matrix of the lines): from the file at path `source`, or from `text`, the
    value of the option named `source`.  DomainError naming `source` unless
    there is at least one number and every entry is one."""
    try:
        if text is None:
            with open(source, "r", encoding="ascii") as fh:
                text = fh.read()
        text = text.replace(",", " ")
        # loadtxt warns on text without data, so such text never reaches it.
        empty = not any(line.split("#", 1)[0].split() for line in text.split("\n"))
        vals = None if empty else np.loadtxt(io.StringIO(text), dtype=float, ndmin=ndmin)
    except ValueError as exc:
        raise DomainError(f"could not parse {source} as numbers: {exc}") from None
    if vals is None:
        raise DomainError(f"{source} holds no numbers")
    return np.ravel(vals) if ndmin == 1 else vals


def _vector_option(value, name):
    """Parse 'v1,v2,...' or '@path' into a float vector."""
    if value.startswith("@"):
        return _read_numbers(value[1:])
    return _read_numbers(f"--{name}", text=value)


# What a family built from each of these keys says when its flag is missing.
_NEEDS = {"n": "--theta0 or --n to size the model", "design": "--design FILE",
          "sigmas": "--sigmas (list or @path)"}


def _build_family(args, n=None):
    cls, keys = CLI_FAMILIES[args.family]
    given = {**vars(args), "n": n}
    # A family flag another family would ignore is refused, not dropped.
    for key in ("sigma", "design", "sigmas"):
        if given[key] is not None and key not in keys:
            raise DomainError(f"--{key} does not apply to --family {args.family}")
    for key in keys:
        if key in _NEEDS and not given[key]:
            raise DomainError(f"{args.family} needs {_NEEDS[key]}")
    values = {"n": n, "sigma": 1.0 if args.sigma is None else args.sigma,
              "design": args.design and _read_numbers(args.design, ndmin=2),
              "sigmas": args.sigmas and _vector_option(args.sigmas, "sigmas")}
    return cls(*(values[key] for key in keys))


def _print_kv(stream, **kv):
    for key, val in kv.items():
        stream.write(f"{key}={val:.12g}\n" if isinstance(val, float) else f"{key}={val}\n")


def _cmd_tune(args):
    y = _read_numbers(args.data)
    family = _build_family(args, n=y.shape[0])
    fit = family.tune(y)
    out = sys.stdout
    _print_kv(out, family=args.family, n=y.shape[0], s_hat=float(fit.s_hat),
              sure_min=fit.sure_min, naive_df=float(fit.naive_df_at_shat))
    head = ",".join(f"{v:.6g}" for v in fit.theta_hat[:8])
    suffix = ",..." if fit.theta_hat.shape[0] > 8 else ""
    out.write(f"theta_hat_head={head}{suffix}\n")
    _print_kv(out, theta_hat_norm=float(np.linalg.norm(fit.theta_hat)))
    if args.out and args.out != "-":
        np.savetxt(args.out, fit.theta_hat, fmt="%.12g")
        out.write(f"wrote {args.out}\n")
    return 0


def _check_size(args, n, source):
    """UsageError unless --n is absent or equals the size n that `source` fixes."""
    if args.n is not None and args.n != n:
        raise UsageError(f"--n {args.n} contradicts {source}, which has size {n}")


def _edf_monte_carlo(args):
    if args.theta0 is not None:
        theta0 = _vector_option(args.theta0, "theta0")
        _check_size(args, theta0.shape[0], "--theta0")
        family = _build_family(args, n=theta0.shape[0])
    else:
        family = _build_family(args, n=args.n)
        # A family not built from n takes its size from its first key.
        _check_size(args, family.n, f"--{CLI_FAMILIES[args.family][1][0]}")
        theta0 = np.zeros(family.n)
    model = GaussianModel(theta0, sigma=family.sigma, sigmas=family.sigmas)
    return mc_edf(family, model, reps=args.reps, seed=args.seed or 0)


def _cmd_edf(args):
    if args.n is not None:
        _check_count(args.n, "--n", 1)
    method = args.method
    if method == "monte-carlo":
        report = _edf_monte_carlo(args)
    else:
        y = _read_numbers(args.data) if args.data else None
        if y is None:
            raise DomainError(f"method {method} needs --data FILE")
        _check_size(args, y.shape[0], "--data")
        family = _build_family(args, n=y.shape[0])
        if method == "analytic":
            stat = family.edf_unbiased(family.tune_batch(y[None, :]))
            if stat is None:
                raise DomainError(f"{args.family} has no analytic excess df statistic")
            report = EdfReport("analytic_unbiased", float(stat[0]), std_error=0.0, reps=1)
        elif method == "implicit-diff":
            hooks = family.hooks
            if hooks is None:
                raise DomainError(f"{args.family} has no hooks for implicit-diff")
            report = edf_implicit_diff(hooks, y, family.tune(y).s_hat)
        else:
            cfg = BootstrapConfig(B=args.B, sampler=method.removeprefix("bootstrap-"),
                                  c=args.c, seed=args.seed or 0)
            report = bootstrap_edf(family, y, cfg)
    _print_kv(sys.stdout, method=report.method, value=report.value,
              std_error=report.std_error, reps=report.reps)
    return 0


def _cmd_simulate(args):
    if bool(args.config) == bool(args.preset):
        raise UsageError("give exactly one of --config FILE or --preset NAME")
    if args.preset:
        spec = PRESETS[args.preset]
    else:
        with open(args.config, "r", encoding="ascii") as fh:
            spec = parse_config(fh.read())
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    dest = args.out or "-"
    rows = run_simulation(spec)
    write_csv(rows, dest)
    if dest != "-":
        print(f"wrote {len(rows)} rows to {dest}")
    return 0


def _chi_sq_max(args):
    return {"bound": chi_sq_max_bound(_vector_option(args.sizes, "sizes"), args.delta)}


def _edf_upper_simplified(args):
    return {"bound": edf_upper_bound_simplified(_vector_option(args.sizes, "sizes"), args.delta)}


def _surface_area_ball(args):
    area = gaussian_surface_area_ball(_vector_option(args.center, "center"), args.radius)
    return {"value": area, "at_most_one": bool(area <= 1.0)}


def _gas_stations(args):
    return dataclasses.asdict(gas_stations_rotation(_vector_option(args.weights, "weights")))


def _nested_null_edf(args):
    value = nested_null_edf_bound(args.p)
    return {"p": args.p, "bound": value, "less_than_10": bool(value < 10.0)}


def _nested_tail_split(args):
    split = nested_bound_tail_split(n_terms=args.terms)
    return {"sqrt_series": split.sqrt_series, "inv_sqrt_series": split.inv_sqrt_series,
            "total": split.total, "less_than_10": bool(split.total < 10.0)}


def _general_theta(args):
    return dataclasses.asdict(general_theta_bound(_vector_option(args.mu, "mu")))


def _best_subset_constant(args):
    return dataclasses.asdict(best_subset_constant())


_NUMBER = {"type": float, "required": True}
# Each `bounds` subcommand: its help, its options (flag: add_argument keywords)
# and the function of the parsed arguments that gives the values it prints.
BOUNDS = {
    "chi-sq-max": ("expected max of centered chi-squares",
                   {"--sizes": {"required": True, "help": "df list, e.g. 1,2,4"},
                    "--delta": _NUMBER}, _chi_sq_max),
    "edf-upper-simplified": ("two-term relaxation of chi-sq-max",
                             {"--sizes": {"required": True}, "--delta": _NUMBER},
                             _edf_upper_simplified),
    "surface-area-ball": ("Gaussian surface area of a ball boundary",
                          {"--center": {"required": True, "help": "center vector, list or @path"},
                           "--radius": _NUMBER}, _surface_area_ball),
    "gas-stations": ("admissible start for a cyclic tour",
                     {"--weights": {"required": True, "help": "leg weights, list or @path"}},
                     _gas_stations),
    "nested-null-edf": ("null excess-df bound, nested chain",
                        {"--p": {"type": int, "required": True, "help": "chain length"}},
                        _nested_null_edf),
    "nested-tail-split": ("head-plus-tail certification of the infinite sum",
                          {"--terms": {"type": int, "default": 1000, "help": "head terms to sum"}},
                          _nested_tail_split),
    "general-theta": ("nonnull nested-chain bounds",
                      {"--mu": {"required": True, "help": "rotated mean, list or @path"}},
                      _general_theta),
    "best-subset-constant": ("sharp constant for the search-df bound", {}, _best_subset_constant),
}


def _cmd_bounds(args):
    _print_kv(sys.stdout, **args.values(args))
    return 0


def _cmd_selfcheck(args):
    from .acceptance import run_all

    results = run_all(stream=sys.stdout, only=args.only)
    return 0 if all(r.passed for r in results) else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="suretune",
        description="SURE tuning, excess optimism, and excess degrees of freedom",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for any randomized computation (default 0)")
    parser.add_argument("--out", default=None, help="output path ('-' for stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family_args(p):
        p.add_argument("--family", choices=CLI_FAMILIES, default="shrink-means")
        p.add_argument("--sigma", type=float, default=None,
                       help="noise standard deviation")
        p.add_argument("--design", help="design matrix file (shrink-regression)")
        p.add_argument("--sigmas", help="per-coordinate sd list or @path (hetero-shrink)")

    p_tune = sub.add_parser("tune", help="fit one family to a data vector")
    add_family_args(p_tune)
    p_tune.add_argument("--data", required=True, help="data vector file")
    p_tune.set_defaults(func=_cmd_tune)

    p_edf = sub.add_parser("edf", help="estimate excess degrees of freedom")
    add_family_args(p_edf)
    p_edf.add_argument("--method", required=True,
                       choices=("monte-carlo", "analytic", "implicit-diff",
                                *(f"bootstrap-{sampler}" for sampler in SAMPLERS)))
    p_edf.add_argument("--data", help="data vector file (non monte-carlo methods)")
    p_edf.add_argument("--n", type=int, default=None,
                       help="model size for monte-carlo; must agree with --theta0, --data, "
                            "--design or --sigmas")
    p_edf.add_argument("--theta0", help="mean vector, list or @path (monte-carlo)")
    p_edf.add_argument("--reps", type=int, default=2000, help="monte-carlo repetitions")
    p_edf.add_argument("--B", type=int, default=500, help="bootstrap replicates")
    p_edf.add_argument("--c", type=float, default=1.0, help="bigmodel noise scale")
    p_edf.set_defaults(func=_cmd_edf)

    p_sim = sub.add_parser("simulate", help="run a simulation grid, emit CSV")
    p_sim.add_argument("--config", help="flat key=value config file")
    p_sim.add_argument("--preset", choices=sorted(PRESETS),
                       help="named built-in configuration")
    p_sim.set_defaults(func=_cmd_simulate)

    p_b = sub.add_parser("bounds", help="evaluate named bound quantities")
    bsub = p_b.add_subparsers(dest="bound", required=True)

    for name, (help_text, options, values) in BOUNDS.items():
        p = bsub.add_parser(name, help=help_text)
        for flag, keywords in options.items():
            p.add_argument(flag, **keywords)
        p.set_defaults(func=_cmd_bounds, values=values)

    p_check = sub.add_parser("selfcheck", help="run the acceptance battery")
    p_check.add_argument("--only", default=None,
                         help="run a single criterion by id, e.g. c03")
    p_check.set_defaults(func=_cmd_selfcheck)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed is not None:
            _check_count(args.seed, "--seed", 0)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, DomainError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
