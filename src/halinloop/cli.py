"""Command-line interface.

One binary, ``hll``, with subcommands mirroring the library API:
enumeration, map construction, conditioned sampling, bijection round
trips, Gromov-Hausdorff checks, looptree exports, scaling experiments
and DOT rendering.  Exit codes: 0 success, 2 usage error, 3 invariant
violation, 4 budget exceeded.  ``HLL_SEED`` provides the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from fractions import Fraction

import numpy as np

from . import __version__
from .errors import BudgetExceededError, InvariantError, UsageError
from .experiments import ScalingRunConfig, atomic_write, mark_uniformly, render, rows_to_csv, sweep_trees
from .plane_tree import format_marked, format_tree, parse_marked, parse_tree

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVARIANT = 3
EXIT_BUDGET = 4


def main(argv: list[str] | None = None) -> None:
    sys.exit(run(sys.argv[1:] if argv is None else argv))


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        payload = args.func(args)
        # the resolved config is every parsed option, unless the handler resolved more
        plumbing = ("command", "func", "format", "out")
        payload.setdefault("config", {k: v for k, v in vars(args).items() if k not in plumbing})
        _emit(args, payload)
    except BudgetExceededError as e:
        _emit_error(args, "budget", e)
        return EXIT_BUDGET
    except InvariantError as e:
        _emit_error(args, "invariant", e)
        return EXIT_INVARIANT
    except UsageError as e:
        _emit_error(args, "usage", e)
        return EXIT_USAGE
    return EXIT_OK


# -- output plumbing -----------------------------------------------------------


def _emit(args, payload: dict) -> None:
    fmt = args.format
    if fmt == "json":
        text = json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"
    elif fmt in ("csv", "dot"):
        if fmt not in payload:
            raise UsageError("no %s form for this command" % fmt.upper())
        text = payload[fmt]
    else:
        text = payload.get("text", json.dumps(_jsonable(payload), sort_keys=True)) + "\n"
    if args.out:
        try:
            atomic_write(args.out, text)
        except OSError as e:
            raise UsageError(str(e)) from e
    else:
        sys.stdout.write(text)


def _emit_error(args, kind: str, exc: Exception) -> None:
    if args.format == "json":
        sys.stderr.write(json.dumps({"error": kind, "message": str(exc)}) + "\n")
    else:
        sys.stderr.write("error (%s): %s\n" % (kind, exc))


def _jsonable(x):
    if type(x) in (str, int, float) or x is None:  # not bool, not numpy scalars
        return x
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    return x


def _count(text: str) -> int:
    """A non-negative integer: a seed as numpy takes it, or a count."""
    if not text.isdigit():
        raise argparse.ArgumentTypeError("expected a non-negative integer, got %r" % text)
    return int(text)


def _default_seed() -> str:
    # a string default goes through ``type``, so a bad HLL_SEED is a usage error
    return os.environ.get("HLL_SEED", "0")


_CODE_ARGS = {"tree": (parse_tree, "tree code"), "marked": (parse_marked, "marked tree")}


def _parse_code_arg(args, flag: str = "tree"):
    """The plane tree of --tree or the marked tree of --marked; an
    invalid one is a usage error."""
    parse, what = _CODE_ARGS[flag]
    try:
        return parse(getattr(args, flag))
    except (InvariantError, ValueError) as e:
        raise UsageError("invalid %s: %s" % (what, e)) from e


def _mu(args):
    from .gw import mu_from_weights, stable_mu

    if args.alpha is not None:
        return stable_mu(args.alpha)
    return mu_from_weights(lambda k: 1.0)


# -- subcommands ---------------------------------------------------------------


def _cmd_enumerate(args) -> dict:
    from .halin import halin_count, hstar_codes

    if args.count_only:
        count = halin_count(args.n, force=args.force)
        return {"n": args.n, "count": count, "text": str(count)}
    maps = [" ".join(map(str, c)) for c in hstar_codes(args.n, force=args.force)]  # format_tree's text
    return {"n": args.n, "count": len(maps), "maps": maps,
            "text": "\n".join([str(len(maps))] + maps)}


def _cmd_build(args) -> dict:
    from .halin import build_halin

    H = build_halin(_parse_code_arg(args))
    H.validate()
    payload = {"tree": format_tree(H.tree), "map": H.map.to_json()}
    if args.format == "dot":
        payload["dot"] = render(H)
    payload["text"] = payload["map"]
    return payload


def _cmd_sample(args) -> dict:
    from .gw import sample_conditioned, sample_conditioned_many

    mu = _mu(args)
    rng = np.random.default_rng(args.seed)
    if args.as_map:
        # the marks of a tree are drawn before the next tree, so these
        # draws stay one at a time
        trees = [format_marked(mark_uniformly(sample_conditioned(mu, args.n, rng), rng)[0])
                 for _ in range(args.samples)]
    else:
        trees = [format_tree(t) for t in sample_conditioned_many(mu, args.n, args.samples, rng)]
    return {"samples": trees, "text": "\n".join(trees)}


def _cmd_mu(args) -> dict:
    from .gw import b_n_of

    mu = _mu(args)
    table = [mu.pmf(k) for k in range(args.kmax + 1)]
    payload = {"name": mu.name, "mean": mu.mean, "alpha": mu.alpha,
               "tail_constant": mu.tail_constant, "pmf": table}
    if args.n:
        payload["b_n"] = b_n_of(mu, args.n)
    payload["text"] = "\n".join("mu(%d) = %.12g" % (k, p) for k, p in enumerate(table))
    return payload


def _cmd_phi(args) -> dict:
    from .bijection import phi
    from .halin import build_halin

    marked = format_marked(phi(build_halin(_parse_code_arg(args))))
    return {"marked": marked, "text": marked}


def _cmd_inv(args) -> dict:
    from .bijection import phi_inverse

    H = phi_inverse(_parse_code_arg(args, "marked"))
    H.validate()
    return {"tree": format_tree(H.tree), "map": H.map.to_json(), "text": format_tree(H.tree)}


def _cmd_roundtrip(args) -> dict:
    from .bijection import _cut_contour, phi
    from .halin import build_halin

    def roundtrip(tree) -> int:
        # build_halin is a function of the code: the same tree, the same map
        if _cut_contour(phi(build_halin(tree))).code != tree.code:
            raise InvariantError("round trip fails on the map of tree '%s'" % format_tree(tree))
        return 1

    total = sweep_trees(roundtrip, args.n, force=args.force, add=lambda a, b: a + b)
    return {"ok": total, "total": total, "text": "%d/%d OK" % (total, total)}


def _cmd_pushforward(args) -> dict:
    from .bijection import pushforward_distribution

    rep = pushforward_distribution(args.n, lambda k: Fraction(1))
    if not rep["exact_match"]:
        raise InvariantError("pushforward differs from the conditioned law by %s at n=%d"
                             % (rep["max_discrepancy"], rep["n"]))
    text = "n=%d max discrepancy %s (exact match)" % (rep["n"], rep["max_discrepancy"])
    return {**rep, "text": text}


def _cmd_gh_exact(args) -> dict:
    from .gh_metric import gh_exact

    g = gh_exact(_load_metric(args, "a"), _load_metric(args, "b"), budget=args.budget)
    return {"gh": g, "text": "GH=%.6g" % g}


def _cmd_gh_bounds(args) -> dict:
    from .gh_metric import gh_lower_bound

    lb = gh_lower_bound(_load_metric(args, "a"), _load_metric(args, "b"), seed=args.seed)
    return {"lower": lb, "text": "GH>=%.6g" % lb}


def _cmd_lemma(args) -> dict:
    from .halin import build_halin
    from .looptree import check_lemma_bound

    def lemma(tree):
        r = check_lemma_bound(build_halin(tree))
        rel, g = ("=", r["gh"]) if r["gh"] is not None else ("<=", r["upper"])
        if not r["ok"]:
            raise InvariantError("lemma bound fails on the map of tree '%s': GH%s%.6g, bound=%.6g"
                                 % (format_tree(tree), rel, g, r["bound"]))
        return r, "GH%s%.6g, bound=%.6g, OK" % (rel, g, r["bound"])

    reports, lines = zip(*sweep_trees(lemma, args.n, force=args.force, exhaustive=args.exhaustive))
    return {"reports": reports, "text": "\n".join(lines)}


def _load_metric(args, flag: str):
    from .gh_metric import FiniteMetricSpace

    path = getattr(args, flag)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # numpy warns on a file with no data
            return FiniteMetricSpace(np.loadtxt(path, delimiter=",", ndmin=2))
    except UserWarning as e:
        raise UsageError("no data in --%s %s" % (flag, path)) from e
    except (OSError, ValueError, InvariantError) as e:
        raise UsageError(str(e)) from e


def _cmd_loop(args) -> dict:
    from .looptree import loop, loop_diameter

    tree = _parse_code_arg(args)
    g = loop(tree)
    payload = {"vertices": g.n, "edges": sorted(g.edges), "diameter": loop_diameter(tree)}
    if args.format == "dot":
        payload["dot"] = render(g)
    if args.distances:
        d = g.all_distances()
        payload["csv"] = "\n".join(",".join(str(int(x)) for x in row) for row in d) + "\n"
    payload["text"] = "vertices=%d edges=%d diameter=%d" % (
        g.n, len(g.edges), payload["diameter"])
    return payload


def _scaling_config(args, **more) -> ScalingRunConfig:
    try:
        sizes = tuple(int(s) for s in args.sizes.split(","))
    except ValueError as e:
        raise UsageError("invalid --sizes: %s" % e) from e
    return ScalingRunConfig(sizes=sizes, samples_per_size=args.samples, seed=args.seed,
                            alpha=args.alpha, **more)


def _cmd_scaling(args) -> dict:
    from .experiments import scaling_run

    res = scaling_run(_scaling_config(args, map_diameter_max_n=args.map_diameter_max_n))
    res["config"]["out"] = args.out
    payload = {"config": res["config"], "summary": res["summary"], "csv": rows_to_csv(res["rows"])}
    payload["text"] = json.dumps(_jsonable(payload["summary"]), indent=2, sort_keys=True)
    return payload


def _cmd_lukasiewicz(args) -> dict:
    from .experiments import lukasiewicz_profile

    res = lukasiewicz_profile(_scaling_config(args))
    res["config"]["out"] = args.out
    res["text"] = json.dumps(_jsonable(res["ks_consecutive"]), indent=2, sort_keys=True)
    return res


def _cmd_render(args) -> dict:
    from .halin import build_halin
    from .looptree import loop

    tree = _parse_code_arg(args)
    if args.kind == "tree":
        dot = render(tree)
    elif args.kind == "looptree":
        dot = render(loop(tree))
    else:  # halin
        dot = render(build_halin(tree))
    return {"dot": dot, "text": dot}


# -- parser --------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hll",
        description="Halin maps, marked plane trees, looptrees and "
        "Gromov-Hausdorff tooling.",
    )
    p.add_argument("--version", action="version", version="hll %s" % __version__)
    sub = p.add_subparsers(dest="command", required=True)

    def leaf(subs, name: str, func, help: str):
        sp = subs.add_parser(name, help=help)
        sp.set_defaults(func=func)
        return sp

    def common(sp, fmts=("text", "json")):
        sp.add_argument("--format", choices=fmts, default="text")
        sp.add_argument("--out", default=None, help="write output atomically to a file")

    def actions(name: str, help: str):
        return sub.add_parser(name, help=help).add_subparsers(dest="action", required=True)

    sp = leaf(sub, "enumerate", _cmd_enumerate, "enumerate Halin maps with n bounded faces")
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("--count-only", action="store_true")
    sp.add_argument("--force", action="store_true", help="override the size guard")
    common(sp)

    sp = leaf(sub, "build", _cmd_build, "build the map of a one-leaf-child tree")
    sp.add_argument("--tree", required=True, help='child counts, e.g. "2 0 1 0"')
    common(sp, ("text", "json", "dot"))

    sp = leaf(sub, "sample", _cmd_sample, "sample size-conditioned trees or maps")
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("--samples", type=_count, default=1)
    sp.add_argument("--seed", type=_count, default=_default_seed())
    sp.add_argument("--alpha", type=float, default=None,
                    help="stable tail exponent; omit for the uniform-weight law")
    sp.add_argument("--as-map", action="store_true",
                    help="also draw uniform marks and build the map")
    common(sp)

    sp = leaf(sub, "mu", _cmd_mu, "inspect an offspring distribution")
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--kmax", type=_count, default=10)
    sp.add_argument("-n", type=int, default=0, help="also report b_n")
    common(sp)

    bij = actions("bij", "bijection between maps and marked trees")
    sp = leaf(bij, "phi", _cmd_phi, "the marked tree of a tree's map")
    sp.add_argument("--tree", required=True, help='child counts, e.g. "2 0 1 0"')
    common(sp)
    sp = leaf(bij, "inv", _cmd_inv, "the tree of a marked tree's map")
    sp.add_argument("--marked", required=True, help='child:mark pairs, e.g. "2:1 0:0 1:1 0:0"')
    common(sp)
    sp = leaf(bij, "roundtrip", _cmd_roundtrip, "phi then phi inverse on every map of size n")
    sp.add_argument("-n", type=int, default=4)
    sp.add_argument("--exhaustive", action="store_true", required=True)
    sp.add_argument("--force", action="store_true", help="override the size guard")
    common(sp)
    sp = leaf(bij, "pushforward", _cmd_pushforward, "exact pushforward law at size n")
    sp.add_argument("-n", type=int, default=4)
    common(sp)

    def metrics(sp):
        sp.add_argument("--a", required=True, help="CSV distance matrix")
        sp.add_argument("--b", required=True, help="CSV distance matrix")

    gh = actions("gh", "Gromov-Hausdorff computations")
    sp = leaf(gh, "exact", _cmd_gh_exact, "exact GH distance of two CSV distance matrices")
    metrics(sp)
    sp.add_argument("--budget", type=int, default=10**7,
                    help="distortion evaluations before exit 4 (default 10000000: 20-30 s)")
    common(sp)
    sp = leaf(gh, "bounds", _cmd_gh_bounds, "GH lower bound of two CSV distance matrices")
    metrics(sp)
    sp.add_argument("--seed", type=_count, default=_default_seed())
    common(sp)
    sp = leaf(gh, "lemma", _cmd_lemma, "GH(Halin map, looptree) <= height + 3/2")
    sp.add_argument("-n", type=int, default=1)
    sp.add_argument("--exhaustive", action="store_true", help="every map of size n, not the first")
    sp.add_argument("--force", action="store_true", help="override the size guard")
    common(sp)

    sp = leaf(sub, "loop", _cmd_loop, "looptree of a plane tree")
    sp.add_argument("--tree", required=True)
    sp.add_argument("--distances", action="store_true", help="include the distance matrix")
    common(sp, ("text", "json", "dot", "csv"))

    def grid(sp):
        sp.add_argument("--alpha", type=float, default=1.5)
        sp.add_argument("--sizes", default="1024,4096,16384")
        sp.add_argument("--samples", type=int, default=200)
        sp.add_argument("--seed", type=_count, default=_default_seed())

    exp = actions("exp", "scaling experiments")
    sp = leaf(exp, "scaling", _cmd_scaling, "looptree diameter and height across sizes")
    grid(sp)
    sp.add_argument("--map-diameter-max-n", type=int, default=ScalingRunConfig.map_diameter_max_n)
    common(sp, ("text", "json", "csv"))
    sp = leaf(exp, "lukasiewicz", _cmd_lukasiewicz, "excursion functionals across sizes")
    grid(sp)
    common(sp)

    sp = leaf(sub, "render", _cmd_render, "DOT rendering")
    sp.add_argument("kind", choices=["tree", "looptree", "halin"])
    sp.add_argument("--tree", required=True)
    common(sp, ("text", "json", "dot"))

    return p


if __name__ == "__main__":
    main()
