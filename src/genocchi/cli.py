"""Command-line interface.

Subcommands:
    survey     classify primes up to x and print experimental vs conjectured ratios
    table      reproduce one of the reference tables (g1, hpm, g3)
    density    evaluate a closed-form density exactly and numerically: g,
               primroot, hminus, hminus-total and rho at (ell, d, a), and
               the <variant>-conj and <variant>-lower ratios; the all-primes
               value is the default d = a = 1, the only one rho and hplus have
    classify   one-line classification record for a single prime
    wieferich  scan a Wieferich set up to a limit
    bernoulli  exact Bernoulli number
    genocchi   exact Genocchi-type integer

Exit codes: 0 success, 1 computation error, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

from . import classify as classify_mod
from . import density as density_mod
from .exactseq import bernoulli, genocchi_number
from .survey import (
    TABLE_PRESETS,
    SurveyConfig,
    SurveyError,
    emit_table,
    run_survey,
    run_table,
)

_VARIANT_ALIASES = {kind.lower(): kind for kind in density_mod.RATIO_KINDS}
#: `density --kind` suffix -> ratio function; "g-conj" is conjectured_ratio("G", ell, d, a)
_RATIOS = {"conj": density_mod.conjectured_ratio, "lower": density_mod.lower_bound_ratio}

#: `density --kind` name -> value at (ell, d, a): a LinearInA, a Fraction or a ratio float
_DENSITY_KINDS = {
    "g": density_mod.delta_g,
    "primroot": density_mod.alpha_primroot,
    "hminus": density_mod.alpha_minus,
    "hminus-total": density_mod.delta_minus_total,
    "rho": density_mod.rho_plus_one,
    **{f"{v}-{r}": partial(f, k) for r, f in _RATIOS.items() for v, k in _VARIANT_ALIASES.items()},
}


def _parse_progression(text: str) -> tuple[int, int]:
    try:
        d_str, a_str = text.replace(":", ",").split(",")
        return int(d_str), int(a_str)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"progression must look like 'd,a', got {text!r}"
        ) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genocchi",
        description="Irregular-prime surveys, congruence oracles, and exact densities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)  # the options of survey and table
    shared.add_argument("--format", choices=("text", "csv", "json"), default="text")
    shared.add_argument("--threads", type=int, default=0)
    shared.add_argument("--cache-dir", default=None)
    shared.add_argument("--quiet", action="store_true")
    shared.add_argument("--deterministic", action="store_true")

    sv = sub.add_parser(
        "survey", parents=[shared], help="classify primes up to x and print ratio rows"
    )
    sv.add_argument("--ell", type=int, required=True)
    sv.add_argument("--x", type=int, required=True)
    sv.add_argument(
        "--progression",
        type=_parse_progression,
        action="append",
        metavar="D,A",
        help="restrict to primes = A mod D (repeatable; default all primes)",
    )
    sv.add_argument(
        "--variant",
        action="append",
        choices=sorted(_VARIANT_ALIASES),
        help="sequence family to count (repeatable; default g)",
    )

    tb = sub.add_parser("table", parents=[shared], help="reproduce a reference table")
    tb.add_argument("--which", choices=TABLE_PRESETS, required=True)
    tb.add_argument("--x", type=int, default=100_000)

    de = sub.add_parser("density", help="evaluate a closed-form density")
    de.add_argument("--kind", choices=_DENSITY_KINDS, required=True)
    de.add_argument("--ell", type=int, required=True)
    de.add_argument("--d", type=int, default=1)
    de.add_argument("--a", type=int, default=1)

    cl = sub.add_parser("classify", help="classification record for one prime")
    cl.add_argument("--ell", type=int, required=True)
    cl.add_argument("--p", type=int, required=True)

    wf = sub.add_parser("wieferich", help="scan a Wieferich set")
    wf.add_argument("--ell", type=int, required=True)
    wf.add_argument("--limit", type=int, required=True)
    wf.add_argument("--variant", choices=("base", "plus", "minus"), default="base")

    bn = sub.add_parser("bernoulli", help="exact Bernoulli number")
    bn.add_argument("--n", type=int, required=True)

    gn = sub.add_parser("genocchi", help="exact Genocchi-type integer")
    gn.add_argument("--ell", type=int, required=True)
    gn.add_argument("--n", type=int, required=True)

    return parser


def _cmd_survey(args) -> int:
    cfg = SurveyConfig(
        ell=args.ell,
        x=args.x,
        progressions=tuple(args.progression or [(1, 1)]),
        variants=tuple(_VARIANT_ALIASES[v] for v in (args.variant or ["g"])),
        threads=args.threads,
        cache_dir=args.cache_dir,
        quiet=args.quiet,
    )
    rows = run_survey(cfg)
    sys.stdout.write(emit_table("survey", rows, args.format, args.deterministic))
    return 0


def _cmd_table(args) -> int:
    rows = run_table(
        args.which,
        args.x,
        threads=args.threads,
        cache_dir=args.cache_dir,
        quiet=args.quiet,
    )
    sys.stdout.write(emit_table(args.which, rows, args.format, args.deterministic))
    return 0


def _cmd_density(args) -> int:
    value = _DENSITY_KINDS[args.kind](args.ell, args.d, args.a)
    if isinstance(value, float):
        print(f"{value:.9f}")
    elif isinstance(value, density_mod.LinearInA):
        print(f"{value} = {value.value():.9f}")
    else:
        print(f"{value} = {float(value):.9f}")
    return 0


def _cmd_classify(args) -> int:
    p = args.p
    orders = classify_mod.prime_orders(args.ell, p)  # checks ell and p before the kernel runs
    b = bool(classify_mod.b_irregular_pairs(p)) if p >= 5 else False
    c = classify_mod.classify_from_orders(args.ell, p, orders, b)
    print(
        f"p={c.p} ell={c.ell} ord={c.ord_ell} ord_sq={c.ord_ell_sq} "
        f"jacobi={c.jacobi_ell_p} B={int(c.b_irregular)} G={int(c.g_irregular)} "
        f"H={int(c.h_irregular)} H-={int(c.h_minus_irregular)} H+={int(c.h_plus_irregular)}"
    )
    return 0


def _cmd_wieferich(args) -> int:
    hits = classify_mod.wieferich_search(args.ell, args.limit, args.variant)
    print(" ".join(map(str, hits)) if hits else "(none)")
    return 0


def _cmd_bernoulli(args) -> int:
    print(bernoulli(args.n))
    return 0


def _cmd_genocchi(args) -> int:
    print(genocchi_number(args.ell, args.n))
    return 0


_COMMANDS = {
    "survey": _cmd_survey,
    "table": _cmd_table,
    "density": _cmd_density,
    "classify": _cmd_classify,
    "wieferich": _cmd_wieferich,
    "bernoulli": _cmd_bernoulli,
    "genocchi": _cmd_genocchi,
}


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, SurveyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
