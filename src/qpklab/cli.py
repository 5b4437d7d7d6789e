"""Command-line experiment runner.

Three subcommands: `correctness` (round-trip suites), `game` (security-game
estimates), `analyze` (exact proof-quantity oracles). Every run is seeded and
reports carry the full configuration, so identical invocations produce
byte-identical output. Exit status: 0 success, 1 acceptance-check failure,
2 configuration error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import analysis, sim
from .adversaries import (
    ADVERSARIES,
    DuplicateCloner,
    HonestPlusRandomCloner,
    LuckyCloner,
)
from .bits import int_to_bits, random_bits
from .games import (
    estimate_advantage,
    run_ind_cpa,
    run_ind_cpa_eo,
    run_prfspd_cloning,
    wilson_interval,
)
from .primitives import PhasePrfs, PrfsParams, PrfspdParams, ToyPrfspd
from .schemes import (
    DecryptionKey,
    OwfScheme,
    PrfsScheme,
    PrfspdScheme,
    SchemeError,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2

# Width, in standard errors, of the Wilson interval an empirical rate must
# place its exact value in.
RATE_Z = 5.0

CLONERS = {
    "honest-clone": HonestPlusRandomCloner,
    "duplicate-clone": DuplicateCloner,
    "lucky-clone": LuckyCloner,
}


class ConfigError(Exception):
    pass


def adversary_class(scheme: str, name: str):
    """The game adversary `name`, if it can play against `scheme`."""
    adv_cls = ADVERSARIES.get(name)
    if adv_cls is None:
        raise ConfigError(f"unknown adversary {name!r}")
    if scheme not in adv_cls.supported_schemes:
        raise ConfigError(f"adversary {name!r} cannot play against scheme {scheme!r}; "
                          f"it reads {', '.join(adv_cls.supported_schemes)}")
    return adv_cls


def build_scheme(name, lam, n, m):
    if lam < 1:
        raise ConfigError("lambda out of range")
    try:
        if name == "owf":
            return OwfScheme(lam, prf_output_width=n or min(lam, 8))
        if name == "prfspd":
            n = n or m + 2
            if n <= m:
                raise ConfigError("n must exceed the measured width m")
            params = PrfspdParams(lam, lam, m, n - m)
            return PrfspdScheme(lam, ToyPrfspd(params))
        if name == "prfs":
            return PrfsScheme(lam, PhasePrfs(PrfsParams(lam, lam, n or 2)))
    except (SchemeError, sim.CapacityError) as exc:
        raise ConfigError(str(exc))
    raise ConfigError(f"unknown scheme {name!r}")


# --- report rendering ------------------------------------------------------


def render(header: dict, columns, rows, fmt: str) -> str:
    lines = [f"# {key}={value}" for key, value in header.items()]
    if fmt == "csv":
        lines.append(",".join(columns))
        lines.extend(",".join(str(cell) for cell in row) for row in rows)
    elif fmt == "text":
        for row in rows:
            lines.append(" ".join(f"{c}={v}" for c, v in zip(columns, row)))
    elif fmt == "table":
        table = [columns] + [[str(cell) for cell in row] for row in rows]
        widths = [max(len(r[i]) for r in table) for i in range(len(columns))]
        for r in table:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    else:
        raise ConfigError(f"unknown format {fmt!r}")
    return "\n".join(lines) + "\n"


def emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- correctness -----------------------------------------------------------


def rate_check_failed(successes: int, trials: int, exact: float) -> bool:
    """True when the exact rate lies outside the empirical rate's Wilson interval.

    The interval is two-sided at z = RATE_Z and closed at 0 and 1 when the
    empirical rate attains them, so a perfect rate matches an exact 1.0.
    """
    lo, hi = wilson_interval(successes, trials, RATE_Z)
    return not lo <= exact <= hi


def _owf_exhaustive(scheme, message_width, rng):
    """All keys, all outcomes of measuring each key (the nonzero cells of its state)
    and all messages, through `encrypt` and `decrypt`; must never fail."""
    lam = scheme.security_param
    ok = total = 0
    for kv in range(1 << lam):
        dk = DecryptionKey(int_to_bits(kv, lam))
        for cell in np.flatnonzero(scheme.qpk_gen(dk).state.amplitudes).tolist():
            qpk = scheme.qpk_gen(dk)
            qpk.residue = int_to_bits(cell, qpk.state.qubit_count)
            for mv in range(1 << message_width):
                message = int_to_bits(mv, message_width)
                _, ct = scheme.encrypt(qpk, message, rng)
                total += 1
                ok += int(scheme.decrypt(dk, ct) == message)
    return ok, total


def cmd_correctness(args, rng):
    scheme = build_scheme(args.scheme, args.lam, args.n, args.m)
    rows = []
    failed = False
    if args.scheme == "owf" and args.lam <= 4:
        ok, total = _owf_exhaustive(scheme, 8, rng)
        rate = ok / total
        rows.append(["owf", "round-trip", f"{rate:.6f}", "EXACT", f"cases={total}"])
        failed |= rate != 1.0
    else:
        # owf above the exhaustive size is perfectly correct
        exact = 1.0
        draw_message = lambda child: random_bits(8, child)
        if args.scheme == "prfs":
            exact_err = 2.0 ** -scheme.prfs.params.output_qubits
            rows.append(["prfs", "m1-error", f"{exact_err:.6f}", "EXACT", "closed-form"])
            # one-bit messages, uniform: only message 1 can fail
            exact = 1.0 - exact_err / 2
            draw_message = lambda child: str(child.integers(2))
        elif args.scheme == "prfspd":
            exact = scheme.decrypt_success_exact()
            tag_width = scheme.prfspd.params.tag_width
            rows.append(["prfspd", "key-recovery", f"{exact:.6f}", "EXACT", f"t={tag_width}"])
        ok = 0
        for child in rng.spawn(args.trials):
            dk = scheme.gen(child)
            message = draw_message(child)
            qpk = scheme.qpk_gen(dk)
            _, ct = scheme.encrypt(qpk, message, child)
            ok += int(scheme.decrypt(dk, ct, child) == message)
        rate = ok / args.trials
        rows.append([args.scheme, "round-trip", f"{rate:.6f}", "EMPIRICAL", f"trials={args.trials}"])
        failed |= rate_check_failed(ok, args.trials, exact)
    header = {
        "command": "correctness", "scheme": args.scheme, "lambda": args.lam,
        "n": args.n or "", "m": args.m, "trials": args.trials, "seed": args.seed,
    }
    emit(render(header, ["scheme", "check", "rate", "flag", "details"], rows, args.format),
         args.out)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


# --- games -----------------------------------------------------------------


def cmd_game(args, rng):
    rows = []
    if args.game == "cloning":
        scheme = build_scheme("prfspd", args.lam, args.n, args.m)
        cloner_cls = CLONERS.get(args.adversary)
        if cloner_cls is None:
            raise ConfigError(f"unknown cloning adversary {args.adversary!r}")
        params = scheme.prfspd.params

        def runner(child):
            return run_prfspd_cloning(scheme.prfspd, cloner_cls(params), child)
    else:
        scheme = build_scheme(args.scheme, args.lam, args.n, args.m)
        adv_cls = adversary_class(args.scheme, args.adversary)
        if args.game == "cpa":
            def runner(child):
                return run_ind_cpa(scheme, adv_cls(), child)
        elif args.game in ("cpa-eo", "cpa-eo-multi"):
            multi = args.game == "cpa-eo-multi"

            def runner(child):
                return run_ind_cpa_eo(scheme, adv_cls(), child, multi=multi)
        else:
            raise ConfigError(f"unknown game {args.game!r}")
    est = estimate_advantage(runner, args.trials, rng)
    rows.append([
        args.game, args.adversary, est.trials, est.wins,
        f"{est.estimate:.6f}", f"{est.interval[0]:.6f}", f"{est.interval[1]:.6f}",
    ])
    header = {
        "command": "game", "scheme": scheme.name, "game": args.game,
        "adversary": args.adversary, "lambda": args.lam, "n": args.n or "",
        "m": args.m, "trials": args.trials, "seed": args.seed,
    }
    emit(render(header, ["game", "adversary", "trials", "wins", "win_rate", "ci_low", "ci_high"],
                rows, args.format), args.out)
    return EXIT_OK


# --- analysis --------------------------------------------------------------


def cmd_analyze(args, rng):
    rows = []
    failed = False
    checks = [args.check] if args.check != "all" else ["punctured", "commuting", "random-key", "helstrom"]
    for check in checks:
        if check == "punctured":
            for lam in range(2, 7):
                for p in range(1, 5):
                    closed = analysis.punctured_key_distance(lam, p)
                    try:
                        explicit = analysis.punctured_key_distance_explicit(lam, p)
                        gap = abs(closed - explicit)
                        detail = f"explicit_gap={gap:.2e}"
                        failed |= gap > 1e-9
                    except sim.CapacityError:
                        detail = "explicit=capacity-exceeded"
                    rows.append(["punctured", f"lam={lam},p={p}", f"{closed:.9f}", detail])
        elif check == "commuting":
            for lam in (1, 2, 3):
                report = analysis.commuting_measurement_check(lam)
                rows.append(["commuting", f"lam={lam}", f"{report.value:.3e}", report.pair])
                failed |= report.value > 1e-12
        elif check == "random-key":
            # `all` clamps to lambda = 2 past the enumeration limit; an explicit
            # size past it raises its CapacityError, a configuration error
            lam = 2 if args.check == "all" and args.lam > 3 else args.lam
            for queries in (0, 1, 3):
                report = analysis.random_key_indistinguishability_check(lam, queries=queries)
                rows.append(["random-key", f"lam={lam},queries={queries}", f"{report.value:.3e}",
                             report.pair])
                failed |= report.value > 1e-12
        elif check == "helstrom":
            # `all` clamps to lambda <= 3 so its report keeps its bytes; an
            # explicit size past the Gram budget raises its CapacityError
            lam = min(args.lam, 3) if args.check == "all" else args.lam
            adv = analysis.optimal_advantage("prfs", lam, 1, ("0", "1"),
                                             output_qubits=args.n or 2)
            rows.append(["helstrom", f"lam={adv.security_param},p=1", f"{adv.value:.9f}",
                         f"mode={adv.mode}"])
        else:
            raise ConfigError(f"unknown check {check!r}")
    header = {
        "command": "analyze", "check": args.check, "lambda": args.lam,
        "n": args.n or "", "seed": args.seed,
    }
    emit(render(header, ["check", "case", "value", "details"], rows, args.format), args.out)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


# --- entry point -----------------------------------------------------------


def make_parser():
    parser = argparse.ArgumentParser(
        prog="qpklab",
        description="Quantum public-key encryption laboratory: correctness suites, "
                    "security games, and exact proof-quantity oracles.",
        epilog="Qubit capacity can be overridden with the QPKLAB_QMAX environment variable.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("correctness", cmd_correctness), ("game", cmd_game), ("analyze", cmd_analyze)):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("--scheme", choices=["owf", "prfspd", "prfs"], default="owf")
        p.add_argument("--lambda", dest="lam", type=int, default=4,
                       help="security parameter")
        p.add_argument("--n", type=int, default=0,
                       help="output width (PRF bits / state qubits); 0 picks a default")
        p.add_argument("--m", type=int, default=1,
                       help="measured half width of the proof-of-destruction states")
        p.add_argument("--trials", type=int, default=1000)
        p.add_argument("--seed", type=int, required=True,
                       help="master seed; all randomness derives from it")
        p.add_argument("--format", choices=["table", "text", "csv"], default="table")
        p.add_argument("--out", default=None, help="write the report to this path")
        if name == "game":
            p.add_argument("--game", choices=["cpa", "cpa-eo", "cpa-eo-multi", "cloning"],
                           default="cpa")
            p.add_argument("--adversary", default="random-guess",
                           help=f"one of {sorted(ADVERSARIES) + sorted(CLONERS)}")
        if name == "analyze":
            p.add_argument("--check", choices=["punctured", "commuting", "random-key",
                                               "helstrom", "all"], default="all")
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.lam < 1:
        sys.stderr.write("error: lambda out of range\n")
        return EXIT_CONFIG
    if args.trials < 1:
        sys.stderr.write("error: trials must be at least 1\n")
        return EXIT_CONFIG
    if args.out and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
        sys.stderr.write(f"error: directory of --out {args.out!r} does not exist\n")
        return EXIT_CONFIG
    rng = np.random.default_rng(args.seed)
    try:
        return args.fn(args, rng)
    except (ConfigError, ValueError) as exc:  # a CapacityError is a ValueError
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
