"""Command-line experiment runner.

Three subcommands: `correctness` (round-trip suites), `game` (security-game
estimates), `analyze` (exact proof-quantity oracles). Every run is seeded and
reports carry the full configuration, so identical invocations produce
byte-identical output. Each `correctness` and `analyze` row is an
`analysis.Check` record with its reference and verdict. Exit status: 0
success, 1 some record failed its check, 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import io
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
from .analysis import Check
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
    try:
        if name == "owf":
            return OwfScheme(lam, prf_output_width=n or min(lam, 8))
        if name == "prfspd":
            n = n or m + 2
            if n <= m:
                raise ConfigError("n must exceed the measured width m")
            return PrfspdScheme(lam, ToyPrfspd(PrfspdParams(lam, lam, m, n - m)))
        if name == "prfs":
            return PrfsScheme(lam, PhasePrfs(PrfsParams(lam, lam, n or 2)))
    except (SchemeError, sim.CapacityError) as exc:
        raise ConfigError(str(exc))
    raise ConfigError(f"unknown scheme {name!r}")


# --- report rendering ------------------------------------------------------


def render(header: dict, columns, rows, fmt: str) -> str:
    lines = [f"# {key}={value}" for key, value in header.items()]
    if fmt == "csv":
        cells = io.StringIO()
        csv.writer(cells, lineterminator="\n").writerows([columns, *rows])
        lines.append(cells.getvalue().removesuffix("\n"))
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


def report(args, header: dict, columns: dict, records) -> int:
    """One row per record, of the fields `columns` names; exit 1 if any failed."""
    rows = [[format(r.value, r.fmt) if field == "value" else getattr(r, field)
             for field in columns.values()] for r in records]
    emit(render(header, list(columns), rows, args.format), args.out)
    return EXIT_CHECK_FAILED if any(r.failed for r in records) else EXIT_OK


# --- correctness -----------------------------------------------------------


def round_trip_check(scheme: str, successes: int, trials: int, exact: float) -> Check:
    """The EMPIRICAL round-trip rate; it fails when `exact` lies outside its Wilson
    interval at z = RATE_Z, closed at 0 and 1 when the rate attains them (so a
    perfect rate matches an exact 1.0)."""
    return Check("round-trip", scheme, successes / trials, f"trials={trials}", "EMPIRICAL",
                 reference=exact, interval=wilson_interval(successes, trials, RATE_Z), fmt=".6f")


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
    records = []
    if args.scheme == "owf" and args.lam <= 4:
        ok, total = _owf_exhaustive(scheme, 8, rng)
        records.append(Check("round-trip", "owf", ok / total, f"cases={total}", reference=1.0,
                             fmt=".6f"))
    else:
        # owf above the exhaustive size is perfectly correct
        exact = 1.0
        draw_message = lambda child: random_bits(8, child)
        if args.scheme == "prfs":
            exact_err = 2.0 ** -scheme.prfs.params.output_qubits
            records.append(Check("m1-error", "prfs", exact_err, "closed-form", fmt=".6f"))
            # one-bit messages, uniform: only message 1 can fail
            exact = 1.0 - exact_err / 2
            draw_message = lambda child: str(child.integers(2))
        elif args.scheme == "prfspd":
            exact = scheme.decrypt_success_exact()
            records.append(Check("key-recovery", "prfspd", exact,
                                 f"t={scheme.prfspd.params.tag_width}", fmt=".6f"))
        ok = 0
        for child in rng.spawn(args.trials):
            dk = scheme.gen(child)
            message = draw_message(child)
            qpk = scheme.qpk_gen(dk)
            _, ct = scheme.encrypt(qpk, message, child)
            ok += int(scheme.decrypt(dk, ct, child) == message)
        records.append(round_trip_check(args.scheme, ok, args.trials, exact))
    header = {
        "command": "correctness", "scheme": args.scheme, "lambda": args.lam,
        "n": args.n or "", "m": args.m, "trials": args.trials, "seed": args.seed,
    }
    columns = {"scheme": "case", "check": "check", "rate": "value", "flag": "flag",
               "details": "details"}
    return report(args, header, columns, records)


# --- games -----------------------------------------------------------------


def cmd_game(args, rng):
    if args.game == "cloning":
        scheme = build_scheme("prfspd", args.lam, args.n, args.m)
        cloner_cls = CLONERS.get(args.adversary)
        if cloner_cls is None:
            raise ConfigError(f"unknown cloning adversary {args.adversary!r}")

        def runner(child):
            return run_prfspd_cloning(scheme.prfspd, cloner_cls(scheme.prfspd.params), child)
    else:
        scheme = build_scheme(args.scheme, args.lam, args.n, args.m)
        adv_cls = adversary_class(args.scheme, args.adversary)

        def runner(child):
            if args.game == "cpa":
                return run_ind_cpa(scheme, adv_cls(), child)
            return run_ind_cpa_eo(scheme, adv_cls(), child, multi=args.game == "cpa-eo-multi")
    est = estimate_advantage(runner, args.trials, rng)
    rows = [[
        args.game, args.adversary, est.trials, est.wins,
        f"{est.estimate:.6f}", f"{est.interval[0]:.6f}", f"{est.interval[1]:.6f}",
    ]]
    header = {
        "command": "game", "scheme": scheme.name, "game": args.game,
        "adversary": args.adversary, "lambda": args.lam, "n": args.n or "",
        "m": args.m, "trials": args.trials, "seed": args.seed,
    }
    emit(render(header, ["game", "adversary", "trials", "wins", "win_rate", "ci_low", "ci_high"],
                rows, args.format), args.out)
    return EXIT_OK


# --- analysis --------------------------------------------------------------


def check_punctured(args):
    """The closed form against the explicit statevector, to 1e-9, where it fits."""
    for lam in range(2, 7):
        for p in range(1, 5):
            closed, case = analysis.punctured_key_distance(lam, p), f"lam={lam},p={p}"
            try:
                explicit = analysis.punctured_key_distance_explicit(lam, p)
            except sim.CapacityError:
                yield Check("punctured", case, closed, "explicit=capacity-exceeded")
            else:
                gap = f"explicit_gap={abs(closed - explicit):.2e}"
                yield Check("punctured", case, closed, gap, reference=explicit, tolerance=1e-9)


def check_random_key(args):
    # `all` clamps to lambda = 2 past the enumeration limit; an explicit
    # size past it raises its CapacityError, a configuration error
    lam = 2 if args.check == "all" and args.lam > 3 else args.lam
    for queries in (0, 1, 3):
        yield analysis.random_key_indistinguishability_check(lam, queries=queries)


def check_helstrom(args):
    # `all` clamps to lambda <= 3 so its report keeps its bytes; an
    # explicit size past the Gram budget raises its CapacityError
    lam = min(args.lam, 3) if args.check == "all" else args.lam
    yield analysis.optimal_advantage("prfs", lam, 1, ("0", "1"), output_qubits=args.n or 2)


# each `--check` choice, in the order `all` runs them
ANALYZE_CHECKS = {
    "punctured": check_punctured,
    "commuting": lambda args: map(analysis.commuting_measurement_check, (1, 2, 3)),
    "random-key": check_random_key,
    "helstrom": check_helstrom,
}


def cmd_analyze(args, rng):
    names = list(ANALYZE_CHECKS) if args.check == "all" else [args.check]
    records = [record for name in names for record in ANALYZE_CHECKS[name](args)]
    header = {
        "command": "analyze", "check": args.check, "lambda": args.lam,
        "n": args.n or "", "seed": args.seed,
    }
    return report(args, header, {c: c for c in ("check", "case", "value", "details")}, records)


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
            p.add_argument("--check", choices=[*ANALYZE_CHECKS, "all"], default="all")
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        if args.lam < 1:
            raise ConfigError("lambda out of range")
        if args.trials < 1:
            raise ConfigError("trials must be at least 1")
        if args.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if args.out and (os.path.isdir(args.out)
                         or not os.path.isdir(os.path.dirname(os.path.abspath(args.out)))):
            raise ConfigError(f"--out {args.out!r} must name a file in an existing directory")
        return args.fn(args, np.random.default_rng(args.seed))
    except (ConfigError, ValueError) as exc:  # a CapacityError is a ValueError
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
