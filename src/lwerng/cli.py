"""Command-line front end.

Every command is one row of `_COMMANDS`: its name, help text, handler,
whether it is seeded, and its own flags.  A seeded command also takes
--seed-hex, --seed-file and --reseed-interval, and its handler gets the
resolved seed as `args.entropy`: --seed-hex, else 32 bytes from
--seed-file, else from the seed file named by $LWERNG_SEED_FILE, else from
the operating system.  `qkd-demo` is not seeded and ignores
$LWERNG_SEED_FILE: each party without its --<party>-seed-hex draws a seed
from the operating system, because no two parties may share a seed.

Exit codes: 0 success, 1 usage error (bad flags, bad seed material; bad
seed hex on any flag is one), 2 runtime error, or a `stats` battery test
whose verdict is fail.  All commands are deterministic under explicit
seeds.
"""

import argparse
import json
import math
import os
import statistics
import sys
import time
from dataclasses import asdict

from .errors import LwerngError
from .lwe_hiding import MIN_TRIALS, MODES, distinguishing_experiment
from .qkd import run_session
from .sampling import SEED_BYTES, EntropyInput
from .stats import (
    MIN_BATTERY_BITS,
    dump_raw,
    run_battery,
    scatter_indexes,
    write_scatter_csv,
)
from .stream import DEFAULT_RESEED_INTERVAL, Generator


class UsageError(Exception):
    pass


def _seed_hex(text: str) -> EntropyInput:
    """argparse type: seed hex, so bad hex or a wrong length is a usage error."""
    try:
        return EntropyInput.from_hex(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _entropy(args) -> EntropyInput:
    """The seed of a seeded command, in the order the module docstring gives."""
    if args.seed_hex is not None:
        return args.seed_hex
    # read here, not through a --seed-file type: argparse would pass the
    # environment default through it even when --seed-hex is given
    seed_file = args.seed_file or os.environ.get("LWERNG_SEED_FILE")
    if seed_file:
        try:
            with open(seed_file, "rb") as fh:
                raw = fh.read(SEED_BYTES)
        except OSError as exc:
            raise UsageError(f"cannot read seed file: {exc}") from exc
        if len(raw) != SEED_BYTES:
            raise UsageError(f"seed file must hold at least {SEED_BYTES} bytes")
        return EntropyInput(raw)
    return EntropyInput(os.urandom(SEED_BYTES))


def _at_least(low: int):
    """argparse type: an integer >= low, so a bad count is a usage error."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = f"integer >= {low}"
    return parse


_COUNT = _at_least(0)
_POSITIVE = _at_least(1)


def _generator(args) -> Generator:
    """The generator of a seeded command: its seed and --reseed-interval."""
    return Generator(args.entropy, reseed_interval=args.reseed_interval)


def _cmd_generate(args) -> int:
    if not args.out and sys.stdout.isatty() and not args.force:
        raise UsageError("refusing to write raw bytes to a terminal; "
                         "use --out or --force")
    dump_raw(_generator(args), args.nbytes, args.out or sys.stdout.buffer)
    sys.stdout.buffer.flush()  # a closed pipe is an OSError here, exit 2
    return 0


def _cmd_stats(args) -> int:
    reports = run_battery(_generator(args), args.bits)
    if args.json:
        print(_reports_json(reports))
    else:
        for rep in reports:
            print(rep.line())
    return 2 if any(rep.verdict == "fail" for rep in reports) else 0


def _reports_json(reports) -> str:
    """Battery reports as strict JSON; a non-finite statistic (runs when its
    frequency precondition fails) is written as null."""
    rows = [asdict(rep) for rep in reports]
    for row in rows:
        if not math.isfinite(row["statistic"]):
            row["statistic"] = None
    return json.dumps(rows, allow_nan=False)


def _cmd_dump(args) -> int:
    dump_raw(_generator(args), args.nbytes, args.out)
    print(f"wrote {args.nbytes} bytes to {args.out}", file=sys.stderr)
    print(f"external suite: dieharder -a -g 201 -f {args.out}", file=sys.stderr)
    return 0


def _cmd_scatter(args) -> int:
    indexes = scatter_indexes(_generator(args), args.count)
    write_scatter_csv(indexes, args.out)
    print(f"wrote {args.count} indexes to {args.out}", file=sys.stderr)
    return 0


def _cmd_distinguish(args) -> int:
    report = distinguishing_experiment(args.trials, mode=args.mode, seed=args.seed)
    print(report.to_json() if args.json else report.to_text())
    return 0


def _cmd_qkd(args) -> int:
    def seed_of(ent):
        return EntropyInput(os.urandom(SEED_BYTES)) if ent is None else ent

    adversary = "intercept_resend" if args.adversary == "intercept" else None
    session = run_session(
        seed_of(args.alice_seed_hex),
        seed_of(args.bob_seed_hex),
        args.photons,
        adversary=adversary,
        ent_eve=seed_of(args.eve_seed_hex) if adversary else None,
    )
    if args.json:
        print(session.to_json())
        return 0
    print(session.summary())
    print("n,sift_fraction,qber,adversary")
    print(session.csv_row())
    return 0


def _cmd_bench(args) -> int:
    rates = bench_rates(args.entropy, args.nbytes, args.runs, args.reseed_interval)
    median = statistics.median(rates)
    if args.json:
        print(json.dumps({"rates_mbit_s": rates, "median_mbit_s": median,
                          "nbytes": args.nbytes,
                          "reseed_interval": args.reseed_interval}, allow_nan=False))
        return 0
    for i, rate in enumerate(rates):
        print(f"run {i + 1}: {rate:.3f} Mbit/s")
    print(f"median: {median:.3f} Mbit/s "
          f"({args.nbytes} bytes/run, reseed interval {args.reseed_interval} bits; "
          "hide's ring matmuls may use OpenBLAS threads)")
    return 0


def bench_rates(ent, nbytes, runs, reseed_interval=DEFAULT_RESEED_INTERVAL):
    """Wall-clock generation rates in Mbit/s (decimal), one per run; each
    run times the `dieharder-dump` loop writing into the null device."""
    rates = []
    for _ in range(runs):
        gen = Generator(ent, reseed_interval=reseed_interval)
        t0 = time.perf_counter()
        dump_raw(gen, nbytes, os.devnull)
        rates.append(nbytes * 8 / (time.perf_counter() - t0) / 1e6)
    return rates


# (name, help, handler, seeded, own (flag, add_argument keywords) pairs); a
# seeded command also gets the seed and reseed flags, and args.entropy
_COMMANDS = (
    ("generate", "write raw generator bytes", _cmd_generate, True, (
        ("--bytes", dict(type=_COUNT, default=32, dest="nbytes")),
        ("--out", dict(help="output file (default stdout)")),
        ("--force", dict(action="store_true", help="allow raw bytes on a terminal stdout")),
    )),
    ("stats", "run the built-in randomness battery", _cmd_stats, True, (
        ("--bits", dict(type=_at_least(MIN_BATTERY_BITS), default=10_000_000)),
        ("--json", dict(action="store_true", help="print one JSON array of test reports")),
    )),
    ("dieharder-dump", "dump raw bytes for an external suite", _cmd_dump, True, (
        ("--bytes", dict(type=_COUNT, default=1_100_000_000, dest="nbytes")),
        ("--out", dict(required=True)),
    )),
    ("scatter", "export 3-bit scatter indexes as CSV", _cmd_scatter, True, (
        ("--count", dict(type=_POSITIVE, default=1_000_000)),
        ("--out", dict(required=True)),
    )),
    ("distinguish", "run the distinguishing experiment", _cmd_distinguish, False, (
        ("--trials", dict(type=_at_least(MIN_TRIALS), default=100_000)),
        ("--mode", dict(choices=MODES, default="hiding_vs_uniform")),
        ("--seed", dict(type=_COUNT, default=0, help="experiment RNG seed")),
        ("--json", dict(action="store_true",
                        help="print one JSON object of the report and hit counts")),
    )),
    ("qkd-demo", "run a BB84 session", _cmd_qkd, False, (
        ("--photons", dict(type=_POSITIVE, default=1_000_000)),
        ("--adversary", dict(choices=["none", "intercept"], default="none")),
        ("--alice-seed-hex", dict(type=_seed_hex)),
        ("--bob-seed-hex", dict(type=_seed_hex)),
        ("--eve-seed-hex", dict(type=_seed_hex)),
        ("--json", dict(action="store_true",
                        help="print one JSON object of the session summary")),
    )),
    ("bench", "measure generation throughput", _cmd_bench, True, (
        ("--bytes", dict(type=_POSITIVE, default=100_000_000, dest="nbytes",
                         help="bytes generated per run")),
        ("--runs", dict(type=_POSITIVE, default=5)),
        ("--json", dict(action="store_true",
                        help="print one JSON object of the rates and settings")),
    )),
)


def _build_parser():
    ap = argparse.ArgumentParser(prog="lwerng")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_text, handler, seeded, flags in _COMMANDS:
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(func=handler, seeded=seeded)
        for flag, kwargs in flags:
            sp.add_argument(flag, **kwargs)
        if seeded:
            sp.add_argument("--seed-hex", type=_seed_hex,
                            help=f"{2 * SEED_BYTES} hex chars of seed material")
            sp.add_argument("--seed-file", help="file holding 32 seed bytes "
                                                "(default: $LWERNG_SEED_FILE)")
            sp.add_argument("--reseed-interval", type=_COUNT,
                            default=DEFAULT_RESEED_INTERVAL,
                            help="bits between automatic reseeds, 0 disables")
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        if args.seeded:
            args.entropy = _entropy(args)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(ap.format_usage().strip(), file=sys.stderr)
        return 1
    except (LwerngError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
