"""Command-line front end.

Exit codes: 0 success, 1 usage error (bad flags, bad seed material),
2 runtime error, or a `stats` battery test below the fail threshold.
All commands are deterministic under explicit seeds.  The generator
commands take --seed-hex; without one, 32 bytes come from --seed-file,
else from the seed file named by $LWERNG_SEED_FILE, else from the
operating system.  `qkd-demo` ignores $LWERNG_SEED_FILE: each party
without its --<party>-seed-hex draws a seed from the operating system,
because Alice's and Bob's seeds must differ.
"""

import argparse
import json
import math
import os
import statistics
import sys
import time

from .errors import LwerngError
from .lwe_hiding import MIN_TRIALS, MODES, distinguishing_experiment
from .params import default_params
from .qkd import run_session
from .sampling import SEED_BYTES, EntropyInput
from .stats import (
    FAIL_P,
    MIN_BATTERY_BITS,
    dump_raw,
    run_battery,
    scatter_indexes,
    write_scatter_csv,
)
from .stream import DEFAULT_RESEED_INTERVAL, Generator

# bytes per next_bytes call in `bench`
_BENCH_READ_BYTES = 1 << 16


class UsageError(Exception):
    pass


def _resolve_entropy(seed_hex, seed_file) -> EntropyInput:
    if seed_hex is not None:
        try:
            raw = bytes.fromhex(seed_hex)
        except ValueError as exc:
            raise UsageError(f"--seed-hex is not valid hex: {exc}") from exc
        if len(raw) != SEED_BYTES:
            raise UsageError(f"--seed-hex must decode to exactly {SEED_BYTES} bytes")
        return EntropyInput(raw)
    seed_file = seed_file or os.environ.get("LWERNG_SEED_FILE")
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


def _add_seed_args(sp):
    sp.add_argument("--seed-hex", help=f"{2 * SEED_BYTES} hex chars of seed material")
    sp.add_argument("--seed-file", help="file holding 32 seed bytes "
                                        "(default: $LWERNG_SEED_FILE)")


def _add_reseed_arg(sp):
    sp.add_argument("--reseed-interval", type=_COUNT, default=DEFAULT_RESEED_INTERVAL,
                    help="bits between automatic reseeds, 0 disables")


def _build_parser():
    ap = argparse.ArgumentParser(prog="lwerng")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write raw generator bytes")
    g.set_defaults(func=_cmd_generate)
    _add_seed_args(g)
    g.add_argument("--bytes", type=_COUNT, default=32, dest="nbytes")
    g.add_argument("--out", help="output file (default stdout)")
    g.add_argument("--force", action="store_true",
                   help="allow raw bytes on a terminal stdout")
    _add_reseed_arg(g)

    s = sub.add_parser("stats", help="run the built-in randomness battery")
    s.set_defaults(func=_cmd_stats)
    _add_seed_args(s)
    s.add_argument("--bits", type=_at_least(MIN_BATTERY_BITS), default=10_000_000)
    s.add_argument("--json", action="store_true",
                   help="print one JSON array of test reports")
    _add_reseed_arg(s)

    d = sub.add_parser("dieharder-dump", help="dump raw bytes for an external suite")
    d.set_defaults(func=_cmd_dump)
    _add_seed_args(d)
    d.add_argument("--bytes", type=_COUNT, default=1_100_000_000, dest="nbytes")
    d.add_argument("--out", required=True)
    _add_reseed_arg(d)

    sc = sub.add_parser("scatter", help="export 3-bit scatter indexes as CSV")
    sc.set_defaults(func=_cmd_scatter)
    _add_seed_args(sc)
    sc.add_argument("--count", type=_POSITIVE, default=1_000_000)
    sc.add_argument("--out", required=True)
    _add_reseed_arg(sc)

    di = sub.add_parser("distinguish", help="run the distinguishing experiment")
    di.set_defaults(func=_cmd_distinguish)
    di.add_argument("--trials", type=_at_least(MIN_TRIALS), default=100_000)
    di.add_argument("--mode", choices=MODES, default="hiding_vs_uniform")
    di.add_argument("--seed", type=int, default=0, help="experiment RNG seed")

    qk = sub.add_parser("qkd-demo", help="run a BB84 session")
    qk.set_defaults(func=_cmd_qkd)
    qk.add_argument("--photons", type=_POSITIVE, default=1_000_000)
    qk.add_argument("--adversary", choices=["none", "intercept"], default="none")
    qk.add_argument("--alice-seed-hex")
    qk.add_argument("--bob-seed-hex")
    qk.add_argument("--eve-seed-hex")

    be = sub.add_parser("bench", help="measure generation throughput")
    be.set_defaults(func=_cmd_bench)
    _add_seed_args(be)
    be.add_argument("--bytes", type=_POSITIVE, default=100_000_000, dest="nbytes",
                    help="bytes generated per run")
    be.add_argument("--runs", type=_POSITIVE, default=5)
    be.add_argument("--json", action="store_true",
                    help="print one JSON object of the rates and settings")
    _add_reseed_arg(be)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(ap.format_usage().strip(), file=sys.stderr)
        return 1
    except (LwerngError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_generate(args) -> int:
    ent = _resolve_entropy(args.seed_hex, args.seed_file)
    gen = Generator(ent, reseed_interval=args.reseed_interval)
    if args.out:
        dump_raw(gen, args.nbytes, args.out)
        return 0
    if sys.stdout.isatty() and not args.force:
        raise UsageError("refusing to write raw bytes to a terminal; "
                         "use --out or --force")
    dump_raw(gen, args.nbytes, sys.stdout.buffer)
    sys.stdout.buffer.flush()
    return 0


def _cmd_stats(args) -> int:
    ent = _resolve_entropy(args.seed_hex, args.seed_file)
    reports = run_battery(Generator(ent, reseed_interval=args.reseed_interval), args.bits)
    if args.json:
        print(_reports_json(reports))
    else:
        for rep in reports:
            print(rep.line())
    worst = min(rep.p_value for rep in reports)
    return 0 if worst >= FAIL_P else 2


def _reports_json(reports) -> str:
    """Battery reports as strict JSON; a non-finite statistic (runs when its
    frequency precondition fails) is written as null."""
    return json.dumps([
        {"test_name": rep.test_name,
         "statistic": rep.statistic if math.isfinite(rep.statistic) else None,
         "p_value": rep.p_value,
         "verdict": rep.verdict}
        for rep in reports
    ], allow_nan=False)


def _cmd_dump(args) -> int:
    ent = _resolve_entropy(args.seed_hex, args.seed_file)
    dump_raw(Generator(ent, reseed_interval=args.reseed_interval), args.nbytes, args.out)
    print(f"wrote {args.nbytes} bytes to {args.out}", file=sys.stderr)
    print(f"external suite: dieharder -a -g 201 -f {args.out}", file=sys.stderr)
    return 0


def _cmd_scatter(args) -> int:
    ent = _resolve_entropy(args.seed_hex, args.seed_file)
    indexes = scatter_indexes(Generator(ent, reseed_interval=args.reseed_interval),
                              args.count)
    write_scatter_csv(indexes, args.out)
    print(f"wrote {args.count} indexes to {args.out}", file=sys.stderr)
    return 0


def _cmd_distinguish(args) -> int:
    report = distinguishing_experiment(args.trials, mode=args.mode, seed=args.seed)
    print(report.to_text())
    return 0


def _cmd_qkd(args) -> int:
    def seed_of(hex_str):
        if hex_str is None:
            return EntropyInput(os.urandom(SEED_BYTES))
        try:
            return EntropyInput.from_hex(hex_str)
        except ValueError as exc:
            raise UsageError(f"bad seed hex: {exc}") from exc

    adversary = "intercept_resend" if args.adversary == "intercept" else None
    session = run_session(
        seed_of(args.alice_seed_hex),
        seed_of(args.bob_seed_hex),
        args.photons,
        adversary=adversary,
        ent_eve=seed_of(args.eve_seed_hex) if adversary else None,
    )
    print(session.summary())
    print("n,sift_fraction,qber,adversary")
    print(session.csv_row())
    return 0


def _cmd_bench(args) -> int:
    ent = _resolve_entropy(args.seed_hex, args.seed_file)
    rates = bench_rates(ent, args.nbytes, args.runs, args.reseed_interval)
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
    """Wall-clock generation rates in Mbit/s (decimal), one per run."""
    rates = []
    for _ in range(runs):
        gen = Generator(ent, reseed_interval=reseed_interval)
        left = nbytes
        t0 = time.perf_counter()
        while left > 0:
            take = min(_BENCH_READ_BYTES, left)
            gen.next_bytes(take)
            left -= take
        dt = time.perf_counter() - t0
        rates.append(nbytes * 8 / dt / 1e6)
    return rates


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
