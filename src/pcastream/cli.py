"""Command-line interface.

Commands:
    run       -- execute an experiment described by a JSON config
    gen-data  -- sample a dataset from a named problem preset
    verify    -- run the seeded verification suite
    report    -- convert a JSON report to CSV

Exit codes: 0 success, 1 check/experiment failure, 2 usage or config error.
"""

import argparse
import os
import sys

from . import data, harness
from .data import DATAGEN_STREAM, PRESETS, RngStream
from .errors import ConfigParseError, ConfigValidationError, ReportFormatError


def _int_at_least(low):
    """argparse type: an integer of at least ``low``, as in the config rules."""
    def integer(text):
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)
    return integer


def _write_report(report, fmt, out):
    """Write a report; the exit code is 1 if that fails."""
    try:
        harness.emit_report(report, fmt, out)
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {fmt} report to {out}")
    return 0


def _cmd_run(args):
    try:
        config = harness.load_config(args.config)
    except (ConfigParseError, ConfigValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    out = args.out or config.output_path
    if out and _overwrites(out, args.config):
        print(f"refusing to overwrite the config {args.config}", file=sys.stderr)
        return 2
    report = harness.run_experiment(config, workers=args.workers)
    completed = len(report.trials) - report.diverged
    for t, e in sorted(report.medians.items()):
        print(f"t={t}  median_e_pro={e:.6e}  (over {completed} trials)")
    if report.diverged:
        print(f"diverged trials: {report.diverged}")
    if out and _write_report(report, args.format, out):
        return 1
    return 0 if completed else 1


def _cmd_gen_data(args):
    preset = PRESETS[args.preset]()
    rng = RngStream(args.seed, DATAGEN_STREAM)
    spec = preset.draw_covariance(rng)
    samples = data.sample_block(spec, rng, args.samples)
    try:
        data.write_dataset(args.out, samples)
    except OSError as exc:
        print(f"cannot write dataset: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {args.samples} samples of dimension {preset.n} to {args.out}")
    return 0


def _cmd_verify(args):
    # loaded here, not at import: the other commands never run the suite
    from .checks import run_verification

    results = run_verification(args.filter)
    if not results:
        print(f"no checks match filter {args.filter!r}", file=sys.stderr)
        return 2
    failures = 0
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        print(f"[{tag}] {r.name} ({r.seconds:.2f}s) {r.detail}")
        failures += not r.passed
    total = sum(r.seconds for r in results)
    print(f"{len(results) - failures}/{len(results)} checks passed in {total:.1f}s")
    return 1 if failures else 0


def _same_file(a, b):
    try:
        return os.path.samefile(a, b)
    except OSError:  # a path that does not exist is no other file
        return False


def _overwrites(out, infile):
    """Whether a report written to ``out`` (or its summary file) would
    replace ``infile``."""
    return any(_same_file(path, infile)
               for path in (out, harness._summary_path(out)))


def _cmd_report(args):
    try:
        report = harness.report_from_json(args.infile)
    except (OSError, ReportFormatError) as exc:
        print(f"cannot read report: {exc}", file=sys.stderr)
        return 2
    out = args.out or os.path.splitext(args.infile)[0] + ".csv"
    if _overwrites(out, args.infile):
        print(f"refusing to overwrite the input report {args.infile}",
              file=sys.stderr)
        return 2
    return _write_report(report, args.format, out)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pcastream",
        description="Streaming principal-subspace experiments and verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")
    p_run.add_argument("--workers", type=_int_at_least(1), default=None)
    p_run.set_defaults(func=_cmd_run)

    p_gen = sub.add_parser("gen-data", help="sample a dataset from a preset")
    p_gen.add_argument("--preset", choices=sorted(PRESETS), required=True)
    p_gen.add_argument("--samples", type=_int_at_least(1), required=True)
    p_gen.add_argument("--seed", type=_int_at_least(0), required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen_data)

    p_ver = sub.add_parser("verify", help="run the verification suite")
    p_ver.add_argument("--filter", default=None)
    p_ver.set_defaults(func=_cmd_verify)

    p_rep = sub.add_parser("report", help="convert a JSON report to CSV")
    p_rep.add_argument("--in", dest="infile", required=True)
    p_rep.add_argument("--format", choices=("csv",), default="csv")
    p_rep.add_argument("--out", default=None)
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code) if exc.code else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
