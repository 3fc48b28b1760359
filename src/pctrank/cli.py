"""The `pct` command line tool.

Subcommands: attribute (per-document class attribution), indicators (I3, R and
PP per group), report (boundary hits and cross-rule disagreements), schemes
(list or inspect class schemes). Exit codes: 0 success, 1 output that could not
be written, 2 input data errors, 3 configuration/usage errors, 4 boundary
policy refusals.
"""

from __future__ import annotations

import argparse
import codecs
import contextlib
import errno
import gc
import os
import sys

# Each layer is called through the names imported here: perfbench/tracing.py
# rebinds them in this namespace to time the layers of a run.
from .indicators import compare_rules, compute_indicators
from .io import (
    DEFAULT_PRECISION,
    FORMATS,
    partition_by_group,
    read_records,
    render_attributions,
    render_indicators,
    render_report,
    render_scheme_detail,
    render_scheme_list,
)
from .model import (
    BUILTIN_SCHEME_NAMES,
    BoundaryAmbiguityError,
    ConfigError,
    DataError,
    PRScheme,
    _shortened,
    builtin_scheme,
    load_custom_scheme,
    rank,
)
from .scoring import (
    BoundaryPolicy,
    CountingRule,
    MidpointRoute,
    RoundingMode,
    attribute_all,
)

__version__ = "0.1.0"

EXIT_OK = 0
EXIT_OUTPUT = 1
EXIT_DATA = 2
EXIT_CONFIG = 3
EXIT_BOUNDARY = 4

PRECISION_ENV = "PCT_PRECISION"
# Decimal renderings are for display; a larger precision only prints more
# digits of every non-terminating value.
MAX_PRECISION = 100
# Characters encoded per write to stdout.
_WRITE_PIECE = 1 << 16


class _Parser(argparse.ArgumentParser):
    """Parser whose usage failures exit with the configuration error code, and
    whose help and version text is written as a command's output is."""

    def error(self, message):
        _say(f"{self.format_usage()}{self.prog}: error: {message}")
        raise SystemExit(EXIT_CONFIG)

    def _print_message(self, message, file=None):
        # argparse passes sys.stdout, which is None when fd 1 was closed.
        if file is not sys.stdout:
            super()._print_message(message, file)
        elif message and _write(message) != EXIT_OK:
            raise SystemExit(EXIT_OUTPUT)


def _say(message: str) -> None:
    """Print one line to stderr. With stderr closed (None, as Python leaves it
    when file descriptor 2 is closed at start-up) or failing, the line is
    dropped: the exit code and stdout stay what they would be."""
    if sys.stderr is None:
        return
    try:
        print(message, file=sys.stderr)
    except OSError:
        _to_null_device(sys.stderr)


def _to_null_device(stream) -> None:
    """Point the file descriptor under a stream whose write failed at the null
    device. The interpreter flushes the stream again at exit, which would fail
    the same way; what is still buffered goes to the null device instead (the
    Python docs' "Note on SIGPIPE")."""
    with contextlib.suppress(OSError, ValueError):
        fd = stream.fileno()
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)


def resolve_scheme(selector: str) -> PRScheme:
    """Turn a --scheme selector into a validated scheme.

    Selectors: top50 | pr6 | pr100 | topx=<fraction> | custom=<path>.
    """
    if selector.startswith("custom="):
        return load_custom_scheme(selector[len("custom="):])
    return builtin_scheme(selector)


def _resolve_precision(args) -> int:
    if args.precision is not None:
        value = args.precision
    else:
        raw = os.environ.get(PRECISION_ENV)
        if raw is None:
            return DEFAULT_PRECISION
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(
                f"{PRECISION_ENV} must be an integer, got {_shortened(raw)}"
            ) from None
    if value < 1:
        raise ConfigError("precision must be at least 1")
    if value > MAX_PRECISION:
        raise ConfigError(f"precision must be at most {MAX_PRECISION}")
    return value


def _warn_defaulted_ambiguities(hits: int) -> None:
    """Say how many documents a defaulted policy put on a boundary, if any."""
    if hits:
        noun = "attribution" if hits == 1 else "attributions"
        _say(
            f"pct: warning: {hits} {noun} landed exactly on a class boundary and "
            "went to the class below; pass --boundary to choose"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pct",
        description=(
            "Percentile rank class attribution and citation impact indicators "
            "with exact rational arithmetic."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    for command, summary in (
        ("attribute", "per-document class attribution"),
        ("indicators", "I3, R and PP per group"),
        ("report", "boundary hits and cross-rule class disagreements"),
    ):
        sub = subparsers.add_parser(command, help=summary)
        sub.add_argument(
            "--input", default="-", help="input file (csv, tsv or json), or - for stdin"
        )
        sub.add_argument(
            "--format", choices=FORMATS, default="table",
            help="output format (default table; csv/json carry exact p/q values)",
        )
        # report prints no decimals, and it compares every counting rule.
        if command != "report":
            sub.add_argument(
                "--precision", type=int, default=None,
                help=f"significant digits for decimal renderings, 1 to {MAX_PRECISION} "
                     f"(default {DEFAULT_PRECISION}; env {PRECISION_ENV})",
            )
        sub.add_argument(
            "--scheme", required=True,
            help=" | ".join([*BUILTIN_SCHEME_NAMES, "topx=<fraction>", "custom=<path>"]),
        )
        if command != "report":
            sub.add_argument(
                "--rule", choices=[rule.value for rule in CountingRule],
                default=CountingRule.FRACTIONAL.value,
                help="counting rule (default fractional)",
            )
            sub.add_argument(
                "--boundary", choices=[policy.value for policy in BoundaryPolicy],
                default=None,
                help="class for a point landing on an interior boundary "
                     "(default lower, with a warning)",
            )
        sub.add_argument(
            "--rounding", choices=[mode.value for mode in RoundingMode],
            default=RoundingMode.NONE.value,
            help="rounding of 100*q before classification (default none)",
        )
        sub.add_argument(
            "--midpoint-route", dest="midpoint_route",
            choices=[route.value for route in MidpointRoute],
            default=MidpointRoute.EXACT.value,
            help="midpoint taken exactly, or as the rounded middle of rounded "
                 "endpoint percentiles (default exact)",
        )

    schemes_parser = subparsers.add_parser(
        "schemes", help="list built-in schemes or inspect/validate one"
    )
    schemes_parser.add_argument(
        "--scheme", default=None,
        help="scheme to show in full (builtin selector or custom=<path>); "
             "omit to list the built-ins",
    )
    schemes_parser.add_argument(
        "--format", choices=FORMATS, default="table"
    )
    return parser


def _run(args) -> str:
    if args.command == "schemes":
        if args.scheme is None:
            names = [*BUILTIN_SCHEME_NAMES, "topx(1/10)"]
            return render_scheme_list([*map(resolve_scheme, names)], fmt=args.format)
        return render_scheme_detail(resolve_scheme(args.scheme), fmt=args.format)

    precision = None if args.command == "report" else _resolve_precision(args)
    scheme = resolve_scheme(args.scheme)
    ranked_sets = [
        (key, rank(documents))
        for key, documents in partition_by_group(read_records(args.input)).items()
    ]
    scheme.check_digits(max((ranked.n for _, ranked in ranked_sets), default=0))
    routes = dict(
        rounding=RoundingMode(args.rounding), midpoint_route=MidpointRoute(args.midpoint_route)
    )

    if args.command == "report":
        batches = [(key, ranked, compare_rules(ranked, scheme, **routes))
                   for key, ranked in ranked_sets]
        return render_report(batches, scheme, **routes, fmt=args.format)

    rule = CountingRule(args.rule)
    # The CLI's default policy is lower, with a warning if a point lands on a boundary.
    warn_on_ambiguity = args.boundary is None
    policy = BoundaryPolicy.LOWER if warn_on_ambiguity else BoundaryPolicy(args.boundary)
    options = dict(routes, policy=policy)

    if args.command == "indicators":
        # Decided per tie group: no per-document attributions.
        results = [
            (key, compute_indicators(ranked, scheme, rule, **options))
            for key, ranked in ranked_sets
        ]
        if warn_on_ambiguity:
            _warn_defaulted_ambiguities(sum(result.boundary_hits for _, result in results))
        return render_indicators(results, scheme, fmt=args.format, precision=precision)

    batches = [
        (key, ranked, attribute_all(ranked, scheme, rule, **options))
        for key, ranked in ranked_sets
    ]
    if warn_on_ambiguity and rule is not CountingRule.FRACTIONAL:
        _warn_defaulted_ambiguities(sum(
            a.ambiguous for _key, _ranked, attributions in batches for a in attributions
        ))
    # Under the fractional rule the policy is not shown.
    return render_attributions(batches, scheme, rule, **options, fmt=args.format,
                               precision=precision)


def main(argv: list[str] | None = None) -> int:
    # A run makes a few hundred reference cycles whatever n is, yet the cyclic
    # collector would pass over its per-document objects dozens of times. So
    # it is off for the run, argparse included, and its state is restored.
    enabled = gc.isenabled()
    gc.disable()
    try:
        output = _run(build_parser().parse_args(argv))
    except DataError as exc:
        _say(f"pct: input error: {exc}")
        return EXIT_DATA
    except ConfigError as exc:
        _say(f"pct: config error: {exc}")
        return EXIT_CONFIG
    except BoundaryAmbiguityError as exc:
        _say(f"pct: {exc}")
        return EXIT_BOUNDARY
    else:
        return _write(output)
    finally:
        if enabled:
            gc.enable()


def console() -> int:
    """The process entry point of `pct` and `python -m pctrank`: main, then
    the collector frozen. At exit the interpreter runs full collections over
    every object the imports left, 4 to 6 ms of a 35 to 41 ms `pct schemes`
    on Python 3.11; frozen objects are skipped. Streams are still flushed,
    atexit hooks run and modules torn down. main itself never freezes: in a
    longer process every object alive then would be kept for good."""
    try:
        return main()
    finally:
        gc.freeze()


def _write(output: str) -> int:
    """Write to stdout; a failed write, or a character that stdout's
    encoding and error handler cannot write, is one line on stderr and
    EXIT_OUTPUT.

    A pipe whose reader has gone can take part of a large write without an
    error, and the text layer drops the rest. So each piece is encoded as
    the stream encodes it, with its newlines as the standard streams write
    them, and its bytes are written until the binary layer has taken all of
    them: the write after a short one fails. A stream with no binary layer,
    such as io.StringIO, takes the text."""
    try:
        stream = sys.stdout
        if stream is None:  # file descriptor 1 was closed at start-up
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        binary = getattr(stream, "buffer", None)
        if binary is None:
            stream.write(output)
        else:
            stream.flush()
            encode = codecs.getincrementalencoder(stream.encoding)(stream.errors).encode
            if os.linesep != "\n":
                output = output.replace("\n", os.linesep)
            for start in range(0, len(output), _WRITE_PIECE):
                data = memoryview(encode(output[start:start + _WRITE_PIECE]))
                while data:
                    data = data[binary.write(data):]
        stream.flush()
    except OSError as exc:  # BrokenPipeError included
        _say(f"pct: cannot write output: {exc.strerror or exc}")
        if sys.stdout is not None:
            _to_null_device(sys.stdout)
        return EXIT_OUTPUT
    except UnicodeEncodeError as exc:  # the pieces before this one are written
        _say(f"pct: cannot write output: stdout's encoding {exc.encoding} cannot encode "
             f"U+{ord(exc.object[exc.start]):04X}; set PYTHONIOENCODING=utf-8")
        return EXIT_OUTPUT
    return EXIT_OK
