"""Command-line front end: every subcommand prints one JSON document (or a
CSV table for harness sweeps) on stdout and logs to stderr.

Identical argv (including --seed) produce byte-identical stdout across runs
and across --jobs settings; wall-clock timing therefore goes to stderr and
the CommandResult object only.
"""

import argparse
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from . import bounds, conjugation, counting, cusps, harness, hecke
from .errors import CuspnormError
from .modgroup import Mat2, PointH
from .precision import default_dps


@dataclass
class CommandResult:
    command: str
    inputs: dict
    payload: object  # JSON value, or raw text (csv tables, text reports)
    exit_code: int
    elapsed: float
    fmt: str = "json"
    out: str | None = None  # --out path; stdout when None

    def rendered(self) -> str:
        if self.fmt == "raw":
            return self.payload
        doc = {"command": self.command, "inputs": self.inputs, "result": self.payload}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r} ({exc})") from exc


def _point(text: str) -> PointH:
    try:
        return PointH.parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a point X,Y: {text!r} ({exc})") from exc


def _matrix(text: str) -> Mat2:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"matrix needs a,b,c,d, got {text!r}")
    return Mat2(*(int(p) for p in parts))


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="cuspnorm",
        description="Exact cusp arithmetic, width-one reduction, matrix "
        "counting and exponent optimization for Gamma0(N).",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cusps", help="enumerate the cusps of Gamma0(N)")
    p.add_argument("--level", type=int, required=True)

    p = sub.add_parser("reduce", help="gap-principle reduction of a point")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--point", type=_point, required=True, metavar="X,Y")

    p = sub.add_parser("count", help="classified matrix counts at a point")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--delta", type=_fraction, default=Fraction(1))
    p.add_argument("--point", type=_point, required=True, metavar="X,Y")
    p.add_argument("--matrices", action="store_true", help="include matrix lists")

    p = sub.add_parser("harness", help="envelope-ratio sweep for one lemma")
    p.add_argument("--lemma", choices=harness.LEMMAS, required=True)
    p.add_argument("--levels", type=_levels_text, default="1..60", metavar="A..B")
    p.add_argument("--delta", type=_fraction, default=Fraction(1))
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--l1", type=int, default=1, help="fixed factor for eq3")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("hecke", help="coset table of Delta(l, N; M)")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--check-conjugation", type=_matrix, default=None,
                   metavar="a,b,c,d")

    p = sub.add_parser("exponent", help="replay an exponent derivation")
    p.add_argument("--case", choices=("main", "case2"), default="main")
    p.add_argument("--nu", type=_fraction, default=None)
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("smooth", help="count N-smooth integers up to X")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--level", type=int, required=True)

    return top


def _levels(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    return (int(lo), int(hi if sep else lo))


def _levels_text(text: str) -> str:
    """The --levels text, checked to parse so that a malformed range is a
    usage error; it is echoed verbatim in the output."""
    try:
        _levels(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"need A..B or A, got {text!r}") from exc
    return text


# not echoed: the command, which the document names on its own, and the
# arguments that choose how a result is written or which parts it holds;
# leaving --jobs out keeps output byte-identical across --jobs settings
_NOT_ECHOED = frozenset(("command", "format", "out", "jobs", "matrices"))


def _inputs(args) -> dict:
    """The inputs echo: every argument not in _NOT_ECHOED, a Fraction as its
    string, a point serialized and a matrix as "a,b,c,d"; an unset option,
    and --l1 at its default 1, are left out, so default output is unchanged."""
    inputs = {}
    for name, value in vars(args).items():
        if name in _NOT_ECHOED or value is None or (name == "l1" and value == 1):
            continue
        if isinstance(value, Fraction):
            value = str(value)
        elif isinstance(value, PointH):
            value = value.serialize()
        elif isinstance(value, Mat2):
            value = ",".join(map(str, value.entries()))
        inputs[name] = value
    return inputs


def _dispatch(args) -> tuple[object, str]:
    """Returns (payload, format)."""
    cmd = args.command
    if cmd == "cusps":
        return cusps.cusp_table_json(args.level), "json"

    if cmd == "reduce":
        return conjugation.gap_reduce(args.point, args.level).to_json(), "json"

    if cmd == "count":
        report = counting.classify_counts(
            args.point, args.l, args.delta, args.level, args.m
        )
        return report.to_json(include_matrices=args.matrices), "json"

    if cmd == "harness":
        lo, hi = _levels(args.levels)
        config = harness.HarnessConfig(
            lemma=args.lemma,
            n_lo=lo,
            n_hi=hi,
            delta=args.delta,
            samples=args.samples,
            seed=args.seed,
            jobs=args.jobs,
            l1=args.l1,
        )
        result = harness.lemma_harness(config)
        if args.format == "csv":
            return result.to_csv(), "raw"
        return result.to_json(), "json"

    if cmd == "hecke":
        table = hecke.coset_reps_delta(args.l, args.level, args.m)
        payload = table.to_json()
        payload["count_invariance"] = hecke.coset_count_invariance(
            args.l, args.level, args.m
        ).to_json()
        if args.check_conjugation is not None:
            payload["conjugation"] = hecke.conjugation_invariance(
                args.check_conjugation, args.l, args.level, args.m
            ).to_json()
        return payload, "json"

    if cmd == "exponent":
        report = bounds.theorem_pipeline(args.case, nu=args.nu)
        if args.format == "text":
            text = report.render_text()
            if args.nu is not None:
                text += f"exponent at nu = {args.nu}: {report.exponent_at(args.nu)}\n"
            return text, "raw"
        payload = report.to_json()
        if args.nu is not None:
            payload["exponent_at_nu"] = str(report.exponent_at(args.nu))
        return payload, "json"

    if cmd == "smooth":
        count = bounds.smooth_count(args.x, args.level)
        return {"x": args.x, "level": args.level, "count": count}, "json"

    raise CuspnormError(f"unhandled command {cmd!r}")


# options whose value may start with '-': a negative x, -sigma, delta or nu
_SIGNED_VALUE_FLAGS = ("--point", "--check-conjugation", "--delta", "--nu")


def _attach_signed_values(argv: list[str]) -> list[str]:
    """argv with `--point X,Y` written as `--point=X,Y`, and likewise for every
    _SIGNED_VALUE_FLAGS entry and abbreviation (`--p` on), since argparse reads
    a separate value that starts with '-' as an option."""
    out = []
    for tok in argv:
        prev = out[-1] if out else ""
        if len(prev) > 2 and any(flag.startswith(prev) for flag in _SIGNED_VALUE_FLAGS):
            tok = f"{out.pop()}={tok}"
        out.append(tok)
    return out


def _error(exc: Exception) -> dict:
    return {"error": {"type": type(exc).__name__, "message": str(exc)}}


def run(argv: list[str]) -> CommandResult:
    """Parse and execute one invocation; domain errors become exit code 1,
    and so does an --out file that cannot be opened for writing, which is
    found before the command runs and reported on stdout."""
    parser = build_parser()
    args = parser.parse_args(_attach_signed_values(argv))
    out = getattr(args, "out", None)
    started = time.monotonic()
    if out:
        try:
            open(out, "a").close()
        except OSError as exc:
            return CommandResult(args.command, {}, _error(exc), 1, time.monotonic() - started)
    try:
        default_dps()  # a malformed CUSPNORM_PRECISION fails every command alike
        payload, fmt = _dispatch(args)
        inputs = _inputs(args)
        code = 0
    except (CuspnormError, ValueError, ZeroDivisionError) as exc:
        payload = _error(exc)
        inputs = {}
        fmt = "json"
        code = 1
    elapsed = time.monotonic() - started
    return CommandResult(args.command, inputs, payload, code, elapsed, fmt, out)


def main(argv: list[str] | None = None) -> int:
    result = run(sys.argv[1:] if argv is None else argv)
    text = result.rendered()
    if result.out:
        with open(result.out, "w") as fh:
            fh.write(text)
        print(f"wrote {result.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    print(f"[{result.command}] {result.elapsed:.3f}s exit={result.exit_code}",
          file=sys.stderr)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
