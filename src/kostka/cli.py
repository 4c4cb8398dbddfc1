"""Command-line frontend: computation, matrices, covers, chains, classes, verification.

Exit codes: 0 success, 1 verification found violations, 2 malformed input (the
error message names the offending flag). All output goes to the standard streams.

Each subcommand handler reads the parsed arguments and returns one payload dict,
rendered as JSON, and the lines of its line-oriented format (text, or csv for
matrix); main() alone prints one or the other, adds the subcommand first in each
JSON payload as "command", and prints each CliError as "error: FLAG: MESSAGE".
matrix returns KostkaMatrix's text, csv or json lines, a row at a time, with an
empty payload. Only classes and verify load the class analysis and the verifiers.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Iterable, Sequence

from .engine import kostka_matrix, kostka_number
from .partitions import (
    NotComparableError,
    Parts,
    SizeMismatchError,
    cover_chain,
    covers,
    display_parts,
    format_parts,
    parse_parts,
    partition,
    transfer_target,
)
from .tableaux import SkewShape, semistandard_words

Output = tuple[dict, Iterable[str]]
# kostka_matrix time grows about 2.5x per +2 in n. On 2 CPUs, three runs per format, n=20 took 0.17-0.22 s with peak
# RSS 23 MB for text, csv and json alike; n=22 0.47-0.65 s with 39 MB; n=24 0.88-1.55 s with 73 MB (os.wait4)
MAX_MATRIX_N = 24
# classes enumerates K(shape, mu) + K(shape, nu) fillings; two-row shapes are slowest per filling. Near 2,000
# fillings, on 2 CPUs, (10,10) took 3-5 s and (12,12) 9-25 s, most of it in the enumerator's dead ends, which
# the cap does not bound: a (14,14) request with 1,818 fillings ran past 2 minutes
MAX_CLASSES_FILLINGS = 2000
# verify time grows about 6x per +1 in max_n; on 2 CPUs (median of 3 runs) max_n=7 took 1.2 s, max_n=8 7.6 s and 47 MB peak RSS
MAX_VERIFY_N = 8


class CliError(Exception):
    """Malformed input, raised as CliError(flag, message); main() prints "error: FLAG: MESSAGE" and exits 2."""

    def __str__(self) -> str:
        return ": ".join(self.args)


def _check_size(flag: str, n: int, cap: int) -> None:
    if n < 0:
        raise CliError(flag, "a non-negative integer is required")
    if n > cap:
        raise CliError(flag, f"at most {cap} is supported, got {n}")


def _parse(flag: str, text: str, kind: Callable[[Sequence[int]], Parts] = partition) -> Parts:
    try:
        return kind(parse_parts(text))
    except ValueError as e:
        raise CliError(flag, str(e)) from None


def _parse_shape(args: argparse.Namespace) -> SkewShape:
    outer = _parse("--shape", args.shape)
    inner = _parse("--skew-inner", args.skew_inner) if args.skew_inner is not None else ()
    try:
        return SkewShape(outer, inner)
    except ValueError as e:
        raise CliError("--skew-inner", str(e)) from None


def _compute(args: argparse.Namespace) -> Output:
    shape = _parse_shape(args)
    content = _parse("--content", args.content, shape.check_content)
    value = kostka_number(shape, content)
    payload = {
        "shape": format_parts(shape.outer),
        "inner": format_parts(shape.inner),
        "content": format_parts(content),
        "count": str(value),
    }
    return payload, [str(value)]


def _matrix(args: argparse.Namespace) -> Output:
    _check_size("--n", args.n, MAX_MATRIX_N)
    matrix = kostka_matrix(args.n)
    # the table of strings is most of a large matrix's memory, so every format goes out a row at a time
    return {}, getattr(matrix, f"{args.fmt}_lines")()


def _move_json(move) -> dict:
    return {"kind": move.kind, "i": move.i, "j": move.j}


def _covers(args: argparse.Namespace) -> Output:
    mu = _parse("--mu", args.mu)
    pairs = covers(mu)
    payload = {
        "mu": format_parts(mu),
        "covers": [{"target": format_parts(t), "move": _move_json(m)} for m, t in pairs],
    }
    return payload, [f"{display_parts(target)}  [{move.describe()}]" for move, target in pairs]


def _chain(args: argparse.Namespace) -> Output:
    mu = _parse("--mu", args.mu)
    nu = _parse("--nu", args.nu)
    try:
        chain = cover_chain(mu, nu)
    except (SizeMismatchError, NotComparableError) as e:
        raise CliError("--nu", str(e)) from None
    moves = []
    for before, after in zip(chain, chain[1:]):
        moves.append(next(m for m, t in covers(before) if t == after))
    payload = {
        "mu": format_parts(mu),
        "nu": format_parts(nu),
        "chain": [format_parts(p) for p in chain],
        "moves": [_move_json(m) for m in moves],
    }
    lines = [display_parts(chain[0])]
    lines += [f"{display_parts(step)}  [{move.describe()}]" for move, step in zip(moves, chain[1:])]
    return payload, lines


def _classes(args: argparse.Namespace) -> Output:
    from .transfer_classes import ClassSignature, count_in_class, masked_word

    shape = _parse_shape(args)
    mu = _parse("--mu", args.mu, shape.check_content)
    index = args.index
    if index < 1:
        raise CliError("--index", "a positive integer is required")
    try:
        nu = transfer_target(mu, index)
    except ValueError as e:
        raise CliError("--index", str(e)) from None
    fillings = kostka_number(shape, mu) + kostka_number(shape, nu)
    if fillings > MAX_CLASSES_FILLINGS:
        raise CliError("--mu", f"at most {MAX_CLASSES_FILLINGS} fillings of mu and nu are supported, got {fillings}")
    # mu and nu both total the cell count, so as caps they fix the content
    mu_keys = [masked_word(word, index) for word in semistandard_words(shape, mu)]
    nu_keys = [masked_word(word, index) for word in semistandard_words(shape, nu)]
    # within one shape the skeleton fixes the rest of the signature, so it orders the classes alone
    signatures = [ClassSignature.from_key(shape, key, index) for key in {*mu_keys, *nu_keys}]
    signatures.sort(key=lambda s: s.skeleton)
    mu_total, nu_total = len(mu_keys), len(nu_keys)
    lines = [
        f"shape={format_parts(shape.outer)} inner={format_parts(shape.inner)} "
        f"mu={format_parts(mu)} index={index} nu={format_parts(nu)}"
    ]
    classes = []
    for k, sig in enumerate(signatures, start=1):
        mu_count, nu_count = count_in_class(sig, mu), count_in_class(sig, nu)
        skeleton = sig.render_skeleton().splitlines()
        singles = ",".join(str(x) for x in sig.row_counts)
        lines.append(
            f"class {k}: paired-columns={sig.paired_columns} row-singles={singles} "
            f"mu-count={mu_count} nu-count={nu_count}"
        )
        lines += [f"  {line}" for line in skeleton]
        classes.append(
            {
                "skeleton": skeleton,
                "paired_columns": sig.paired_columns,
                "row_counts": list(sig.row_counts),
                "mu_count": str(mu_count),
                "nu_count": str(nu_count),
            }
        )
    lines.append(f"total: mu-count={mu_total} nu-count={nu_total}")
    payload = {
        "shape": format_parts(shape.outer),
        "inner": format_parts(shape.inner),
        "mu": format_parts(mu),
        "index": index,
        "nu": format_parts(nu),
        "classes": classes,
        "mu_total": str(mu_total),
        "nu_total": str(nu_total),
    }
    return payload, lines


def _verify(args: argparse.Namespace) -> Output:
    # loaded here, not with the module: concurrent.futures brings logging, which no other command needs
    from concurrent.futures import BrokenExecutor

    from .verify import run_standard_suites

    _check_size("--max-n", args.max_n, MAX_VERIFY_N)
    if args.parallelism < 1:
        raise CliError("--parallelism", "a positive integer is required")
    try:
        reports = run_standard_suites(args.max_n, args.parallelism)
    except BrokenExecutor:
        raise CliError("--parallelism", "a worker process died; rerun with --parallelism 1") from None
    total_violations = sum(len(r.violations) for r in reports)
    status = "pass" if total_violations == 0 else "FAIL"
    lines = [report.to_text() for report in reports]
    lines.append(
        f"total: suites={len(reports)} checked={sum(r.checked for r in reports)} "
        f"violations={total_violations} {status}"
    )
    payload = {
        "max_n": args.max_n,
        "reports": [r.to_json_dict() for r in reports],
        "violations": total_violations,
    }
    return payload, lines


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kostka", description="Kostka numbers and the dominance order")
    sub = parser.add_subparsers(dest="command", required=True)

    # --format goes last, so that it ends every usage line
    def finish(p: argparse.ArgumentParser, run: Callable[[argparse.Namespace], Output], formats=("text", "json")):
        p.add_argument("--format", dest="fmt", choices=formats, default="text")
        p.set_defaults(run=run)

    p = sub.add_parser("compute", help="count the semistandard fillings of a shape with a content")
    p.add_argument("--shape", required=True, help="outer partition, e.g. 3,1")
    p.add_argument("--skew-inner", help="inner partition for a skew shape")
    p.add_argument("--content", required=True, help="content composition, e.g. 1,1,1,1")
    finish(p, _compute)

    p = sub.add_parser("matrix", help="full Kostka matrix over the partitions of n")
    p.add_argument("--n", type=int, required=True)
    finish(p, _matrix, ("text", "csv", "json"))

    p = sub.add_parser("covers", help="dominance covers of a partition with box-move annotations")
    p.add_argument("--mu", required=True, help="partition, e.g. 3,1")
    finish(p, _covers)

    p = sub.add_parser("chain", help="saturated dominance chain from one partition down to another")
    p.add_argument("--mu", required=True, help="upper partition")
    p.add_argument("--nu", required=True, help="lower partition")
    finish(p, _chain)

    p = sub.add_parser("classes", help="tableau classes fixed away from an adjacent entry pair")
    p.add_argument("--shape", required=True, help="outer partition")
    p.add_argument("--skew-inner", help="inner partition for a skew shape")
    p.add_argument("--mu", required=True, help="content composition")
    p.add_argument("--index", type=int, required=True, help="entry pair index i (pairs i with i+1)")
    finish(p, _classes)

    p = sub.add_parser("verify", help="run the exhaustive verification suites")
    p.add_argument("--max-n", dest="max_n", type=int, default=6)
    p.add_argument("--parallelism", type=int, default=1)
    finish(p, _verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        code = e.code
        return code if isinstance(code, int) else 0 if code is None else 2
    try:
        payload, lines = args.run(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    # matrix renders its own JSON into lines and leaves the payload empty
    if args.fmt == "json" and payload:
        lines = [json.dumps({"command": args.command, **payload}, indent=2)]
    for line in lines:
        print(line)
    # only verify reports violations; any found means exit 1
    return 1 if payload.get("violations") else 0


if __name__ == "__main__":
    raise SystemExit(main())
