"""Command-line frontend: computation, matrices, covers, chains, classes, verification.

Exit codes: 0 success, 1 verification found violations, 2 malformed input (the
error message names the offending flag). All output goes to the standard streams.

Each subcommand handler reads the parsed arguments and returns one payload dict,
rendered as JSON, and the lines of its line-oriented format (text, or csv for
matrix); main() alone prints one or the other.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import BrokenExecutor
from typing import Callable, Sequence

from .engine import kostka_matrix, kostka_number
from .partitions import (
    NotComparableError,
    Parts,
    SizeMismatchError,
    composition,
    cover_chain,
    covers,
    display_parts,
    format_parts,
    parse_parts,
    partition,
    transfer_target,
)
from .tableaux import SkewShape, enumerate_ssyt
from .transfer_classes import count_in_class, signature_census
from .verify import run_standard_suites

Output = tuple[dict, list[str]]
# kostka_matrix time grows about 3x per +2 in n; on 2 CPUs n=20 took 11 s and 52 MB peak RSS, n=22 28-35 s and 108 MB
MAX_MATRIX_N = 24
# classes enumerates K(shape, mu) + K(shape, nu) fillings; two-row shapes are slowest per filling, and near
# 2,000 fillings (10,10) took 5 s, (12,12) 23 s on 2 CPUs; dead ends of the enumerator are not bounded by it
MAX_CLASSES_FILLINGS = 2000
MAX_VERIFY_N = 8  # verify time grows about 6x per +1 in max_n; max_n=7 took 6 s, max_n=8 37 s, 92 MB peak RSS on 2 CPUs


class CliError(Exception):
    """Malformed input; carries the offending flag for the exit-2 message."""

    def __init__(self, flag: str, message: str) -> None:
        super().__init__(f"{flag}: {message}")
        self.flag = flag
        self.message = message


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
    content = _parse("--content", args.content, composition)
    try:
        value = kostka_number(shape, content)
    except SizeMismatchError as e:
        raise CliError("--content", str(e)) from None
    payload = {
        "command": "compute",
        "shape": format_parts(shape.outer),
        "inner": format_parts(shape.inner),
        "content": format_parts(content),
        "count": str(value),
    }
    return payload, [str(value)]


def _matrix_text(labels: list[str], values: Sequence[Sequence[int]]) -> list[str]:
    rows = [[""] + labels]
    for label, row in zip(labels, values):
        rows.append([label] + [str(v) for v in row])
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    return ["  ".join(cell.rjust(widths[c]) for c, cell in enumerate(row)).rstrip() for row in rows]


def _matrix(args: argparse.Namespace) -> Output:
    _check_size("--n", args.n, MAX_MATRIX_N)
    matrix = kostka_matrix(args.n)
    if args.fmt == "csv":
        return matrix.to_json_dict(), matrix.to_csv().splitlines()
    labels = [format_parts(p) for p in matrix.partitions]
    return matrix.to_json_dict(), _matrix_text(labels, matrix.values)


def _move_json(move) -> dict:
    return {"kind": move.kind, "i": move.i, "j": move.j}


def _covers(args: argparse.Namespace) -> Output:
    mu = _parse("--mu", args.mu)
    pairs = covers(mu)
    payload = {
        "command": "covers",
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
        "command": "chain",
        "mu": format_parts(mu),
        "nu": format_parts(nu),
        "chain": [format_parts(p) for p in chain],
        "moves": [_move_json(m) for m in moves],
    }
    lines = [display_parts(chain[0])]
    lines += [f"{display_parts(step)}  [{move.describe()}]" for move, step in zip(moves, chain[1:])]
    return payload, lines


def _classes(args: argparse.Namespace) -> Output:
    shape = _parse_shape(args)
    mu = _parse("--mu", args.mu, composition)
    if sum(mu) != shape.size:
        raise CliError("--mu", f"content total {sum(mu)} does not fill {shape.size} cells")
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
    mu_classes = signature_census(shape, enumerate_ssyt(shape, mu), index)
    nu_classes = signature_census(shape, enumerate_ssyt(shape, nu), index)
    signatures = sorted(set(mu_classes) | set(nu_classes), key=lambda s: (s.skeleton, s.available))
    mu_total = sum(mu_classes.values())
    nu_total = sum(nu_classes.values())
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
        "command": "classes",
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
        "command": "verify",
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
        print(f"error: {e.flag}: {e.message}", file=sys.stderr)
        return 2
    if args.fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)
    # only verify reports violations; any found means exit 1
    return 1 if payload.get("violations") else 0


if __name__ == "__main__":
    raise SystemExit(main())
