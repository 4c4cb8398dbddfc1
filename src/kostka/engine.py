"""Fast Kostka numbers by a forward horizontal-strip walk, plus whole matrices.

In a semistandard filling the cells holding any one entry form a horizontal
strip, so the fillings of outer/inner with a given content are the chains
inner = s_0 <= s_1 <= ... <= s_k = outer in which s_i / s_(i-1) is a horizontal
strip of content_i cells (the Pieri rule). The walk keeps a frontier mapping
each shape to the number of chains that reach it, adds the content's parts in
the order given, and reads the count off at outer. It is iterative, so long
contents cannot exhaust the stack, and purely combinatorial on purpose: it must
not shortcut through the dominance characterization it is later used to
verify, and it never reorders the content, whose symmetry the
permutation-invariance suite checks. Each shape in the walk is packed into one
int, a fixed number of bits per row, so a step adds to an int rather than
rebuilding a tuple. Nothing is kept between calls unless the caller passes a
walk memo. It is opaque and holds one record per inner and outer shape: one
strip table per part size, and the last content walked with the frontier after
each of its prefixes. A call walks its whole content, resuming after the
longest prefix it shares with the last on its record, and reads the count off
the frontier; a call that repeats the last content only reads. Records are
updated in place, so a memo serves one thread at a time. One _sweep builds
the rows of kostka_matrix and of the monotonicity suite. Inside a bound, the
count at a shape does not depend on the bound, so it walks each content once,
inside the union of its shapes' outers and only up to the content's trailing
1s, then adds the 1s of every content in one one-cell sweep whose frontier
holds, per shape, one int with a slot per content.
"""

from __future__ import annotations

import json
import math
import sys
from itertools import zip_longest
from typing import Iterator, MutableMapping, Sequence

from .partitions import Parts, _Value, format_parts, partition, partitions_of
from .tableaux import SkewShape

# a walk memo: (inner, outer) -> its record [tables, steps, frontiers]. tables[part] maps a packed shape to the
# shapes its strips of part cells reach inside outer; steps is the last nonzero content walked from inner and
# frontiers[k] the frontier after its first k parts. _sweep walks a record of this form inside the union of its
# shapes' outers, each later content up to its trailing 1s, then sweeps the 1s of every content through tables[1]
Walks = MutableMapping[tuple, list]


def _pack(parts: Parts, w: int) -> int:
    """One int holding parts, row r in bits [r*w, (r+1)*w)."""
    packed = 0
    for part in reversed(parts):
        packed = packed << w | part
    return packed


def _strips(shape: int, size: int, outer: Parts, w: int) -> list[int]:
    """Every shape within outer that adds a horizontal strip of size cells to shape.

    Shapes are packed w bits a row, and no row of outer is as long as 2**w. A
    strip holds at most one cell per column, so row r may grow up to the old
    length of row r-1; below the first empty row nothing can. The rows with room
    are filled one after another, breadth first; each takes at least what the
    rows below it cannot hold, so every partial strip completes and the last row
    with room takes whatever is left. One cell goes to any row with room.
    """
    mask = (1 << w) - 1
    rooms = []
    tail = 0
    above = outer[0]
    rest = shape
    shift = 0
    for bound in outer:
        row = rest & mask
        cap = bound if bound < above else above
        if cap > row:
            rooms.append((shift, cap - row))
            tail += cap - row
        if not row:
            break
        above = row
        rest >>= w
        shift += w
    if size > tail:
        return []
    if size == 1:
        return [shape + (1 << shift) for shift, _ in rooms]
    grown = [(shape, size)]
    last = rooms.pop()[0]
    for shift, room in rooms:
        tail -= room
        partial = []
        for nu, left in grown:
            high = room if room < left else left
            if left > tail:
                low = left - tail
            else:
                partial.append((nu, left))
                low = 1
            for d in range(low, high + 1):
                partial.append((nu + (d << shift), left - d))
        grown = partial
    return [nu + (left << last) for nu, left in grown]


def _kostka(outer: Parts, inner: Parts, content: Parts, memo: Walks | None) -> int:
    if not outer:
        return 1
    if memo is not None:
        steps = tuple([size for size in content if size]) if 0 in content else content
        return _resume(outer, inner, steps, memo)
    w = outer[0].bit_length()
    mask = (1 << w) - 1
    frontier = {_pack(inner, w): 1}
    for size in content:
        if not size:
            continue
        grown: dict[int, int] = {}
        if size == 1:
            # one cell goes to any addable corner, skipping the strip enumerator. Standard
            # contents take thousands of these steps: in-process on 2 CPUs, the 3,060 queries
            # of perfbench's query_stream (seed 7, reps 0-2) took 0.7-1.0 s with this branch
            # and 1.4-1.7 s without, p99 4-6 ms against 10-14 ms
            for shape, count in frontier.items():
                above = outer[0]
                rest = shape
                cell = 1
                for bound in outer:
                    row = rest & mask
                    if row < above and row < bound:
                        nu = shape + cell
                        grown[nu] = grown.get(nu, 0) + count
                    if not row:
                        break
                    above = row
                    rest >>= w
                    cell <<= w
        else:
            for shape, count in frontier.items():
                for nu in _strips(shape, size, outer, w):
                    grown[nu] = grown.get(nu, 0) + count
        frontier = grown
    return frontier.get(_pack(outer, w), 0)


def _resume(outer: Parts, inner: Parts, steps: Parts, memo: Walks) -> int:
    """_kostka's count of the nonzero parts steps, walked on the record of inner and outer."""
    w = outer[0].bit_length()
    record = memo.get((inner, outer))
    if record is None:
        record = memo[inner, outer] = [{}, (), [{_pack(inner, w): 1}]]
    return _walk(record, steps, outer, w).get(_pack(outer, w), 0)


def _walk(record: list, steps: Parts, bound: Parts, w: int) -> dict[int, int]:
    """The frontier inside bound after the nonzero parts steps, resuming after the prefix they share with the last."""
    tables, done, frontiers = record
    if steps != done:
        k = 0
        while k < len(done) and k < len(steps) and done[k] == steps[k]:
            k += 1
        del frontiers[k + 1:]
        for part in steps[k:]:
            frontiers.append(_step(frontiers[-1], part, tables, bound, w))
        record[1] = steps
    return frontiers[-1]


def _step(frontier: dict[int, int], part: int, tables: dict, bound: Parts, w: int) -> dict[int, int]:
    """The frontier after a strip of part cells, through tables[part], which gains the strips of the shapes it lacks."""
    table = tables.setdefault(part, {})
    grown: dict[int, int] = {}
    for shape, count in frontier.items():
        targets = table.get(shape)
        if targets is None:
            targets = table[shape] = _strips(shape, part, bound, w)
        for nu in targets:
            grown[nu] = grown.get(nu, 0) + count
    return grown


def kostka_number(
    shape: SkewShape | Sequence[int],
    content: Sequence[int],
    cache: Walks | None = None,
) -> int:
    """Count the semistandard fillings of shape with the given content.

    shape may be a SkewShape or a bare partition (meaning a straight shape).
    content is a composition; trailing zeros are irrelevant and stripped. The
    total must equal the cell count. cache, when given, is an opaque walk memo
    (see the module docstring) that calls can share, one thread at a time. Calls
    on one inner and outer shape share one walk: a call resumes after the content
    prefix it shares with the last, and one that repeats the last content reads
    its count off the kept frontier.
    """
    if not isinstance(shape, SkewShape):
        shape = SkewShape(shape)
    return _kostka(shape.outer, shape.inner, shape.check_content(content), cache)


def _json_array(items: list[str], indent: int) -> str:
    """A JSON array of encoded items, laid out as json.dumps(..., indent=2) lays one out indent spaces deep."""
    if not items:
        return "[]"
    pad = "\n" + " " * (indent + 2)
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * indent + "]"


class KostkaMatrix(_Value):
    """The full table K(lam, mu) over all partitions of n, reverse-lexicographic order.

    Entries are non-negative ints. Each *_lines method renders a row with one %-format string, built once per
    call; "%d" % True is "1" where str(True) is "True", so to_json is the to_json_dict dumped only for plain ints.
    Equality, hash and repr read n, partitions and values, not the private position index.
    """

    __slots__ = ("n", "partitions", "values", "_index")
    _fields = ("n", "partitions", "values")
    n: int
    partitions: tuple[Parts, ...]
    values: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, partitions: tuple[Parts, ...], values: tuple[tuple[int, ...], ...]) -> None:
        self._set(n, partitions, values)
        object.__setattr__(self, "_index", {p: k for k, p in enumerate(partitions)})

    def value(self, lam: Sequence[int], mu: Sequence[int]) -> int:
        return self.values[self._index[partition(lam)]][self._index[partition(mu)]]

    def text_lines(self) -> Iterator[str]:
        """The lines of to_text, header first, then one per row, each built only when asked for."""
        labels = [format_parts(p) for p in self.partitions]
        # entries are non-negative, so a column's longest number is its largest
        widths = [max(map(len, labels), default=0)]
        widths += [max(len(label), len(str(max(column)))) for label, column in zip(labels, zip(*self.values))]
        yield ("  ".join([f"%{width}s" for width in widths]) % ("", *labels)).rstrip()
        fmt = "  ".join([f"%{widths[0]}s", *[f"%{width}d" for width in widths[1:]]])
        for label, row in zip(labels, self.values):
            yield fmt % (label, *row)

    def to_text(self) -> str:
        """Partitions label rows and columns; cells right-aligned, two spaces apart; no final newline."""
        return "\n".join(self.text_lines())

    def csv_lines(self) -> Iterator[str]:
        """The lines of to_csv without their newlines, header first, then one per row, each built only when asked for.

        The bytes are csv.writer's: a label holds only digits and commas, so it is
        quoted exactly when it holds a comma, and a header with no labels is "".
        """
        labels = [f'"{label}"' if "," in label else label for label in map(format_parts, self.partitions)]
        yield ",".join(["", *labels]) if labels else '""'
        fmt = "%s" + ",%d" * len(self.partitions)
        for label, row in zip(labels, self.values):
            yield fmt % (label, *row)

    def to_csv(self) -> str:
        """Header row and column hold the partitions in the comma grammar."""
        return "\n".join(self.csv_lines()) + "\n"

    def json_lines(self) -> Iterator[str]:
        """The text of to_json in whole lines, built one matrix row at a time.

        The first string runs up to the matrix's opening bracket, each matrix
        row's lines (one per entry) come as one string, and the last string
        closes the document; joined with newlines they are to_json.
        """
        labels = _json_array([json.dumps(format_parts(p)) for p in self.partitions], 2)
        head = f'{{\n  "n": {json.dumps(self.n)},\n  "partitions": {labels},\n  "matrix": ['
        if not self.values:
            yield head + "]\n}"
            return
        yield head
        # decimal digits need no escaping
        fmt = "    " + _json_array(['"%d"'] * len(self.partitions), 4)
        for row in self.values[:-1]:
            yield fmt % row + ","
        yield fmt % self.values[-1]
        yield "  ]\n}"

    def to_json(self) -> str:
        """Counts serialize as decimal strings so arbitrary precision survives parsers.

        The text is json.dumps(self.to_json_dict(), indent=2), joined from json_lines.
        """
        return "\n".join(self.json_lines())

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "partitions": [format_parts(p) for p in self.partitions],
            "matrix": [[str(v) for v in row] for row in self.values],
        }


def _sweep(shapes: Sequence[SkewShape], contents: Sequence[Parts]) -> list[tuple[int, ...]]:
    """Each shape's counts over contents, for shapes of one inner shape and size and that size's partitions_of.

    The first content, the one-part one, asks kostka_number once per shape without a memo: that gives
    its count, and these are the only calls a tracer of kostka_number sees. Each later content
    mu = (rho, 1^k) is walked once, inside the union of the outers and only up to rho, and its
    frontier goes into mu's slot of a frontier |rho| cells past the inner shape, one int per shape
    with a fixed-width slot per content. One one-cell sweep adds the trailing 1s of every content at
    once. Standardization maps the fillings of a shape one-to-one into its standard fillings, size
    being its cells. A straight shape lam has f^lam <= isqrt(size!) of those, since the squares of
    the f^lam sum to size! (RSK), and a skew shape at most size!. So a straight group's slot is one
    64-bit word up to size 34, and a skew group's one word up to size 20 and two from 21.
    """
    first = [kostka_number(shape, contents[0]) for shape in shapes]
    # slot 0 is the last content, (1^size): one with more 1s starts its sweep smaller, so small shapes hold short ints
    later = contents[:0:-1]
    if not later:
        return [(count,) for count in first]
    size, inner = shapes[0].size, shapes[0].inner
    union = tuple(map(max, zip_longest(*[shape.outer for shape in shapes], fillvalue=0)))
    w = union[0].bit_length()
    tables: dict = {}
    record = [tables, (), [{_pack(inner, w): 1}]]
    bound = math.factorial(size) if inner else math.isqrt(math.factorial(size))
    words = -(-bound.bit_length() // 64)
    step = 8 * words
    nbytes = step * len(later)
    # levels[s] maps each shape s cells past inner to the (byte offset, count) pairs injected there: content
    # mu = (rho, 1^k) with |rho| = s puts its frontier at rho into its slot, and the one-cell sweep adds the k 1s
    levels: list[dict[int, list[int]]] = [{} for _ in range(size + 1)]
    for offset, mu in zip(range(0, nbytes, step), later):
        ones = mu.count(1)
        level = levels[size - ones]
        for shape, count in _walk(record, mu[: len(mu) - ones], union, w).items():
            level.setdefault(shape, []).extend((offset, count))
    frontier: dict[int, int] = {}
    for cells, level in enumerate(levels):
        if cells:
            frontier = _step(frontier, 1, tables, union, w)
        for shape, pairs in level.items():
            block = bytearray(nbytes)
            for k in range(0, len(pairs), 2):
                block[pairs[k] : pairs[k] + step] = pairs[k + 1].to_bytes(step, "little")
            frontier[shape] = frontier.get(shape, 0) + int.from_bytes(block, "little")
        level.clear()
    rows = []
    for shape, count in zip(shapes, first):
        # native 64-bit words, most significant first: the slots in content order, each with its high word first
        cells = memoryview(frontier.get(_pack(shape.outer, w), 0).to_bytes(nbytes, sys.byteorder)).cast("Q")
        if sys.byteorder == "little":
            cells = cells[::-1]
        values = cells[::words].tolist()
        for k in range(1, words):
            values = [high << 64 | low if high else low for high, low in zip(values, cells[k::words])]
        rows.append((count, *values))
    return rows


def kostka_matrix(n: int) -> KostkaMatrix:
    """K(lam, mu) for all partition pairs of n; rows are shapes, columns contents.

    The rows come off one _sweep over the straight shapes of n, as the monotonicity suite's rows do. In-process
    on 2 CPUs, five runs each, n = 16 took 0.018-0.029 s, n = 20 0.10-0.16 s and n = 24 0.68-0.99 s with 77 MB
    peak RSS. Each row renders with one format string (see KostkaMatrix).
    """
    parts = tuple(partitions_of(n))
    return KostkaMatrix(n, parts, tuple(_sweep([SkewShape(lam) for lam in parts], parts)))
