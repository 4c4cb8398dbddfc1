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
walk memo. It is opaque and holds one record per inner shape and outer size.
Inside a bound, the count at a shape does not depend on the bound, so one walk
inside the union of several outer shapes serves each of them. A record keeps
the union of the outers asked so far, each outer packed w = size.bit_length()
bits a row, one strip table per part size built inside the union, and the last
content walked with the frontier after each of its prefixes. An outer that
widens the union clears the tables and the walk. A call walks its whole content,
resuming after the longest prefix it shares with the last, and reads its outer
off the frontier; a call that repeats the last content only reads. Records are
updated in place, so a memo serves one thread at a time. kostka_matrix asks
its first column entry by entry, walks each later column only up to its
trailing 1s, and adds the 1s of every column in one one-cell sweep whose
frontier holds, per shape, one int with a fixed-width slot per column.
"""

from __future__ import annotations

import json
import math
import sys
from itertools import zip_longest
from typing import Iterator, MutableMapping, Sequence

from .partitions import Parts, _Value, format_parts, partition, partitions_of
from .tableaux import SkewShape

# a walk memo: (inner, outer size) -> its record [union, packed, tables, steps, frontiers]. union is the union
# of the outers asked so far and packed maps each of them to its packed form; tables[part] maps a packed shape to
# the shapes its strips of part cells reach inside union; steps is the last nonzero content walked from inner and
# frontiers[k] the frontier after its first k parts. Every outer of one size shares the walk and its tables, and
# kostka_matrix walks each later column up to its trailing 1s, then sweeps the 1s of every column through tables[1]
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
    """_kostka's count of the nonzero parts steps, walked inside the union of the outers on its record."""
    size = sum(outer)
    record = memo.get((inner, size))
    w = size.bit_length()
    if record is None:
        record = memo[inner, size] = [(), {}, {}, (), [{_pack(inner, w) if inner else 0: 1}]]
    union, packed, _, _, frontiers = record
    end = packed.get(outer)
    if end is None:
        end = packed[outer] = _pack(outer, w)
        wider = tuple(map(max, zip_longest(union, outer, fillvalue=0)))
        if wider != union:
            # the tables lack the strips into the new cells, and the walk's frontiers the shapes they reach
            record[0], record[2], record[3] = wider, {}, ()
            del frontiers[1:]
    return _walk(record, steps, w).get(end, 0)


def _walk(record: list, steps: Parts, w: int) -> dict[int, int]:
    """The frontier after the nonzero parts steps on record, resuming after the prefix they share with the last walk."""
    union, _, tables, done, frontiers = record
    if steps != done:
        k = 0
        while k < len(done) and k < len(steps) and done[k] == steps[k]:
            k += 1
        del frontiers[k + 1:]
        for part in steps[k:]:
            frontiers.append(_step(frontiers[-1], part, tables, union, w))
        record[3] = steps
    return frontiers[-1]


def _step(frontier: dict[int, int], part: int, tables: dict, union: Parts, w: int) -> dict[int, int]:
    """The frontier after a strip of part cells, through tables[part], which gains the strips of the shapes it lacks."""
    table = tables.setdefault(part, {})
    grown: dict[int, int] = {}
    for shape, count in frontier.items():
        targets = table.get(shape)
        if targets is None:
            targets = table[shape] = _strips(shape, part, union, w)
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
    on one inner shape and outer size share one walk inside the union of their
    outers: a call resumes after the content prefix it shares with the last, and
    one that repeats the last content reads its count off the kept frontier.
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


def kostka_matrix(n: int) -> KostkaMatrix:
    """K(lam, mu) for all partition pairs of n; rows are shapes, columns contents.

    The matrix is walked on one walk memo. The first column asks kostka_number
    once per row, which fills the memo's union of outer shapes. Each later
    column mu = (rho, 1^k) is walked on the memo only up to rho, in its own
    order, and its frontier there goes into mu's slot of a shared frontier at
    |rho| cells: one int per shape, with a fixed-width field per column. One
    one-cell sweep from 0 to n cells then adds the trailing 1s of every column
    at once, and each row's int is cut back into its counts. A count is at
    most the number of words with its content, so at most n!, which sets the
    slot width (one 64-bit word up to n = 20, two from 21 to 34): no slot
    carries into the next. In-process on 2 CPUs, under varying load, n = 16
    took 0.017-0.030 s, n = 20 0.11-0.16 s and n = 24 0.94-1.14 s. The
    matrix renders each row with one format string (see KostkaMatrix).
    """
    parts = tuple(partitions_of(n))
    if n < 2:
        return KostkaMatrix(n=n, partitions=parts, values=((1,),))
    memo: Walks = {}
    first = [kostka_number(lam, parts[0], cache=memo) for lam in parts]
    # the first column widened the union to every row's outer, so no later walk clears the record's tables
    record = memo[(), n]
    union, packed, tables = record[:3]
    w = n.bit_length()
    words = -(-math.factorial(n).bit_length() // 64)
    step = 8 * words
    # slot 0 is the last column, (1^n): a column with more 1s starts its sweep smaller, so small shapes hold short ints
    later = parts[:0:-1]
    nbytes = step * len(later)
    # levels[s] maps each shape of s cells to the (byte offset, count) pairs injected there: column mu = (rho, 1^k)
    # with |rho| = s puts its frontier at rho into its slot, and the one-cell sweep adds the k trailing 1s
    levels: list[dict[int, list[int]]] = [{} for _ in range(n + 1)]
    for slot, mu in enumerate(later):
        ones = mu.count(1)
        level = levels[n - ones]
        offset = step * slot
        for shape, count in _walk(record, mu[: len(mu) - ones], w).items():
            level.setdefault(shape, []).extend((offset, count))
    frontier: dict[int, int] = {}
    for size, level in enumerate(levels):
        if size:
            frontier = _step(frontier, 1, tables, union, w)
        for shape, pairs in level.items():
            block = bytearray(nbytes)
            for k in range(0, len(pairs), 2):
                block[pairs[k] : pairs[k] + step] = pairs[k + 1].to_bytes(step, "little")
            frontier[shape] = frontier.get(shape, 0) + int.from_bytes(block, "little")
        level.clear()
    rows = []
    for lam, count in zip(parts, first):
        # native 64-bit words, most significant first: the slots in column order, each with its high word first
        cells = memoryview(frontier.pop(packed[lam], 0).to_bytes(nbytes, sys.byteorder)).cast("Q")
        if sys.byteorder == "little":
            cells = cells[::-1]
        values = cells[::words].tolist()
        for k in range(1, words):
            values = [high << 64 | low if high else low for high, low in zip(values, cells[k::words])]
        rows.append((count, *values))
    return KostkaMatrix(n=n, partitions=parts, values=tuple(rows))
