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
its first column entry by entry, then walks each later column with one call
and reads every row off that walk's last frontier.
"""

from __future__ import annotations

import json
from itertools import zip_longest
from typing import Iterator, MutableMapping, Sequence

from .partitions import Parts, _Value, format_parts, partition, partitions_of
from .tableaux import SkewShape

# a walk memo: (inner, outer size) -> its record [union, packed, tables, steps, frontiers]. union is the union
# of the outers asked so far and packed maps each of them to its packed form; tables[part] maps a packed shape to
# the shapes its strips of part cells reach inside union; steps is the last nonzero content walked from inner and
# frontiers[k] the frontier after its first k parts. Every outer of one size shares the walk and its tables, and
# kostka_matrix reads every row of a later column off frontiers[-1] rather than asking each entry
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
    union, packed, tables, done, frontiers = record
    end = packed.get(outer)
    if end is None:
        end = packed[outer] = _pack(outer, w)
        wider = tuple(map(max, zip_longest(union, outer, fillvalue=0)))
        if wider != union:
            # the tables lack the strips into the new cells, and the walk's frontiers the shapes they reach
            union = record[0] = wider
            tables = record[2] = {}
            done = record[3] = ()
            del frontiers[1:]
    if steps != done:
        k = 0
        while k < len(done) and k < len(steps) and done[k] == steps[k]:
            k += 1
        del frontiers[k + 1:]
        frontier = frontiers[k]
        for part in steps[k:]:
            table = tables.setdefault(part, {})
            grown: dict[int, int] = {}
            for shape, count in frontier.items():
                targets = table.get(shape)
                if targets is None:
                    targets = table[shape] = _strips(shape, part, union, w)
                for nu in targets:
                    grown[nu] = grown.get(nu, 0) + count
            frontier = grown
            frontiers.append(grown)
        record[3] = steps
    return frontiers[-1].get(end, 0)


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

        def line(cells: list[str]) -> str:
            return "  ".join(map(str.rjust, cells, widths)).rstrip()

        yield line(["", *labels])
        for label, row in zip(labels, self.values):
            yield line([label, *map(str, row)])

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
        for label, row in zip(labels, self.values):
            yield ",".join([label, *map(str, row)])

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
        last = len(self.values) - 1
        for k, row in enumerate(self.values):
            # decimal digits need no escaping
            yield "    " + _json_array([f'"{v}"' for v in row], 4) + ("," if k < last else "")
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

    The matrix is walked on one walk memo, column by column. The first column
    asks kostka_number once per row, which fills the memo's union of outer
    shapes; each later column is one kostka_number call, a walk for every row
    at once that resumes from the reverse-lexicographic prefix it shares with
    the column before, and every row's count is read off that walk's last
    frontier. In-process on 2 CPUs, n = 16 took 0.032-0.036 s with the memo
    and 1.2 s without, n = 18 0.088-0.095 s against 4.6-4.9 s.
    """
    parts = tuple(partitions_of(n))
    shapes = [SkewShape(lam) for lam in parts]
    memo: Walks = {}
    columns = [[kostka_number(shape, parts[0], cache=memo) for shape in shapes]]
    for mu in parts[1:]:
        kostka_number(shapes[0], mu, cache=memo)
        # the first column widened the union to every row's outer, so no later call clears the frontier read here
        _, packed, _, _, frontiers = memo[(), n]
        frontier = frontiers[-1]
        columns.append([frontier.get(packed[lam], 0) for lam in parts])
    return KostkaMatrix(n=n, partitions=parts, values=tuple(zip(*columns)))
