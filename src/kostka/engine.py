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
walk memo. It is opaque and holds one record per outer shape: small int ids
for the packed shapes, one strip table per strip size keyed by id, the last
walk from each inner, and the number of one-cell chains from each shape up to
outer, which is f^(outer/shape), the count of its standard fillings. With a
memo the walk goes forward only up to the content's trailing run of 1s,
resuming after the longest prefix it shares with the inner's last walk, and
counts the run backward: the answer is the sum over the frontier of each
shape's count times its chains. Interning is not atomic: a memo serves one
thread at a time.
"""

from __future__ import annotations

import json
from typing import Iterator, MutableMapping, Sequence

from .partitions import Parts, _Value, format_parts, partition, partitions_of
from .tableaux import SkewShape

# a walk memo: outer -> its record (ids, shapes, tables, walks, below). ids gives each packed shape a small int,
# 0 for outer, and shapes maps it back; tables[size] maps an id to the ids its strips of size cells reach; walks
# maps a packed inner to the last steps walked from it, trailing 1s left off, and the frontier after each of
# their prefixes; below maps an id to its one-cell chains up to outer. Ids are per outer, not per walk, since
# every inner on one outer shares its tables and chain counts
Walks = MutableMapping[tuple, tuple]


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
    w = outer[0].bit_length()
    if memo is not None:
        steps = tuple([size for size in content if size]) if 0 in content else content
        return _resume(outer, _pack(inner, w) if inner else 0, steps, w, memo)
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


def _intern(record: tuple, sid: int, size: int, outer: Parts, w: int) -> list[int]:
    """Store and return the ids that shape sid's strips of size cells reach, interning each new shape in record."""
    ids, shapes, tables = record[:3]
    targets = tables[size][sid] = []
    for nu in _strips(shapes[sid], size, outer, w):
        targets.append(ids.setdefault(nu, len(shapes)))
        if targets[-1] == len(shapes):
            shapes.append(nu)
    return targets


def _resume(outer: Parts, start: int, steps: Parts, w: int, memo: Walks) -> int:
    """_kostka's count of the nonzero parts steps on outer's record: forward up to their trailing 1s, then backward."""
    record = memo.get(outer)
    if record is None:
        end = _pack(outer, w)
        record = memo[outer] = ({end: 0}, [end], [{} for _ in range(sum(outer) + 1)], {}, {0: 1})
    ids, shapes, tables, walks, below = record
    if start not in ids:
        ids[start] = len(shapes)
        shapes.append(start)
    head = len(steps)
    while head and steps[head - 1] == 1:
        head -= 1
    done, frontiers = walks.get(start) or ((), [{ids[start]: 1}])
    k = 0
    while k < len(done) and k < head and done[k] == steps[k]:
        k += 1
    del frontiers[k + 1:]
    frontier = frontiers[k]
    for size in steps[k:head]:
        table = tables[size]
        grown: dict[int, int] = {}
        for sid, count in frontier.items():
            targets = table.get(sid)
            if targets is None:
                targets = _intern(record, sid, size, outer, w)
            for t in targets:
                grown[t] = grown.get(t, 0) + count
        frontier = grown
        frontiers.append(grown)
    walks[start] = (steps[:head], frontiers)
    # below[sid] counts the one-cell chains from shape sid up to outer; a missing one is filled after its successors
    ones = tables[1]
    total = 0
    for sid, count in frontier.items():
        if sid not in below:
            stack = [sid]
            while stack:
                top = stack[-1]
                targets = ones.get(top)
                if targets is None:
                    targets = _intern(record, top, 1, outer, w)
                missing = [t for t in targets if t not in below]
                if missing:
                    stack += missing
                else:
                    below[top] = sum([below[t] for t in targets])
                    stack.pop()
        total += count * below[sid]
    return total


def kostka_number(
    shape: SkewShape | Sequence[int],
    content: Sequence[int],
    cache: Walks | None = None,
) -> int:
    """Count the semistandard fillings of shape with the given content.

    shape may be a SkewShape or a bare partition (meaning a straight shape).
    content is a composition; trailing zeros are irrelevant and stripped. The
    total must equal the cell count. cache, when given, is an opaque walk memo
    (see the module docstring) that calls sharing outer shapes can share, one
    thread at a time; a call resumes after the content prefix it shares with the
    last and counts its trailing 1s backward, from chain counts kept per outer.
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

    Every entry is one kostka_number call with a walk memo. Each row gets a
    fresh one, since its one record is keyed by the row's outer shape. The memo
    stays because a row's reverse-lexicographic contents share prefixes, reach
    the same strips again and again, and end in runs of 1s it counts backward:
    in-process on 2 CPUs, n = 16 took 0.36-0.57 s with it and 1.35-1.95 s
    without, n = 18 1.03-1.17 s against 5.3-6.5 s.
    """
    parts = tuple(partitions_of(n))
    values = []
    for shape in map(SkewShape, parts):
        memo = {}
        values.append(tuple(kostka_number(shape, mu, cache=memo) for mu in parts))
    return KostkaMatrix(n=n, partitions=parts, values=tuple(values))
