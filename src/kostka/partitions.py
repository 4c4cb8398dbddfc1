"""Integer partitions, compositions, and the dominance order.

Partitions are canonical tuples: weakly decreasing, positive parts, no zeros.
Compositions are tuples of non-negative parts; two compositions are the same
composition when they agree up to trailing zeros, so the constructor strips them.
Rows and part indices are 1-based in every public docstring and error message.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable, Sequence

Parts = tuple[int, ...]

ROW = "row"
COLUMN = "column"


class SizeMismatchError(ValueError):
    """Comparison or filling was asked across two different total sizes."""


class NotComparableError(ValueError):
    """A dominance chain was requested between incomparable partitions."""


def partition(parts: Iterable[int]) -> Parts:
    """Canonicalize to a partition tuple; trailing zeros are dropped.

    Raises ValueError unless the remaining parts are positive and weakly decreasing.
    """
    out = list(parts)
    while out and out[-1] == 0:
        out.pop()
    for k, p in enumerate(out):
        if isinstance(p, bool) or not isinstance(p, int) or p <= 0:
            raise ValueError(f"partition parts must be positive integers, got {p!r} at position {k + 1}")
        if k and out[k - 1] < p:
            raise ValueError(f"partition parts must be weakly decreasing, got {out[k - 1]} before {p}")
    return tuple(out)


def _reject_bad_part(parts: Sequence) -> None:
    """Raise ValueError naming the first part that is not a non-negative integer; bools are not parts."""
    for k, p in enumerate(parts):
        if isinstance(p, bool) or not isinstance(p, int) or p < 0:
            raise ValueError(f"composition parts must be non-negative integers, got {p!r} at position {k + 1}")


def composition(parts: Iterable[int]) -> Parts:
    """Canonicalize to a composition tuple: non-negative parts, trailing zeros dropped."""
    out = parts if type(parts) is tuple else tuple(parts)
    for p in out:
        # plain ints pass here; bools, negatives and non-integers raise in the exact check,
        # which accepts int subclasses such as IntEnum
        if type(p) is not int or p < 0:
            _reject_bad_part(out)
    end = len(out)
    while end and out[end - 1] == 0:
        end -= 1
    return out if end == len(out) else out[:end]


def part_at(parts: Sequence[int], k: int) -> int:
    """The k-th part, 1-based, zero beyond the stored length."""
    return parts[k - 1] if 1 <= k <= len(parts) else 0


def dominates(a: Sequence[int], b: Sequence[int]) -> bool:
    """True iff every prefix sum of a is >= the matching prefix sum of b.

    Both arguments may be partitions or compositions; they must have equal totals,
    otherwise the two live in different universes and SizeMismatchError is raised.
    """
    a = composition(a)
    b = composition(b)
    if sum(a) != sum(b):
        raise SizeMismatchError(f"dominance compares equal totals only, got {sum(a)} vs {sum(b)}")
    # zip stops at the shorter one's end, where its prefix sum is the total: no sum of
    # the longer one can pass that later, nor fall back once it has reached it
    for sa, sb in zip(accumulate(a), accumulate(b)):
        if sa < sb:
            return False
    return True


def partitions_of(n: int, max_part: int | None = None) -> list[Parts]:
    """All partitions of n in reverse-lexicographic order, largest part first.

    partitions_of(4) starts with (4,) and ends with (1, 1, 1, 1). Nothing is kept between calls.
    Each step drops the trailing 1s, lowers the last part left by one and refills greedily.
    """
    if n < 0:
        raise ValueError(f"cannot partition a negative total {n}")
    if not n:
        return [()]
    top = n if max_part is None else min(max_part, n)
    if top <= 0:
        return []
    rest, parts, out = n, [], []
    while True:
        copies, left = divmod(rest, top)
        parts += [top] * copies
        if left:
            parts.append(left)
        out.append(tuple(parts))
        rest = 1  # the unit the last part above 1 gives up, then one per trailing 1
        while parts and parts[-1] == 1:
            parts.pop()
            rest += 1
        if not parts:
            return out
        top = parts[-1] - 1
        parts[-1] = top


def conjugate(p: Sequence[int]) -> Parts:
    """Transpose of the Young diagram: column lengths become row lengths."""
    p = partition(p)
    if not p:
        return ()
    return tuple(sum(1 for q in p if q > c) for c in range(p[0]))


class _Value:
    """Base of the value classes: frozen, and compared, hashed and shown as Name(field=value, ...).

    A subclass names its fields in _fields, in constructor order, and its __init__
    stores them with _set, since assignment and deletion raise AttributeError. An
    instance equals only an instance of its own class with equal fields.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copies and pickles rebuild through __init__, which takes the fields in order
        return type(self), self._values()

    def _frozen(self, name: str, *value) -> None:
        raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r} of {type(self).__name__}")

    __setattr__ = __delattr__ = _frozen


class CoverMove(_Value):
    """One box move realizing a dominance cover, with 1-based row indices.

    kind "row": one box drops from row i to row i+1 (j is always i+1).
    kind "column": the last box of row i drops to row j, landing one column left;
    every row strictly between holds exactly mu_i - 1 boxes.
    """

    __slots__ = _fields = ("kind", "i", "j")
    kind: str
    i: int
    j: int

    def __init__(self, kind: str, i: int, j: int) -> None:
        self._set(kind, i, j)

    def describe(self) -> str:
        if self.kind == ROW:
            return f"row-move i={self.i}"
        return f"column-move i={self.i}, j={self.j}"


def apply_move(mu: Sequence[int], move: CoverMove) -> Parts:
    """Apply a cover move to mu, validating its preconditions; returns a partition."""
    return partition(full_transfer_chain(mu, move)[-1])


def _cover_moves(mu: Parts, i: int) -> list[CoverMove]:
    """The moves that take one unit off part i of mu to reach a partition mu covers.

    Each part mu_i >= 2 gives at most one cover (Brylawski 1973). With j the first
    index past the run of parts equal to mu_i - 1 after i, an empty run and
    mu_{i+1} <= mu_i - 2 give the row move i -> i+1, and mu_j = mu_i - 2 the column
    move i -> j. Both hold when j = i+1 and mu_j = mu_i - 2; the row move comes first.
    """
    top = part_at(mu, i)
    if top < 2:
        return []
    j = i + 1
    while part_at(mu, j) == top - 1:
        j += 1
    fits = {ROW: j == i + 1 and part_at(mu, j) <= top - 2, COLUMN: part_at(mu, j) == top - 2}
    return [CoverMove(kind, i, j) for kind, fit in fits.items() if fit]


def covers(mu: Sequence[int]) -> list[tuple[CoverMove, Parts]]:
    """Partitions covered by mu in dominance order, each paired with its box move.

    Each part gives at most one cover (see _cover_moves); distinct parts give
    distinct targets, so none repeats, and the move of both kinds is annotated as
    the row move. Listed by decreasing i: reverse-lex order of target.
    """
    mu = partition(mu)
    # parts of 1 come last and move nowhere
    moves = [found[0] for i in range(len(mu) - mu.count(1), 0, -1) if (found := _cover_moves(mu, i))]
    return [(move, apply_move(mu, move)) for move in moves]


def cover_chain(mu: Sequence[int], nu: Sequence[int]) -> list[Parts]:
    """A saturated chain mu = p0, p1, ..., pk = nu with each step a dominance cover.

    Greedy and deterministic: at every step the reverse-lexicographically first
    cover still dominating nu is taken, and each step is re-verified to dominate nu.
    Raises SizeMismatchError for different totals and NotComparableError when mu
    does not dominate nu.
    """
    mu = partition(mu)
    nu = partition(nu)
    if sum(mu) != sum(nu):
        raise SizeMismatchError(f"chain endpoints need equal totals, got {sum(mu)} vs {sum(nu)}")
    if not dominates(mu, nu):
        raise NotComparableError(f"{mu} does not dominate {nu}")
    chain = [mu]
    current = mu
    while current != nu:
        for _, target in covers(current):
            if dominates(target, nu):
                current = target
                chain.append(target)
                break
        else:
            raise RuntimeError(f"no cover of {current} dominates {nu}; dominance poset broken")
    return chain


def full_transfer_chain(mu: Sequence[int], move: CoverMove) -> list[Parts]:
    """The whole chain mu, intermediates, target for a cover move, padded to equal width.

    The move must be one that covers lists for mu, or the column move of both
    kinds; anything else raises ValueError. Each step is one transfer_target: a row
    move i -> i+1 is one step, and a column move i -> j passes the unit on from
    part k to part k+1 for k = i, ..., j-1, so its k-th intermediate is mu with
    one unit moved from part i to part k.
    """
    mu = partition(mu)
    if move not in _cover_moves(mu, move.i):
        raise ValueError(f"{move} is not a cover move of {display_parts(mu)}")
    i, j = move.i, move.j
    chain = [mu]
    for k in range(i, j):
        chain.append(transfer_target(chain[-1], k))
    width = max(len(mu), j)
    return [step + (0,) * (width - len(step)) for step in chain]


def transfer_target(mu: Sequence[int], index: int) -> Parts:
    """The content after moving one unit from part index to part index+1.

    Requires index >= 1 and mu_index > mu_{index+1}, so the result differs from mu
    and keeps non-negative parts; adjacent_transfer_index recognizes the pair.
    """
    mu = composition(mu)
    if index < 1:
        raise ValueError(f"index must be at least 1, got {index}")
    n = len(mu)
    source = mu[index - 1] if index <= n else 0
    target = mu[index] if index < n else 0
    if source <= target:
        raise ValueError(f"transfer needs part {index} to exceed part {index + 1}, got {source} and {target}")
    # source > 0 puts index within mu; the last part stays positive, being mu's last part or the one just moved
    return mu[: index - 1] + (source - 1, target + 1) + mu[index + 1 :]


def adjacent_transfer_index(before: Sequence[int], after: Sequence[int]) -> int | None:
    """Row r if after equals before with one unit moved from part r to part r+1.

    Requires the source part to exceed the target part before the move; returns
    None when the pair is not such a transfer.
    """
    a = composition(before)
    b = composition(after)
    if sum(a) != sum(b):
        return None
    diffs = [k for k in range(1, max(len(a), len(b)) + 1) if part_at(a, k) != part_at(b, k)]
    if len(diffs) != 2:
        return None
    r, s = diffs
    # equal totals make part s gain exactly the unit part r lost
    if s != r + 1 or part_at(b, r) != part_at(a, r) - 1 or part_at(a, r) <= part_at(a, s):
        return None
    return r


def parse_parts(text: str) -> Parts:
    """Parse the comma grammar INT ("," INT)*; empty string and "0" mean the empty sequence."""
    text = text.strip()
    if text in ("", "0"):
        return ()
    try:
        return tuple(int(token) for token in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


def format_parts(parts: Sequence[int]) -> str:
    """Inverse of parse_parts; the empty sequence prints as "0"."""
    return ",".join(str(p) for p in parts) if parts else "0"


def display_parts(parts: Sequence[int]) -> str:
    """Parenthesized human-readable form, e.g. (2,2); the empty sequence is ()."""
    return "(" + ",".join(str(p) for p in parts) + ")"
