"""Kostka numbers, the dominance order on partitions, and exhaustive verification.

The library computes Kostka numbers for straight and skew Young diagrams with
arbitrary composition contents, models the dominance order (comparison, covers,
saturated chains), analyses tableau classes fixed away from an adjacent entry
pair, and ships brute-force-backed verification suites that check every claim
exhaustively at desk scale. The `kostka` console script exposes all of it.
"""

from .counting import count_bounded_compositions, split_by_first_part
from .engine import KostkaMatrix, kostka_matrix, kostka_number
from .partitions import (
    COLUMN,
    ROW,
    CoverMove,
    NotComparableError,
    Parts,
    SizeMismatchError,
    adjacent_transfer_index,
    apply_move,
    composition,
    conjugate,
    cover_chain,
    covers,
    display_parts,
    dominates,
    format_parts,
    full_transfer_chain,
    parse_parts,
    part_at,
    partition,
    partitions_of,
    transfer_target,
)
from .tableaux import (
    Cell,
    SkewShape,
    enumerate_ssyt,
    is_semistandard,
    iter_semistandard,
    semistandard_words,
    word_content,
)

# The verifiers and the class analysis load on first use (PEP 562), so that counting
# alone never compiles them; kostka.verify and kostka.transfer_classes load the same way.
_LAZY = {
    "transfer_classes": ("ClassSignature", "count_in_class", "masked_word", "signature_census", "signature_of"),
    "verify": (
        "Report",
        "bounded_content_family",
        "brute_force_covers",
        "canonical_box_skew_shapes",
        "content_census",
        "run_standard_suites",
        "verify_adjacent_transfer",
        "verify_bounded_counts",
        "verify_covers",
        "verify_monotonicity",
        "verify_oracle_equivalence",
        "verify_permutation_invariance",
        "verify_positivity",
        "verify_transfer_chains",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}
# every public name, the lazy ones and the submodules included, as when all of them loaded eagerly
__all__ = sorted({name for name in globals() if not name.startswith("_")} | _LAZY.keys() | _HOME.keys())


def __getattr__(name: str):
    from importlib import import_module

    if name in _LAZY:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | __all__)

__version__ = "0.1.0"
