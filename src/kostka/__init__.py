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
    Tableau,
    enumerate_ssyt,
    is_semistandard,
    iter_semistandard,
    semistandard_words,
    word_content,
)
from .transfer_classes import (
    ClassSignature,
    count_in_class,
    masked_word,
    signature_census,
    signature_of,
)
from .verify import (
    Report,
    bounded_content_family,
    brute_force_covers,
    canonical_box_skew_shapes,
    content_census,
    run_standard_suites,
    verify_adjacent_transfer,
    verify_bounded_counts,
    verify_covers,
    verify_monotonicity,
    verify_oracle_equivalence,
    verify_permutation_invariance,
    verify_positivity,
    verify_transfer_chains,
)

__version__ = "0.1.0"
