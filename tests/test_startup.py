"""What `import kostka` loads, and the names the package exports.

Counting needs only partitions, counting, tableaux and engine, so those load with
the package; the verifiers and the class analysis load on first use of one of
their names. Every CLI call and benchmark child is a fresh interpreter, so what
the import leaves out is start-up time saved on each of them.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kostka

SRC = str(Path(kostka.__file__).parents[1])
# every public name of the package, the lazily loaded ones and the submodules included
PUBLIC = set(
    """
    COLUMN Cell ClassSignature CoverMove KostkaMatrix NotComparableError Parts ROW Report SizeMismatchError
    SkewShape adjacent_transfer_index apply_move bounded_content_family brute_force_covers
    canonical_box_skew_shapes composition conjugate content_census count_bounded_compositions count_in_class
    counting cover_chain covers display_parts dominates engine enumerate_ssyt format_parts full_transfer_chain
    is_semistandard iter_semistandard kostka_matrix kostka_number masked_word parse_parts part_at partition
    partitions partitions_of run_standard_suites semistandard_words signature_census signature_of
    split_by_first_part tableaux transfer_classes transfer_target verify verify_adjacent_transfer
    verify_bounded_counts verify_covers verify_monotonicity verify_oracle_equivalence
    verify_permutation_invariance verify_positivity verify_transfer_chains word_content
    """.split()
)
LAZY = {
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


def fresh(code: str):
    """Run code in a new interpreter that imports kostka from this checkout; returns the JSON it prints."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def newly_loaded(statement: str) -> set[str]:
    """The modules that statement adds to sys.modules in a new interpreter."""
    code = f"import json, sys\nbefore = set(sys.modules)\n{statement}\nprint(json.dumps(sorted(set(sys.modules) - before)))"
    return set(fresh(code))


def test_import_loads_only_the_counting_core():
    loaded = newly_loaded("import kostka")
    assert {"kostka.partitions", "kostka.counting", "kostka.tableaux", "kostka.engine"} <= loaded
    assert not loaded & {"dataclasses", "inspect", "csv", "kostka.verify", "kostka.transfer_classes"}


def test_cli_import_leaves_concurrent_futures_unloaded():
    assert not newly_loaded("import kostka.cli") & {"concurrent.futures", "logging", "dataclasses", "inspect", "csv"}


def test_lazy_names_load_their_module_on_first_use():
    code = """
import json, sys, kostka
steps = []
for name in ("signature_of", "run_standard_suites"):
    value = getattr(kostka, name)
    steps.append([name in vars(kostka), "kostka.transfer_classes" in sys.modules, "kostka.verify" in sys.modules])
steps.append([kostka.signature_of is kostka.transfer_classes.signature_of, kostka.Report is kostka.verify.Report])
print(json.dumps(steps))
"""
    # transfer_classes loads alone; verify, which imports it, loads next; each name is bound once resolved
    assert fresh(code) == [[True, True, False], [True, True, True], [True, True]]


@pytest.mark.parametrize("module", LAZY)
def test_each_lazy_name_is_its_modules_object(module):
    home = importlib.import_module(f"kostka.{module}")
    assert getattr(kostka, module) is home
    for name in LAZY[module]:
        assert getattr(kostka, name) is getattr(home, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'kostka' has no attribute 'no_such_name'"):
        kostka.no_such_name
    assert not hasattr(kostka, "verify_nothing")
    with pytest.raises(ImportError):
        exec("from kostka import no_such_name", {})


def test_dir_and_star_import_give_every_public_name():
    code = """
import json, kostka
public = lambda names: sorted(n for n in names if not n.startswith("_"))
# dir first: the star import resolves every lazy name, which binds it in the package
listed = public(dir(kostka))
star = {}
exec("from kostka import *", star)
print(json.dumps([listed, public(star)]))
"""
    listed, starred = fresh(code)
    assert set(listed) == set(starred) == PUBLIC
