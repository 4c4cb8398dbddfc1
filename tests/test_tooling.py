"""Checks on the source itself.

The names the benchmark tracer wraps must stay in the package: perfbench/tracer.py
skips a name it cannot find, and the metrics of that name then go missing from a
traced run. These checks fail first instead, as they do for a change that moves one
of the suite totals pinned in perfbench/workloads.py. Every function reads each of its
parameters, so no argument is accepted and silently ignored. And the package
imports only the standard library and itself, so its runtime needs nothing else, and
never dataclasses, whose imports would slow every start-up.
No function calls itself, so deep inputs cannot exhaust the stack, and no cache
grows without bound in a long-lived process. The counting kernel never consults
dominance, the order whose link to positivity the verifiers check it against.
Every verifier suite has a test that injects a fault into kostka.verify and runs
it, so each suite is seen to fail.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import kostka.verify

ROOT = Path(__file__).resolve().parents[1]


def load_perfbench(name):
    # tracer.py and workloads.py import only the standard library, so each loads without the rest of perfbench
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = load_perfbench("tracer")
    for layer, names in tracer.LAYERS.items():
        home = importlib.import_module(f"kostka.{layer}")
        for name in names:
            owner = home
            for attr in name.split("."):
                assert hasattr(owner, attr), f"kostka.{layer}.{name} is gone"
                owner = getattr(owner, attr)
    suites = importlib.import_module("kostka.verify")
    for name in tracer.SUITES:
        assert callable(getattr(suites, name, None)), f"kostka.verify.{name} is gone"


def test_pinned_suite_totals_hold():
    # the benchmark refuses a run whose totals differ from these pins; a change that moves one fails here first
    workloads = load_perfbench("workloads")
    reports = kostka.run_standard_suites(workloads.VERIFY_MAX_N)
    assert [(r.name, r.checked) for r in reports] == list(workloads.VERIFY_SUITES)
    assert all(r.ok for r in reports)


def test_traced_parameters_remain():
    assert "cache" in inspect.signature(kostka.kostka_number).parameters
    assert "parallelism" in inspect.signature(kostka.run_standard_suites).parameters


def test_every_parameter_is_read():
    unread = []
    for path in sorted((ROOT / "src" / "kostka").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            name = getattr(node, "name", "<lambda>")
            unread += [f"{path.name}:{node.lineno} {name}({p.arg})" for p in params if p.arg not in read]
    assert not unread, "parameters never read: " + ", ".join(unread)


def package_trees():
    for path in sorted((ROOT / "src" / "kostka").glob("*.py")):
        yield path, ast.parse(path.read_text(), str(path))


def package_imports():
    """(file:line, top-level module) for each absolute import in the package."""
    for path, tree in package_trees():
        # ast.walk reaches imports inside functions too
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for top in sorted({name.partition(".")[0] for name in names}):
                yield f"{path.name}:{node.lineno}", top


def test_imports_only_the_standard_library():
    outside = [f"{at} {top}" for at, top in package_imports() if top not in sys.stdlib_module_names | {"kostka"}]
    assert not outside, "imports outside the standard library: " + ", ".join(outside)


def test_no_module_imports_dataclasses():
    # dataclasses loads inspect, ast, dis and tokenize: several ms of start-up in every fresh interpreter
    found = [at for at, top in package_imports() if top == "dataclasses"]
    assert not found, "dataclasses imported at: " + ", ".join(found)


def test_no_function_calls_itself():
    # a recursive walk runs out of stack on deep inputs; the loops need none
    recursive = []
    for path, tree in package_trees():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if any(
                isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == node.name
                for call in ast.walk(node)
            ):
                recursive.append(f"{path.name}:{node.lineno} {node.name}")
    assert not recursive, "functions calling themselves: " + ", ".join(recursive)


def test_every_cache_is_bounded():
    # functools.cache and lru_cache(maxsize=None) keep every result for the life of the process
    unbounded = []
    for path, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools" and "cache" in {a.name for a in node.names}:
                unbounded.append(f"{path.name}:{node.lineno} functools.cache")
            elif isinstance(node, ast.Attribute) and node.attr == "cache" and getattr(node.value, "id", None) == "functools":
                unbounded.append(f"{path.name}:{node.lineno} functools.cache")
            elif isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "lru_cache":
                sizes = [k.value for k in node.keywords if k.arg == "maxsize"] + node.args[:1]
                if any(not (isinstance(size, ast.Constant) and type(size.value) is int) for size in sizes):
                    unbounded.append(f"{path.name}:{node.lineno} lru_cache without a finite maxsize")
    assert not unbounded, "unbounded caches: " + ", ".join(unbounded)


def test_internal_paths_build_no_tableaux():
    # the CLI, the verifiers and the engine call semistandard_words and masked_word directly; these four
    # wrappers are for API callers, and signature_of re-checks every word it is given
    tableau_names = {"enumerate_ssyt", "iter_semistandard", "signature_of", "signature_census"}
    used = []
    for name in ("cli.py", "verify.py", "engine.py"):
        path = ROOT / "src" / "kostka" / name
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.alias):
                names = {node.name, node.asname}
            else:
                continue
            used += [f"{name}:{node.lineno} {n}" for n in sorted(names & tableau_names)]
    assert not used, "tableaux built on an internal path: " + ", ".join(used)


def test_kernel_never_consults_dominance():
    # positivity iff dominance is a claim the verifiers check on the kernel's counts, so the kernel must not use it
    path = ROOT / "src" / "kostka" / "engine.py"
    used = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.alias):
            names = {node.name.rpartition(".")[2], node.asname}
        elif isinstance(node, ast.Call):
            names = {getattr(node.func, "id", getattr(node.func, "attr", None))}
        else:
            continue
        used += [f"engine.py:{node.lineno} {n}" for n in sorted(names & {"dominates", "covers"})]
    assert not used, "the kernel consults dominance: " + ", ".join(used)


def test_every_suite_has_a_fault_test():
    # a suite is fault-tested when one test both rebinds a name in kostka.verify and calls the suite
    suites = {name for name in vars(kostka.verify) if name.startswith("verify_")}
    path = ROOT / "tests" / "test_verify.py"
    fault_tested = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not (isinstance(node, ast.FunctionDef) and node.name.startswith("test_")):
            continue
        calls = [n for n in ast.walk(node) if isinstance(n, ast.Call)]
        injects = any(
            isinstance(call.func, ast.Attribute)
            and call.func.attr == "setattr"
            and getattr(call.func.value, "id", None) == "monkeypatch"
            and call.args
            and ast.unparse(call.args[0]) == "kostka.verify"
            for call in calls
        )
        if injects:
            fault_tested |= {getattr(call.func, "id", getattr(call.func, "attr", None)) for call in calls}
    missing = sorted(suites - fault_tested)
    assert not missing, "suites with no fault-injection test: " + ", ".join(missing)
