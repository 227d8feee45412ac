import importlib
import importlib.util
import sys
from pathlib import Path

import hadforge

# The public names; adding or deleting one is an API change that edits this
# list on purpose.
PUBLIC = [
    "BlockAssignment",
    "ComplexMatrix",
    "DefectReport",
    "EquivalenceMove",
    "ExponentMatrix",
    "HaagerupSet",
    "IdentityBasis",
    "IndeterminateRankError",
    "MUPreconditionError",
    "Matrix",
    "MonomializationError",
    "MubSet",
    "NotHadamardFormError",
    "SearchFinding",
    "SearchResult",
    "apply_equivalence",
    "assignment_search",
    "butson_min_root",
    "complete_mub_set",
    "compose_moves",
    "cyclotomic_polynomial",
    "defect",
    "dephase",
    "dump_matrix",
    "equivalence_search_small",
    "exact_product_equals",
    "fingerprint",
    "fourier",
    "haagerup_set",
    "inequivalent_by_invariants",
    "invert_move",
    "is_butson",
    "is_dephased",
    "is_isolated",
    "is_unitary",
    "load_matrix",
    "matrix_from_json",
    "matrix_to_json",
    "random_move",
    "standard_diagonal",
    "tensor",
    "theorem1_build",
    "to_complex",
    "trivial_family",
]


def test_public_names_are_pinned():
    assert sorted(hadforge.__all__) == PUBLIC
    assert all(hasattr(hadforge, name) for name in PUBLIC)


def load_perfbench(name, monkeypatch):
    """A module of perfbench/ (not a package), loaded from its path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_entry_points_exist(monkeypatch):
    # every function the benchmark traces, and every workload's inputs and
    # warm-up (cyclotomic_polynomial, analyze.defect in exact mode, ...)
    tracing = load_perfbench("tracing", monkeypatch)
    for boundary in tracing.BOUNDARIES:
        module = importlib.import_module(boundary.module)
        assert callable(getattr(module, boundary.attr, None)), boundary.name
    workloads = load_perfbench("workloads", monkeypatch)
    assert workloads.WORKLOADS
    for name in workloads.WORKLOADS:
        items = workloads.build(name, 0)
        assert items and all(callable(item.run) for item in items), name
