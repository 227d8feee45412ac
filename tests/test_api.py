import hadforge

# The public names; adding or deleting one is an API change that edits this
# list on purpose.
PUBLIC = [
    "BlockAssignment",
    "ComplexMatrix",
    "CyclotomicInteger",
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
    "OrderMismatchError",
    "RootExponent",
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
    "sqrt_as_cyclotomic",
    "standard_diagonal",
    "tensor",
    "theorem1_build",
    "to_complex",
    "trivial_family",
]


def test_public_names_are_pinned():
    assert sorted(hadforge.__all__) == PUBLIC
    assert all(hasattr(hadforge, name) for name in PUBLIC)
