"""The public namespace of the package."""

import importlib

import toriccode


def test_every_export_resolves():
    missing = [name for name in toriccode.__all__ if not hasattr(toriccode, name)]
    assert not missing
    assert len(set(toriccode.__all__)) == len(toriccode.__all__)


REMOVED = {
    "toriccode.clutter": ["incidence", "IncidenceMatrix", "difference_matrix"],
    "toriccode.finite_field": ["FieldElement"],
    "toriccode.vanishing_ideal": ["vanishing_defect", "binomial_in_IX", "hilbert_IA"],
}
REMOVED_MEMBERS = {
    ("toriccode.finite_field", "FiniteField"): [
        "element", "zero", "one", "primitive", "units", "div", "pow_int",
        "to_index", "from_index",
    ],
    ("toriccode.vanishing_ideal", "HomogPoly"): [
        "term_string", "is_binomial", "support_disjoint", "degree",
    ],
}


def test_removed_names_are_gone():
    """The scalar field API, vanishing_defect, the HomogPoly helpers, the
    incidence and difference matrices, binomial_in_IX and hilbert_IA are
    neither exported nor defined; a ToricSet has no gens and a ReducedGB
    no standard_counts."""
    for module, names in REMOVED.items():
        for name in names:
            assert name not in toriccode.__all__ and not hasattr(toriccode, name)
            assert not hasattr(importlib.import_module(module), name), (module, name)
    for (module, cls), names in REMOVED_MEMBERS.items():
        owner = getattr(importlib.import_module(module), cls)
        assert not [name for name in names if hasattr(owner, name)], (module, cls)
    X = toriccode.projective_torus(3, 4)
    F = toriccode.field_from_q(4)
    assert not hasattr(X, "gens") and not hasattr(F, "_primitive_enc")
    assert not hasattr(toriccode.interpolate_gb(X), "standard_counts")
