"""The package's public surface: each module's ``__all__``, re-exported once."""

import tracewitt
from tracewitt import congruences, matrices, newton, rng, witt

PUBLIC = [
    "CharacterTable",
    "CongruenceReport",
    "CongruenceRow",
    "IntMatrix",
    "InvalidTraceSequenceError",
    "PrimePower",
    "SplitMix64",
    "__version__",
    "char_poly_coeffs",
    "character_check_bound",
    "check_character",
    "check_exterior_congruence",
    "check_matrix_congruences",
    "check_trace_sequence",
    "coeffs_to_witt",
    "companion_matrix",
    "compound_matrix",
    "divisors",
    "elementary_to_traces",
    "exterior_via_compound",
    "ghost_from_witt",
    "integrality_check",
    "is_prime",
    "lemma6_verify",
    "mat_mul",
    "mat_pow",
    "prime_power_split",
    "random_matrix",
    "synthesize",
    "trace_sequence",
    "traces_to_elementary",
    "witt_from_ghost",
    "witt_to_coeffs",
]
MODULES = (congruences, matrices, newton, rng, witt)


def test_all_is_the_pinned_surface():
    # a name added to some module's __all__ joins the package API, so it must be added here too
    assert sorted(tracewitt.__all__) == PUBLIC
    assert len(tracewitt.__all__) == len(PUBLIC)


def test_star_import_binds_exactly_the_surface():
    namespace: dict = {}
    exec("from tracewitt import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC


def test_each_name_is_its_defining_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(tracewitt, name) is getattr(module, name)
            assert getattr(module, name).__module__ == module.__name__
