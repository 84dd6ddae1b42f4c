"""The package's public surface: each module's ``__all__``, re-exported once."""

import re
import subprocess
import sys
from fractions import Fraction

import pytest

import tracewitt
from tracewitt import congruences, matrices, newton, rng, witt
from tracewitt.witt import factor

PUBLIC = [
    "CharacterTable",
    "CongruenceReport",
    "CongruenceRow",
    "IntMatrix",
    "InvalidTraceSequenceError",
    "SplitMix64",
    "__version__",
    "char_poly_coeffs",
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


F = tracewitt.IntMatrix.identity(2)

# (call on the value, parameter name, lower bound or None): every integer parameter of the API
INTEGER_PARAMETERS = {
    "IntMatrix-dim": (lambda v: tracewitt.IntMatrix(v, ()), "dim", 0),
    "identity-dim": (tracewitt.IntMatrix.identity, "dim", 0),
    "random_matrix-dim": (lambda v: tracewitt.random_matrix(v, 1, 0), "dim", 0),
    "random_matrix-bound": (lambda v: tracewitt.random_matrix(2, v, 0), "bound", 1),
    "random_matrix-seed": (lambda v: tracewitt.random_matrix(2, 1, v), "seed", None),
    "mat_pow-n": (lambda v: tracewitt.mat_pow(F, v), "n", 0),
    "compound_matrix-i": (lambda v: tracewitt.compound_matrix(F, v), "i", None),
    "trace_sequence-n_max": (lambda v: tracewitt.trace_sequence(F, v), "n_max", 0),
    "elementary_to_traces-n_max": (lambda v: tracewitt.elementary_to_traces([1], v), "n_max", 0),
    "coeffs_to_witt-n_max": (lambda v: tracewitt.coeffs_to_witt([1], v), "n_max", 0),
    "witt_to_coeffs-n_max": (lambda v: tracewitt.witt_to_coeffs([1], v), "n_max", 0),
    "ghost_from_witt-n_max": (lambda v: tracewitt.ghost_from_witt([1], v), "n_max", 0),
    "factor-n": (lambda v: next(factor(v)), "n", 1),
    "prime_power_split-n": (tracewitt.prime_power_split, "n", 1),
    "divisors-n": (tracewitt.divisors, "n", 1),
    "CharacterTable-order": (lambda v: tracewitt.CharacterTable(v, ()), "order", 1),
    "CharacterTable.value-exponent": (lambda v: tracewitt.CharacterTable(1, (1,)).value(v), "exponent", None),
    "lemma6_verify-k": (lambda v: tracewitt.lemma6_verify(3, 2, v), "k", 1),
    "check_matrix_congruences-k_max": (lambda v: tracewitt.check_matrix_congruences(F, 2, v), "k_max", 1),
    "check_exterior_congruence-k": (lambda v: tracewitt.check_exterior_congruence(F, 2, v), "k", 1),
    "exterior_via_compound-k": (lambda v: tracewitt.exterior_via_compound(F, 2, v), "k", 1),
    "SplitMix64-seed": (tracewitt.SplitMix64, "seed", None),
    "SplitMix64.below-n": (lambda v: tracewitt.SplitMix64(0).below(v), "n", 1),
    "SplitMix64.integer-lo": (lambda v: tracewitt.SplitMix64(0).integer(v, 3), "lo", None),
    "SplitMix64.integer-hi": (lambda v: tracewitt.SplitMix64(0).integer(0, v), "hi", None),
}


@pytest.mark.parametrize("call, name, low", INTEGER_PARAMETERS.values(), ids=INTEGER_PARAMETERS)
def test_integer_parameters_refuse_floats_bools_and_values_below_their_bound(call, name, low):
    # 2.0 and True would each pass for 2 and 1 in the arithmetic; both are refused by name
    for bad in (2.0, True):
        with pytest.raises(ValueError, match=rf"^{name} must be an int, got {re.escape(repr(bad))}$"):
            call(bad)
    if low is not None:
        with pytest.raises(ValueError, match=rf"^{name} must be at least {low}$"):
            call(low - 1)


# (call on the entries, entries it accepts): every public parameter that reads a sequence of entries
SEQUENCE_PARAMETERS = {
    "traces_to_elementary": (tracewitt.traces_to_elementary, [1, 3]),
    "elementary_to_traces": (lambda v: tracewitt.elementary_to_traces(v, 2), [1]),
    "integrality_check": (tracewitt.integrality_check, [Fraction(1, 2)]),
    "companion_matrix": (tracewitt.companion_matrix, [1, -1]),
    "witt_from_ghost": (tracewitt.witt_from_ghost, [0, 1]),
    "ghost_from_witt": (lambda v: tracewitt.ghost_from_witt(v, 3), [0, 1]),
    "coeffs_to_witt": (tracewitt.coeffs_to_witt, [1, -1]),
    "coeffs_to_witt-n_max": (lambda v: tracewitt.coeffs_to_witt(v, 3), [1, -1]),
    "witt_to_coeffs": (tracewitt.witt_to_coeffs, [1, 1]),
    "witt_to_coeffs-n_max": (lambda v: tracewitt.witt_to_coeffs(v, 3), [1, 1]),
    "check_trace_sequence": (tracewitt.check_trace_sequence, [1, 3, 4, 7]),
    "synthesize": (tracewitt.synthesize, [1, 3]),
    "IntMatrix-entries": (lambda v: tracewitt.IntMatrix(2, v), [[0, 1], [1, 1]]),
    "CharacterTable-values": (lambda v: tracewitt.CharacterTable(2, v), [2, 0]),
}


@pytest.mark.parametrize("call, entries", SEQUENCE_PARAMETERS.values(), ids=SEQUENCE_PARAMETERS)
def test_one_shot_iterator_gives_the_lists_result_or_raises(call, entries):
    # each entry is read once, so the list and a one-shot iterator give the same result
    assert call(iter(entries)) == call(entries)


def test_imports_stay_lazy():
    # import cost is paid by every one-shot process: the library loads no CLI, and no command imports datetime
    probe = (
        "import sys; watched = ('tracewitt.cli', 'datetime');"
        "import tracewitt; print([m for m in watched if m in sys.modules]);"
        "import tracewitt.cli; print([m for m in watched if m in sys.modules]);"
        "tracewitt.cli.main(['check-traces', '1,3', '--format', 'json']);"
        "print([m for m in watched if m in sys.modules])"
    )
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    report = '{"overall":true,"checks":[{"n":2,"p":2,"k":1,"lhs":3,"rhs":1,"modulus":2,"pass":true}],'
    report += '"policy":{"kind":"trace-sequence","length":2}}'
    assert run.stdout.splitlines() == ["[]", "['tracewitt.cli']", report, "['tracewitt.cli']"]
