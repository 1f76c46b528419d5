"""Tools for the measurement language of the Peres-Mermin square."""

from .square import (
    ALPHABET,
    CONTEXTS,
    OBSERVABLES,
    Context,
    Observable,
    SignedSymbol,
    SquareFilling,
    compatible,
    negative_context_count,
    parse_string,
    format_string,
    signed,
    third_value,
)
from .semantics import (
    DeterminationState,
    agree,
    determined_context,
    is_consistent,
    step,
    trace,
)
from .grammar import Grammar, Derivation, build_grammar, derive_membership, to_nfa
from .automata import (
    CountReport,
    Dfa,
    Nfa,
    count_words,
    determinize,
    hv_bits,
    minimize,
)
from .maga import (
    ClassTriple,
    MagaSpec,
    MaraSpec,
    ScalingReport,
    classify,
    lower_bound_check,
    mara_from_dfa,
    mara_to_maga,
    reference_maga_plus,
    representatives,
    scaling_report,
    verify_disagreement_claim,
)

# The simulator needs numpy, which only sampling uses, so its names are
# imported on first access (PEP 562) rather than with the package.
_QUANTUM_NAMES = frozenset(
    {"QState", "PauliObservable", "measure", "sample_run", "standard_square"}
)


def __getattr__(name: str):
    if name in _QUANTUM_NAMES:
        from . import quantum

        return getattr(quantum, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
