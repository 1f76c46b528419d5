"""Memory-factoring prediction machines and their state lower bounds.

A predictor answers, for a history and an observable, the forced value
(+1 or -1) or ``r`` when the outcome is genuinely open.  The only
structural requirement is that the answer factors through a memory
state.  For histories that determine a full context there are 24
distinguishable situations (6 contexts times 4 value combinations of
the first two members), and any two of them disagree on some
observable, so a factoring predictor needs at least 24 memory states.
This module makes every piece of that argument executable: the 24
classes, canonical representatives, the pairwise-disagreement table,
a concrete pigeonhole refutation for any machine with fewer states,
the sharp 24-state reference machine, the recognizer-to-predictor
product construction, and the n-qubit scaling of the bound with its
information density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Any, Callable, Hashable, Iterable, Iterator

from . import semantics
from .automata import Dfa
from .square import (
    CONTEXTS,
    OBSERVABLES,
    Context,
    Observable,
    SignedSymbol,
    signed,
)

RANDOM_OUTCOME = "r"
PredictorOutcome = Any  # +1, -1, or RANDOM_OUTCOME

String = tuple[SignedSymbol, ...]


class MemoryFactoringError(ValueError):
    """The machine mangled the pass-through observable coordinate."""


class RecognizerContractError(ValueError):
    """A recognizer rejected both signed extensions of a consistent
    string, so it does not recognize the measurement language."""


@dataclass(frozen=True, eq=False)
class ClassTriple:
    """A determined context plus the values of its first two members.

    Interned: ``all_class_triples()`` makes the 24 classes, and every
    triple the module hands out is one of them, so classes compare and
    hash by identity.  A triple built elsewhere is none of the 24.
    """

    context: Context
    first_value: int
    second_value: int

    @property
    def third_value(self) -> int:
        return self.context.sign * self.first_value * self.second_value

    def full_assignment(self) -> dict[Observable, int]:
        m = self.context.members
        return {
            m[0]: self.first_value,
            m[1]: self.second_value,
            m[2]: self.third_value,
        }


@lru_cache(maxsize=None)
def all_class_triples() -> tuple[ClassTriple, ...]:
    """All 24 classes in canonical order: contexts row0..col2, then the
    four value combinations of the first two members."""
    return tuple(
        ClassTriple(ctx, v1, v2)
        for ctx in CONTEXTS
        for v1 in (1, -1)
        for v2 in (1, -1)
    )


def classify(w: str | Iterable[SignedSymbol]) -> ClassTriple:
    """The class of a context-determining string.

    Raises ValueError when the string is inconsistent or leaves no full
    context determined.
    """
    state = semantics.final_state(w)
    if state is None:
        raise ValueError("classify requires a consistent string")
    triple = class_of(state)
    if triple is None:
        raise ValueError("classify requires a string that determines a context")
    return triple


@lru_cache(maxsize=None)
def class_of(state: semantics.DeterminationState) -> ClassTriple | None:
    """The class of an oracle state, or None when it holds no full context."""
    found = semantics.determined_context(state)
    if found is None:
        return None
    ctx, (v1, v2, _) = found
    return next(
        t
        for t in all_class_triples()
        if t.context is ctx and t.first_value == v1 and t.second_value == v2
    )


@lru_cache(maxsize=None)
def representatives() -> tuple[String, ...]:
    """One canonical length-2 string per class: measure the first two
    members of the context with the class values."""
    reps = []
    for triple in all_class_triples():
        m = triple.context.members
        reps.append(
            (signed(m[0], triple.first_value), signed(m[1], triple.second_value))
        )
    return tuple(reps)


@dataclass(frozen=True)
class DisagreementWitness:
    left: ClassTriple
    right: ClassTriple
    observable: Observable


@dataclass(frozen=True)
class DisagreementReport:
    witnesses: tuple[DisagreementWitness, ...]
    missing: tuple[tuple[ClassTriple, ClassTriple], ...]

    @property
    def complete(self) -> bool:
        return not self.missing

    @property
    def pair_count(self) -> int:
        return len(self.witnesses) + len(self.missing)


def first_disagreement(u: String, v: String) -> Observable | None:
    """The first observable on which two consistent histories disagree,
    or None when they agree everywhere."""
    return next((obs for obs in OBSERVABLES if not semantics.agree(u, v, obs)), None)


def verify_disagreement_claim() -> DisagreementReport:
    """For every unordered pair of class representatives, find an
    observable on which the two histories disagree.

    A missing witness for any pair would let two classes share a memory
    state, collapsing the 24-state lower bound, so completeness of this
    table is exactly what the pigeonhole argument consumes.
    """
    triples = all_class_triples()
    reps = representatives()
    witnesses = []
    missing = []
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            found = first_disagreement(reps[i], reps[j])
            if found is None:
                missing.append((triples[i], triples[j]))
            else:
                witnesses.append(
                    DisagreementWitness(triples[i], triples[j], found)
                )
    return DisagreementReport(tuple(witnesses), tuple(missing))


@dataclass
class MagaSpec:
    """A memory-factoring predictor.

    ``m0`` maps (history, observable) to (memory state, observable) and
    must pass the observable through unchanged; ``m1`` maps (memory
    state, observable) to +1, -1, or ``r``.
    """

    memory_states: tuple[Hashable, ...]
    m0: Callable[[String, Observable], tuple[Hashable, Observable]]
    m1: Callable[[Hashable, Observable], PredictorOutcome]

    def memory_of(self, w: String, s: Observable) -> Hashable:
        state, passed = self.m0(w, s)
        if passed is not s:
            raise MemoryFactoringError(
                "m0 must leave the observable coordinate unchanged"
            )
        return state

    def output(self, w: String, s: Observable) -> PredictorOutcome:
        return self.m1(self.memory_of(w, s), s)


def required_answer(
    state: semantics.DeterminationState, s: Observable
) -> PredictorOutcome:
    """What a correct predictor must answer after a history that ends in
    ``state``: the determined value, or ``r`` when ``s`` is open."""
    v = state.value_of(s)
    return RANDOM_OUTCOME if v is None else v


def expected_output(w: String, s: Observable) -> PredictorOutcome:
    """What a correct predictor must answer, per the operational rules."""
    state = semantics.final_state(w)
    if state is None:
        raise ValueError("predictor outputs are defined on consistent strings")
    return required_answer(state, s)


def class_answer(triple: ClassTriple, s: Observable) -> PredictorOutcome:
    """The answer map of the class-triple machines: the context value of
    ``s``, or ``r`` off the context."""
    return triple.full_assignment().get(s, RANDOM_OUTCOME)


def reference_maga_plus() -> MagaSpec:
    """The sharp 24-state predictor for context-determining histories.

    The memory state is just the class triple; the answer map rebuilds
    the full context assignment from the triple and answers ``r`` off
    the context.
    """

    def m0(w: String, s: Observable):
        return classify(w), s

    return MagaSpec(tuple(all_class_triples()), m0, class_answer)


def merged_reference_maga(keep: int, merge: int) -> MagaSpec:
    """The reference machine with class ``merge`` collapsed onto class
    ``keep``: a deliberately broken 23-state machine for refutation."""
    triples = all_class_triples()
    kept = tuple(t for t in triples if t is not triples[merge])

    def m0(w: String, s: Observable):
        t = classify(w)
        if t is triples[merge]:
            t = triples[keep]
        return t, s

    return MagaSpec(kept, m0, class_answer)


@dataclass(frozen=True)
class CollisionWitness:
    """Concrete pigeonhole contradiction: two representative histories
    share a memory state but require different answers somewhere."""

    left: ClassTriple
    right: ClassTriple
    left_string: String
    right_string: String
    memory_state: Hashable
    observable: Observable
    left_required: PredictorOutcome
    right_required: PredictorOutcome


@dataclass(frozen=True)
class PigeonholeVerdict:
    distinct_memory_states: int
    certified: bool
    counterexample: CollisionWitness | None


def lower_bound_check(machine: MagaSpec) -> PigeonholeVerdict:
    """Run the pigeonhole argument against a machine.

    If the machine assigns fewer than 24 distinct memory states to the
    24 class representatives, two of them collide; any observable they
    disagree on then forces two different answers out of one (state,
    observable) pair, which is the contradiction reported.  Machines
    keeping all 24 apart get a certificate.
    """
    triples = all_class_triples()
    reps = representatives()
    by_memory: dict[Hashable, int] = {}
    memories = [machine.memory_of(rep, OBSERVABLES[0]) for rep in reps]
    for i, mem in enumerate(memories):
        if mem in by_memory:
            j = by_memory[mem]
            obs = first_disagreement(reps[j], reps[i])
            if obs is None:  # a broken disagreement table: no witness
                return PigeonholeVerdict(len(set(memories)), False, None)
            return PigeonholeVerdict(
                distinct_memory_states=len(set(memories)),
                certified=False,
                counterexample=CollisionWitness(
                    triples[j],
                    triples[i],
                    reps[j],
                    reps[i],
                    mem,
                    obs,
                    expected_output(reps[j], obs),
                    expected_output(reps[i], obs),
                ),
            )
        by_memory[mem] = i
    return PigeonholeVerdict(len(by_memory), True, None)


@dataclass
class MaraSpec:
    """A memory-factoring recognizer: m1 answers whether the history
    extended by one signed symbol stays in the language."""

    memory_states: tuple[Hashable, ...]
    m0: Callable[[String, SignedSymbol], Hashable]
    m1: Callable[[Hashable, SignedSymbol], bool]


def mara_from_dfa(dfa: Dfa) -> MaraSpec:
    """Recognizer backed by a DFA for the language.

    Memory states are the automaton states reachable on consistent
    input, which excludes the absorbing reject state.
    """
    live = tuple(
        q for q in dfa.states if dfa.dead is None or q != dfa.dead
    )

    def m0(w: String, t: SignedSymbol) -> int:
        return dfa.run(w)

    def m1(q: int, t: SignedSymbol) -> bool:
        return dfa.delta[q][t.index] in dfa.accepting

    return MaraSpec(live, m0, m1)


def mara_to_maga(recognizer: MaraSpec) -> MagaSpec:
    """Product construction turning a recognizer into a predictor.

    The memory state pairs the recognizer states reached when asking
    about the +1 and the -1 extension; the answer map queries both.
    Both extensions rejected is impossible for a genuine recognizer of
    the language and raises.
    """
    states = tuple(product(recognizer.memory_states, repeat=2))

    def m0(w: String, s: Observable):
        plus = recognizer.m0(w, signed(s, 1))
        minus = recognizer.m0(w, signed(s, -1))
        return (plus, minus), s

    def m1(state, s: Observable) -> PredictorOutcome:
        q_plus, q_minus = state
        yes_plus = recognizer.m1(q_plus, signed(s, 1))
        yes_minus = recognizer.m1(q_minus, signed(s, -1))
        if yes_plus and yes_minus:
            return RANDOM_OUTCOME
        if yes_plus:
            return 1
        if yes_minus:
            return -1
        raise RecognizerContractError(
            f"both signed extensions rejected for observable {s.name}"
        )

    return MagaSpec(states, m0, m1)


SQUARE_LOWER_BOUND = 24  # contexts x value combinations for one context


@dataclass(frozen=True)
class ScalingReport:
    """Memory lower bound and information density for the n-qubit
    generalization of the square."""

    qubits: int
    contexts: int
    context_size: int
    lower_bound: int
    simplified_bound: int
    density: float
    density_floor: float

    @property
    def density_gap(self) -> float:
        return self.density - self.density_floor

    @property
    def violates_holevo(self) -> bool:
        return self.density > 1.0


# The most qubits the CLI tabulates: the exact bound has about n^2/2
# bits, so the work of a table grows quadratically with n.
MAX_QUBITS = 3000


def scaling_reports(n_max: int) -> Iterator[ScalingReport]:
    """Evaluate the n-qubit bound exactly for n = 1..n_max.

    Contexts number prod(2^k + 1) for k = 1..n, each of size 2^n and
    pinned down by n of its members, so the class count (and hence the
    memory lower bound) is 2^n * prod(2^k + 1).  Bounding each 2^k + 1
    below by 2^k gives the simplified bound 2^n * 2^(n(n+1)/2), whose
    density is (n+3)/2 bits per qubit.  The product is kept as a running
    total, so each report costs a shift and an addition.
    """
    contexts = 1
    for n in range(1, n_max + 1):
        contexts += contexts << n
        lower = contexts << n
        yield ScalingReport(
            qubits=n,
            contexts=contexts,
            context_size=1 << n,
            lower_bound=lower,
            simplified_bound=1 << (n + n * (n + 1) // 2),
            density=math.log2(lower) / n,
            density_floor=(n + 3) / 2,
        )


def scaling_report(n: int) -> ScalingReport:
    """The last of ``scaling_reports(n)``."""
    if n < 1:
        raise ValueError("the scaled square needs at least one qubit")
    for report in scaling_reports(n):
        pass
    return report
