"""An Nfa that walks a word subset by subset: the reference that the
bit-mask subset construction and the grammar's automaton are checked
against."""

from functools import cached_property

from pmlang import automata as au


class WalkedNfa(au.Nfa):
    @cached_property
    def transition_map(self) -> dict:
        raw: dict = {}
        for src, sym, dst in self.transitions:
            raw.setdefault((src, sym), set()).add(dst)
        return {k: frozenset(v) for k, v in raw.items()}

    def step(self, subset: frozenset, sym) -> frozenset:
        """The states reachable from ``subset`` on one symbol."""
        tmap = self.transition_map
        return frozenset().union(*(tmap.get((state, sym), ()) for state in subset))

    def run(self, word) -> frozenset:
        current = frozenset([self.start])
        for sym in word:
            current = self.step(current, sym)
            if not current:
                break
        return current

    def accepts(self, word) -> bool:
        return bool(self.run(word) & self.accepting)


def walked(nfa: au.Nfa) -> WalkedNfa:
    return WalkedNfa(nfa.states, nfa.transitions, nfa.start, nfa.accepting)
