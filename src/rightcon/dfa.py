"""Minimal finite-word acceptor used by the trivial-congruence decomposition."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .model import Alphabet


@dataclass(frozen=True)
class Dfa:
    """Partial DFA over hashable states; missing transitions are dead."""

    alphabet: Alphabet
    initial: object
    transitions: dict
    accepting: frozenset

    def accepts(self, word) -> bool:
        state = self.initial
        for sym in word:
            state = self.transitions.get((state, sym))
            if state is None:
                return False
        return state in self.accepting

    def enumerate_words(self, limit: int):
        """First `limit` accepted words in shortest-then-symbol order."""
        out = []
        queue = deque([(self.initial, ())])
        visited_budget = 0
        while queue and len(out) < limit:
            state, word = queue.popleft()
            if state in self.accepting:
                out.append(word)
            visited_budget += 1
            if visited_budget > 200000:
                break
            for sym in self.alphabet.symbols:
                t = self.transitions.get((state, sym))
                if t is not None:
                    queue.append((t, word + (sym,)))
        return out
