"""Core value types: alphabets, transition structures, acceptance conditions.

States are dense integers 0..n-1.  Symbols are nonempty strings; their order
in the alphabet is fixed at construction and used for canonical indices.
All values are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import (
    AlphabetMismatch,
    DanglingReference,
    EmptyAlphabet,
    IncompleteTransition,
    UnknownSymbol,
    ValidationError,
)
from .graph import bfs_order

Transition = tuple[int, str, int]


@dataclass(frozen=True)
class Alphabet:
    symbols: tuple[str, ...]

    def __post_init__(self):
        if not self.symbols:
            raise EmptyAlphabet("alphabet must contain at least one symbol")
        seen = set()
        for s in self.symbols:
            if not s or any(c.isspace() for c in s):
                raise ValidationError(f"bad symbol {s!r}")
            if s in seen:
                raise ValidationError(f"duplicate symbol {s!r}")
            seen.add(s)
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.symbols)})

    def index(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise UnknownSymbol(symbol) from None

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._index

    def __len__(self) -> int:
        return len(self.symbols)


def alphabet(*symbols: str) -> Alphabet:
    return Alphabet(tuple(symbols))


@dataclass(frozen=True)
class TransitionStructure:
    """Deterministic complete transition structure.

    delta is indexed as delta[state][symbol_index] -> state.
    """

    alphabet: Alphabet
    state_count: int
    initial: int
    delta: tuple[tuple[int, ...], ...]

    def step(self, state: int, symbol: str) -> int:
        return self.delta[state][self.alphabet.index(symbol)]

    def run(self, state: int, word: Iterable[str]) -> int:
        for sym in word:
            state = self.delta[state][self.alphabet.index(sym)]
        return state

    def transitions_from(self, state: int) -> list[Transition]:
        return [
            (state, sym, self.delta[state][i])
            for i, sym in enumerate(self.alphabet.symbols)
        ]

    def all_transitions(self) -> list[Transition]:
        out = []
        for q in range(self.state_count):
            out.extend(self.transitions_from(q))
        return out

    def reachable_states(self) -> frozenset[int]:
        return frozenset(bfs_order(self.initial, self.delta.__getitem__))


def make_structure(
    alphabet: Alphabet,
    state_count: int,
    initial: int,
    delta: Mapping[tuple[int, str], int],
) -> TransitionStructure:
    """Build a complete structure from a (state, symbol) -> state mapping."""
    if state_count < 1:
        raise ValidationError("state_count must be positive")
    if not (0 <= initial < state_count):
        raise ValidationError(f"initial state {initial} out of range")
    rows = []
    for q in range(state_count):
        row = []
        for sym in alphabet.symbols:
            if (q, sym) not in delta:
                raise IncompleteTransition(q, sym)
            t = delta[(q, sym)]
            if not (0 <= t < state_count):
                raise DanglingReference("state", t)
            row.append(t)
        rows.append(tuple(row))
    return TransitionStructure(alphabet, state_count, initial, tuple(rows))


def complete_with_sink(
    alphabet: Alphabet,
    state_count: int,
    initial: int,
    delta: Mapping[tuple[int, str], int],
) -> TransitionStructure:
    """Complete a partial delta by adding one rejecting sink state if needed.

    If delta is already total the structure is returned unchanged (no sink).
    """
    missing = [
        (q, sym)
        for q in range(state_count)
        for sym in alphabet.symbols
        if (q, sym) not in delta
    ]
    if not missing:
        return make_structure(alphabet, state_count, initial, delta)
    sink = state_count
    full = dict(delta)
    for q, sym in missing:
        full[(q, sym)] = sink
    for sym in alphabet.symbols:
        full[(sink, sym)] = sink
    return make_structure(alphabet, state_count + 1, initial, full)


# The loop key of a visited set that lies inside no Muller table entry: no
# set containing it is accepted, so all such sets are alike.
TOP = "⊤"


class Acceptance:
    """Base class for the five acceptance conditions."""

    kind: str

    def loop_key(self, states: frozenset[int], transitions: frozenset[Transition]):
        """What the verdict can observe of nonempty visited sets: a hit bit
        for Büchi and co-Büchi, the minimum colour for parity, the set itself
        or TOP for Muller.  The verdict on infinity sets S and T is
        accepts_key(loop_key(S, T)); a kind that reads only states ignores T."""
        raise NotImplementedError

    def join(self, a, b):
        """The loop key of A ∪ B, given a = loop_key(A) and b = loop_key(B)."""
        raise NotImplementedError

    def accepts_key(self, key) -> bool:
        """The verdict on infinity sets whose loop key is `key`, the one rule
        each kind states its acceptance by.  Every verdict is read this way:
        on a lasso's or a loop set's own sets, and in the profile monoid on
        the join of an element's periodic keys, without the sets or the
        element's word."""
        raise NotImplementedError

    def referenced_states(self) -> set[int]:
        raise NotImplementedError

    def referenced_transitions(self) -> set[Transition]:
        return set()


@dataclass(frozen=True)
class Buchi(Acceptance):
    accepting: frozenset[int]
    kind = "buchi"

    def loop_key(self, states, transitions):
        return bool(states & self.accepting)

    def join(self, a, b):
        return a or b

    def accepts_key(self, key):
        return key

    def referenced_states(self):
        return set(self.accepting)


@dataclass(frozen=True)
class CoBuchi(Acceptance):
    avoided: frozenset[int]
    kind = "cobuchi"

    def loop_key(self, states, transitions):
        return bool(states & self.avoided)

    def join(self, a, b):
        return a or b

    def accepts_key(self, key):
        return not key

    def referenced_states(self):
        return set(self.avoided)


@dataclass(frozen=True)
class Parity(Acceptance):
    """Accept iff the minimal color visited infinitely often is odd."""

    colors: tuple[int, ...]
    kind = "parity"

    def loop_key(self, states, transitions):
        return min(self.colors[q] for q in states)

    def join(self, a, b):
        return min(a, b)

    def accepts_key(self, key):
        return key % 2 == 1

    def referenced_states(self):
        return set(range(len(self.colors)))


class _Muller(Acceptance):
    """A table of accepted sets; a set inside no entry is keyed TOP."""

    def _key(self, visited):
        # an entry itself, the accepted case, needs no scan of the table
        return visited if visited in self.table or any(map(visited.__le__, self.table)) else TOP

    def join(self, a, b):
        return TOP if a is TOP or b is TOP else self._key(a | b)

    def accepts_key(self, key):
        # TOP is a string, never a table entry
        return key in self.table


@dataclass(frozen=True)
class MullerStates(_Muller):
    table: frozenset[frozenset[int]]
    kind = "muller"

    def loop_key(self, states, transitions):
        return self._key(states)

    def referenced_states(self):
        out = set()
        for entry in self.table:
            out |= entry
        return out


@dataclass(frozen=True)
class MullerTransitions(_Muller):
    table: frozenset[frozenset[Transition]]
    kind = "tmuller"

    def loop_key(self, states, transitions):
        return self._key(transitions)

    def referenced_states(self):
        out = set()
        for entry in self.table:
            for (p, _, q) in entry:
                out.add(p)
                out.add(q)
        return out

    def referenced_transitions(self):
        out = set()
        for entry in self.table:
            out |= entry
        return out


def buchi(*states: int) -> Buchi:
    return Buchi(frozenset(states))


def cobuchi(*states: int) -> CoBuchi:
    return CoBuchi(frozenset(states))


def parity(*colors: int) -> Parity:
    return Parity(tuple(colors))


def muller(*entries: Iterable[int]) -> MullerStates:
    return MullerStates(frozenset(frozenset(e) for e in entries))


def tmuller(*entries: Iterable[Transition]) -> MullerTransitions:
    return MullerTransitions(frozenset(frozenset(e) for e in entries))


@dataclass(frozen=True)
class Acceptor:
    structure: TransitionStructure
    acceptance: Acceptance

    @property
    def alphabet(self) -> Alphabet:
        return self.structure.alphabet


@dataclass(frozen=True)
class LassoWord:
    """Ultimately periodic word spoke . cycle^omega."""

    spoke: tuple[str, ...]
    cycle: tuple[str, ...]

    def __post_init__(self):
        if not self.cycle:
            raise ValidationError("lasso cycle must be nonempty")

    def __str__(self) -> str:
        return f"{'.'.join(self.spoke)}:{'.'.join(self.cycle)}"


def lasso(spoke: Iterable[str] | str, cycle: Iterable[str] | str) -> LassoWord:
    return LassoWord(tuple(spoke), tuple(cycle))


@dataclass(frozen=True)
class Profile:
    """Behavior summary of a nonempty finite word: per source state, the
    target and the loop key of the states and transitions entered."""

    targets: tuple[int, ...]
    keys: tuple
    representative: tuple[str, ...]


@dataclass(frozen=True)
class RunAnalysis:
    inf_states: frozenset[int]
    inf_transitions: frozenset[Transition]
    entry_index: int


def validate(structure: TransitionStructure, acceptance: Acceptance) -> Acceptor:
    """Check all construction invariants and return the acceptor."""
    n = structure.state_count
    if len(structure.alphabet) == 0:
        raise EmptyAlphabet("alphabet must be nonempty")
    if not (0 <= structure.initial < n):
        raise DanglingReference("state", structure.initial)
    if len(structure.delta) != n:
        raise ValidationError("delta row count does not match state_count")
    for q, row in enumerate(structure.delta):
        if len(row) != len(structure.alphabet):
            raise IncompleteTransition(q, "<row length>")
        for t in row:
            if not (0 <= t < n):
                raise DanglingReference("state", t)
    if isinstance(acceptance, Parity):
        if len(acceptance.colors) != n:
            raise ValidationError("parity coloring must assign every state a color")
        for q, c in enumerate(acceptance.colors):
            if c < 0 or c > 2 * n:
                raise ValidationError(f"parity color {c} of state {q} out of bounds")
    else:
        for q in acceptance.referenced_states():
            if not (0 <= q < n):
                raise DanglingReference("state", q)
    if isinstance(acceptance, (MullerStates, MullerTransitions)):
        for entry in acceptance.table:
            if not entry:
                raise ValidationError("Muller table entries must be nonempty")
    if isinstance(acceptance, MullerTransitions):
        existing = set(structure.all_transitions())
        for t in acceptance.referenced_transitions():
            if t not in existing:
                raise DanglingReference("transition", t)
    return Acceptor(structure, acceptance)


def check_same_alphabet(a: TransitionStructure, b: TransitionStructure) -> None:
    if a.alphabet.symbols != b.alphabet.symbols:
        raise AlphabetMismatch(
            f"alphabets differ: {a.alphabet.symbols} vs {b.alphabet.symbols}"
        )
