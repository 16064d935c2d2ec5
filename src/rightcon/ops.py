"""Boolean combination, conversion, and comparison of acceptors."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnsupportedConversion
from .graph import bfs_order
from .loops import (
    DEFAULT_CAPACITY,
    loopable_state_sets,
    loopable_transition_sets,
)
from .model import (
    Acceptor,
    Buchi,
    CoBuchi,
    LassoWord,
    MullerStates,
    MullerTransitions,
    Parity,
    TransitionStructure,
    check_same_alphabet,
)
from .parity import ParityView, as_parity, find_discrepancy


@dataclass(frozen=True)
class Product:
    structure: TransitionStructure
    pairs: tuple[tuple[int, int], ...]  # product state id -> (A state, B state)


def product(a: TransitionStructure, b: TransitionStructure) -> Product:
    """Reachable synchronous product with its pairing map."""
    check_same_alphabet(a, b)

    def succ(pair):
        return zip(a.delta[pair[0]], b.delta[pair[1]])

    order = bfs_order((a.initial, b.initial), succ)
    ids = {pair: i for i, pair in enumerate(order)}
    rows = tuple(tuple(ids[t] for t in succ(pair)) for pair in order)
    return Product(TransitionStructure(a.alphabet, len(order), 0, rows), tuple(order))


def complement(acceptor: Acceptor, capacity: int = DEFAULT_CAPACITY) -> Acceptor:
    """Acceptor for the complement language on the same structure."""
    structure = acceptor.structure
    acc = acceptor.acceptance
    if isinstance(acc, Buchi):
        return Acceptor(structure, CoBuchi(acc.accepting))
    if isinstance(acc, CoBuchi):
        return Acceptor(structure, Buchi(acc.avoided))
    if isinstance(acc, Parity):
        return Acceptor(structure, Parity(tuple(c + 1 for c in acc.colors)))
    if isinstance(acc, MullerStates):
        table = frozenset(
            s
            for s, _ in loopable_state_sets(structure, capacity)
            if s not in acc.table
        )
        return Acceptor(structure, MullerStates(table))
    table = frozenset(
        t
        for _, t in loopable_transition_sets(structure, capacity)
        if t not in acc.table
    )
    return Acceptor(structure, MullerTransitions(table))


def transition_expand(acceptor: Acceptor) -> Acceptor:
    """Rebuild a transition-table acceptor as a state-table acceptor.

    New states remember the last transition taken; the table carries over.
    """
    acc = acceptor.acceptance
    if not isinstance(acc, MullerTransitions):
        return acceptor
    structure = acceptor.structure
    trans = structure.all_transitions()
    ids = {t: i + 1 for i, t in enumerate(trans)}  # 0 is the fresh initial
    n = len(trans) + 1

    def source_state(state_id: int) -> int:
        return structure.initial if state_id == 0 else trans[state_id - 1][2]

    rows = []
    for sid in range(n):
        q = source_state(sid)
        row = []
        for i, sym in enumerate(structure.alphabet.symbols):
            row.append(ids[(q, sym, structure.delta[q][i])])
        rows.append(tuple(row))
    expanded = TransitionStructure(structure.alphabet, n, 0, tuple(rows))
    table = frozenset(frozenset(ids[t] for t in entry) for entry in acc.table)
    return Acceptor(expanded, MullerStates(table))


def combine(
    a: Acceptor, b: Acceptor, mode: str, capacity: int = DEFAULT_CAPACITY
) -> Acceptor:
    """Union or intersection as a state-table acceptor on the product.

    Transition-table operands are expanded first so that a product state
    set determines both operand verdicts.
    """
    if mode not in ("union", "intersection"):
        raise ValueError(f"unknown mode {mode!r}")
    check_same_alphabet(a.structure, b.structure)
    a = transition_expand(a)
    b = transition_expand(b)
    prod = product(a.structure, b.structure)
    table = []
    for states, _ in loopable_state_sets(prod.structure, capacity):
        va = a.acceptance.accepts_loop(frozenset(prod.pairs[q][0] for q in states), frozenset())
        vb = b.acceptance.accepts_loop(frozenset(prod.pairs[q][1] for q in states), frozenset())
        verdict = (va or vb) if mode == "union" else (va and vb)
        if verdict:
            table.append(states)
    return Acceptor(prod.structure, MullerStates(frozenset(table)))


def convert(
    acceptor: Acceptor, target: str, capacity: int = DEFAULT_CAPACITY
) -> Acceptor:
    """Change acceptance kind on the unchanged structure.

    Supported: buchi->parity, cobuchi->parity, parity->muller,
    muller->tmuller.  Other pairs need complement or are impossible
    without changing the structure.
    """
    acc = acceptor.acceptance
    structure = acceptor.structure
    if acc.kind == target:
        return acceptor
    if isinstance(acc, (Buchi, CoBuchi)) and target == "parity":
        return Acceptor(structure, as_parity(acc, structure.state_count))
    if isinstance(acc, Parity) and target == "muller":
        table = frozenset(
            s
            for s, t in loopable_state_sets(structure, capacity)
            if acc.accepts_loop(s, t)
        )
        return Acceptor(structure, MullerStates(table))
    if isinstance(acc, MullerStates) and target == "tmuller":
        # a table entry that is not loopable spans no transition set
        reachable = structure.reachable_states()
        entries = sorted((s for s in acc.table if s <= reachable), key=sorted)
        table = frozenset(t for _, t in loopable_transition_sets(structure, capacity, entries))
        return Acceptor(structure, MullerTransitions(table))
    raise UnsupportedConversion(acc.kind, target)


def equivalent(a: Acceptor, b: Acceptor) -> tuple[bool, LassoWord | None]:
    """Exact language equality with a distinguishing lasso on failure."""
    check_same_alphabet(a.structure, b.structure)
    witness = find_discrepancy(ParityView(a), ParityView(b))
    return witness is None, witness
