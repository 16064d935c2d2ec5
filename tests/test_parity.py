"""The parity translation's ACD against a brute-force loop search, and
every view's runs against naive runs."""

import itertools
import random

from rightcon import LassoWord, Parity, convert, make_structure, random_dma, validate, wagner_family
from rightcon.loops import AcdTree
from rightcon.parity import ParityView

from helpers import (
    AB,
    ACCEPTANCE_KINDS,
    all_fixtures,
    brute_acd,
    naive_accepts,
    naive_strongly_connected,
    naive_transitions_connect,
    random_acceptor,
)


def _tree_inputs():
    rng = random.Random("tree")
    for kind in ACCEPTANCE_KINDS:
        for i in range(20):
            # at most 10 colors: tmuller colors are the 2n transitions
            yield f"{kind}/{i}", random_acceptor(rng, 5, kinds=(kind,))
    for i in range(10):
        # Muller tables with many entries, from parity conditions
        muller = convert(random_acceptor(rng, 6, kinds=("parity",)), "muller")
        yield f"parity-muller/{i}", muller
        yield f"parity-tmuller/{i}", convert(muller, "tmuller")
    for n in range(1, 4):
        for m in range(1, 4):
            for polarity in ("+", "-"):
                yield f"wagner{polarity}/{n}/{m}", wagner_family(n, m, polarity)
    yield "wagner+-/1/1", wagner_family(1, 1, "+-")
    for n in (3, 4):
        yield f"tmuller/{n}", convert(random_dma(n, "c/0"), "tmuller")
    # without the priority-0 state, state 1 is on no loop and the
    # priority-2 self-loop at 2 rejects like the root: it is split again,
    # so the root has no child
    structure = make_structure(
        AB, 3, 0, {(0, "a"): 1, (0, "b"): 2, (1, "a"): 0, (1, "b"): 0, (2, "a"): 2, (2, "b"): 0}
    )
    yield "parity/split-again", validate(structure, Parity((0, 1, 2)))


def _acd_draws():
    return [(f"acd/{i}", random_dma(4 + i % 3, f"acd/{i}")) for i in range(40)]


def test_acd_matches_brute_force():
    # every kind: Büchi, co-Büchi and parity conditions through the split
    # by merged priorities, Muller tables through _muller_children
    for tag, a in list(_tree_inputs()) + _acd_draws():
        tree = AcdTree(a.structure, a.acceptance)
        nodes = tree.nodes
        if a.acceptance.kind == "tmuller":
            loop = lambda node: naive_transitions_connect(node.states, node.label)
        else:
            loop = lambda node: naive_strongly_connected(a.structure, node.label)

        def nested(i):
            node = nodes[i]
            accepting = node.priority % 2 == 1
            for c in node.children:
                assert nodes[c].priority == node.priority + 1 and nodes[c].parent == i, tag
            return node.label, accepting, [nested(c) for c in node.children]

        roots = [i for i, node in enumerate(nodes) if node.parent < 0]
        # the roots split the states: the SCCs that hold a loop, and a
        # one-node tree for each state on no loop
        assert sorted(q for i in roots for q in nodes[i].states) == list(range(a.structure.state_count)), tag
        loops = [i for i in roots if loop(nodes[i])]
        for i in roots:
            if i not in loops:
                assert len(nodes[i].states) == 1 and not nodes[i].children, tag
        # brute_acd sees the reachable states only, and so does `reachable`
        reachable = a.structure.reachable_states()
        kept = [i for i in loops if nodes[i].states <= reachable]
        assert [nested(i) for i in kept] == brute_acd(a), tag
        for i in kept:  # grows while it is read
            kept += nodes[i].children
        assert sorted(kept) == tree.reachable, tag


def _view_accepts(view, w, state):
    """Whether the least priority the view's run on w from view state
    `state` emits infinitely often is odd."""
    index = {sym: i for i, sym in enumerate(view.acceptor.alphabet.symbols)}
    k = view.k
    s = state
    for sym in w.spoke:
        s = view.nxt[s * k + index[sym]]
    # each cycle reading from a boundary state; they repeat from the first
    # boundary state seen twice
    boundary: dict = {}
    emitted = []
    while s not in boundary:
        boundary[s] = len(emitted)
        least = None
        for sym in w.cycle:
            e = s * k + index[sym]
            least = view.pri[e] if least is None else min(least, view.pri[e])
            s = view.nxt[e]
        emitted.append(least)
    return min(emitted[boundary[s]:]) % 2 == 1


def test_acd_view_runs_match_naive_acceptance():
    for tag, a in all_fixtures() + list(_tree_inputs()) + _acd_draws():
        view = ParityView(a)
        syms = a.alphabet.symbols
        words = [w for n in range(4) for w in itertools.product(syms, repeat=n)]
        # naive verdicts by the state the spoke reaches and the cycle
        naive: dict = {}
        for q in range(a.structure.state_count):
            assert view.states[q] == q, tag
            for spoke in words:
                p = a.structure.run(q, spoke)
                for cycle in words[1:]:
                    w = LassoWord(spoke, cycle)
                    if (p, cycle) not in naive:
                        naive[p, cycle] = naive_accepts(a, w, q)
                    assert _view_accepts(view, w, q) == naive[p, cycle], (tag, q, w)
