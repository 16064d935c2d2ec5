"""The parity translation's tree, against a brute-force subset search."""

import random

from rightcon import convert, random_dma, wagner_family
from rightcon.parity import ParityView

from helpers import ACCEPTANCE_KINDS, brute_flipped_children, naive_verdict, random_acceptor


def _tree_inputs():
    rng = random.Random("tree")
    for kind in ACCEPTANCE_KINDS:
        for i in range(20):
            # at most 10 colors: tmuller colors are the 2n transitions
            yield f"{kind}/{i}", random_acceptor(rng, 5, kinds=(kind,))
    for i in range(10):
        # Muller tables with many entries, from parity conditions
        parity = random_acceptor(rng, 6, kinds=("parity",))
        yield f"parity-muller/{i}", convert(parity, "muller")
    for n in range(1, 4):
        for m in range(1, 4):
            for polarity in ("+", "-"):
                yield f"wagner{polarity}/{n}/{m}", wagner_family(n, m, polarity)
    yield "wagner+-/1/1", wagner_family(1, 1, "+-")
    for n in (3, 4):
        yield f"tmuller/{n}", convert(random_dma(n, "c/0"), "tmuller")


def test_tree_children_match_brute_force():
    for tag, a in _tree_inputs():
        acc = a.acceptance
        tree = ParityView(a).tree
        root = tree.nodes[0]
        if acc.kind == "tmuller":
            assert root.label == frozenset(a.structure.all_transitions()), tag
        else:
            assert root.label == frozenset(range(a.structure.state_count)), tag
        assert root.priority % 2 == naive_verdict(acc, root.label, root.label), tag
        for i, node in enumerate(tree.nodes):
            labels = [tree.nodes[c].label for c in node.children]
            assert set(labels) == brute_flipped_children(acc, node.label), (tag, node.label)
            assert len(labels) == len(set(labels)), tag
            assert labels == sorted(labels, key=lambda s: sorted(map(repr, s))), tag
            for c in node.children:
                assert tree.nodes[c].priority == node.priority + 1, tag
                assert tree.nodes[c].parent == i, tag
