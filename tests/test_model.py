"""Core value types: construction invariants and run semantics."""

import pytest

from rightcon import (
    Alphabet,
    Buchi,
    CoBuchi,
    LassoWord,
    MullerStates,
    MullerTransitions,
    Parity,
    TransitionStructure,
    accepts,
    complete_with_sink,
    lasso,
    lasso_run,
    make_structure,
    validate,
)
from rightcon.errors import (
    DanglingReference,
    EmptyAlphabet,
    IncompleteTransition,
    UnknownSymbol,
    ValidationError,
)
from rightcon.model import alphabet, buchi, cobuchi, muller, parity, tmuller

AB = alphabet("a", "b")


def two_state():
    # a swaps the states, b stays
    return make_structure(
        AB, 2, 0, {(0, "a"): 1, (0, "b"): 0, (1, "a"): 0, (1, "b"): 1}
    )


class TestAlphabet:
    def test_empty_rejected(self):
        with pytest.raises(EmptyAlphabet):
            Alphabet(())

    def test_duplicate_rejected(self):
        with pytest.raises(ValidationError):
            alphabet("a", "a")

    def test_whitespace_symbol_rejected(self):
        with pytest.raises(ValidationError):
            alphabet("a b")

    def test_empty_symbol_rejected(self):
        with pytest.raises(ValidationError):
            alphabet("")

    def test_index_and_contains(self):
        assert AB.index("b") == 1
        assert "a" in AB and "c" not in AB
        assert len(AB) == 2

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbol):
            AB.index("c")


class TestStructure:
    def test_step_run(self):
        s = two_state()
        assert s.step(0, "a") == 1
        assert s.run(0, "abab") == 0
        assert s.run(0, ("a", "b", "a")) == 0

    def test_transitions(self):
        s = two_state()
        assert s.transitions_from(0) == [(0, "a", 1), (0, "b", 0)]
        assert len(s.all_transitions()) == 4

    def test_reachable(self):
        s = make_structure(
            AB, 3, 0, {(0, "a"): 0, (0, "b"): 0, (1, "a"): 2, (1, "b"): 0,
                       (2, "a"): 2, (2, "b"): 2}
        )
        assert s.reachable_states() == frozenset({0})

    def test_incomplete_delta_rejected(self):
        with pytest.raises(IncompleteTransition):
            make_structure(AB, 1, 0, {(0, "a"): 0})

    def test_dangling_target_rejected(self):
        with pytest.raises(DanglingReference):
            make_structure(AB, 1, 0, {(0, "a"): 0, (0, "b"): 3})

    def test_bad_initial_rejected(self):
        with pytest.raises(ValidationError):
            make_structure(AB, 1, 5, {(0, "a"): 0, (0, "b"): 0})

    def test_complete_with_sink_adds_one_state(self):
        s = complete_with_sink(AB, 1, 0, {(0, "a"): 0})
        assert s.state_count == 2
        assert s.step(0, "b") == 1
        assert s.step(1, "a") == 1 and s.step(1, "b") == 1

    def test_complete_with_sink_noop_when_total(self):
        s = complete_with_sink(AB, 2, 0, dict(two_state_delta()))
        assert s.state_count == 2


def two_state_delta():
    return {(0, "a"): 1, (0, "b"): 0, (1, "a"): 0, (1, "b"): 1}


class TestValidate:
    def test_parity_color_count(self):
        with pytest.raises(ValidationError):
            validate(two_state(), parity(1))

    def test_parity_color_bounds(self):
        with pytest.raises(ValidationError):
            validate(two_state(), parity(0, 99))

    def test_dangling_acceptance_state(self):
        with pytest.raises(DanglingReference):
            validate(two_state(), buchi(7))

    def test_empty_muller_entry(self):
        with pytest.raises(ValidationError):
            validate(two_state(), MullerStates(frozenset({frozenset()})))

    def test_dangling_tmuller_transition(self):
        with pytest.raises(DanglingReference):
            validate(two_state(), tmuller([(0, "a", 0)]))  # real edge is a->1

    def test_ok(self):
        acc = validate(two_state(), buchi(0))
        assert acc.alphabet is AB or acc.alphabet.symbols == AB.symbols


class TestLassoWord:
    def test_empty_cycle_rejected(self):
        with pytest.raises(ValidationError):
            lasso("a", "")

    def test_str(self):
        assert str(lasso("ab", "a")) == "a.b:a"

    def test_from_strings(self):
        w = lasso("", "ab")
        assert w.spoke == () and w.cycle == ("a", "b")


class TestLassoRun:
    def test_infinity_sets(self):
        s = two_state()
        run = lasso_run(s, lasso("a", "b"))  # a to state 1, then b loops there
        assert run.inf_states == frozenset({1})
        assert run.inf_transitions == frozenset({(1, "b", 1)})

    def test_cycle_spanning_both_states(self):
        s = two_state()
        run = lasso_run(s, lasso("", "a"))
        assert run.inf_states == frozenset({0, 1})
        assert run.inf_transitions == frozenset({(0, "a", 1), (1, "a", 0)})

    def test_from_state(self):
        s = two_state()
        assert lasso_run(s, lasso("", "b"), 1).inf_states == frozenset({1})
        assert lasso_run(s, lasso("", "b")).inf_states == frozenset({0})

    def test_entry_index_nonzero_when_cycle_shifts(self):
        # cycle 'ab' from state 0: after one rep at state 1, then periodic
        s = make_structure(
            AB, 3, 0, {(0, "a"): 1, (0, "b"): 2, (1, "a"): 1, (1, "b"): 1,
                       (2, "a"): 2, (2, "b"): 2}
        )
        run = lasso_run(s, lasso("", "ab"))
        assert run.entry_index >= 1
        assert run.inf_states == frozenset({1})


class TestAcceptsPerKind:
    def test_buchi(self):
        a = validate(two_state(), buchi(1))
        assert accepts(a, lasso("a", "b"))
        assert not accepts(a, lasso("", "b"))
        assert accepts(a, lasso("", "a"))  # visits both states forever

    def test_cobuchi(self):
        a = validate(two_state(), cobuchi(1))
        assert not accepts(a, lasso("a", "b"))
        assert accepts(a, lasso("", "b"))
        assert not accepts(a, lasso("", "a"))

    def test_parity_min_inf_color_odd(self):
        a = validate(two_state(), parity(1, 2))
        assert accepts(a, lasso("", "b"))   # min inf color 1, odd
        assert not accepts(a, lasso("a", "b"))  # color 2
        assert accepts(a, lasso("", "a"))   # min(1, 2) = 1

    def test_muller_exact_set(self):
        a = validate(two_state(), muller([0, 1]))
        assert accepts(a, lasso("", "a"))
        assert not accepts(a, lasso("", "b"))

    def test_tmuller_exact_transition_set(self):
        a = validate(two_state(), tmuller([(0, "a", 1), (1, "a", 0)]))
        assert accepts(a, lasso("", "a"))
        assert not accepts(a, lasso("", "b"))
        # same states, different edges
        a2 = validate(two_state(), tmuller([(0, "b", 0)]))
        assert accepts(a2, lasso("", "b"))
        assert not accepts(a2, lasso("", "a"))

    def test_accepts_from_state(self):
        a = validate(two_state(), buchi(1))
        assert accepts(a, lasso("", "b"), 1)
        assert not accepts(a, lasso("", "b"), 0)
