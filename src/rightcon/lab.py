"""Random acceptor generation and the quotient-isomorphism experiment."""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass

from .congruence import partition_language_equivalent
from .errors import SamplingExhausted
from .loops import _loopable_scc, _state_graph
from .model import Acceptor, Alphabet, MullerStates, TransitionStructure, validate
from .parity import ParityView
from .semantics import LoopVerdicts

_RETRY_BOUND = 100000

_SYMBOL_POOL = "abcdefghijklmnopqrstuvwxyz"

# The replay keeps the verdict table of a cycle of at most this many symbols
# for the rest of the trial: at most k + k^2 + k^3 + k^4 tables (120 at
# k = 3) of at most n entries each, however many lassos are drawn.
_KEPT_CYCLE_LEN = 4


def random_dma(
    states: int,
    seed,
    alphabet_size: int = 3,
    accepting_sets: int = 2,
) -> Acceptor:
    """Seeded random complete structure with a state-table acceptance.

    Transitions are uniform per (state, symbol), redrawn until every state
    is reachable; each table entry is a uniformly drawn state subset,
    redrawn until strongly connected (and distinct from earlier entries).
    """
    if states < 1:
        raise ValueError("states must be positive")
    if not 1 <= alphabet_size <= len(_SYMBOL_POOL):
        raise ValueError(f"alphabet_size must be in 1..{len(_SYMBOL_POOL)}, got {alphabet_size}")
    rng = random.Random(f"dma/{states}/{alphabet_size}/{accepting_sets}/{seed}")
    symbols = Alphabet(tuple(_SYMBOL_POOL[:alphabet_size]))
    for _ in range(_RETRY_BOUND):
        rows = tuple(
            tuple(rng.randrange(states) for _ in range(alphabet_size))
            for _ in range(states)
        )
        structure = TransitionStructure(symbols, states, 0, rows)
        if len(structure.reachable_states()) == states:
            break
    else:
        raise SamplingExhausted("no fully reachable structure found")
    graph = _state_graph(structure)
    table = []
    for _ in range(accepting_sets):
        for _ in range(_RETRY_BOUND):
            subset = frozenset(q for q in range(states) if rng.random() < 0.5)
            if not subset or subset in table:
                continue
            mask = sum(1 << q for q in subset)
            if _loopable_scc(*graph, min(subset), mask) == mask:
                table.append(subset)
                break
        else:
            raise SamplingExhausted("no strongly connected subset found")
    return validate(structure, MullerStates(frozenset(table)))


@dataclass(frozen=True)
class ExperimentConfig:
    sizes: tuple[int, ...]
    trials_per_size: int = 100
    alphabet_size: int = 3
    accepting_sets: int = 2
    mode: str = "exact"
    samples: int = 100000
    seed: int = 0


@dataclass(frozen=True)
class SizeResult:
    size: int
    trials: int
    isomorphic: int
    not_isomorphic: int


@dataclass(frozen=True)
class ExperimentReport:
    mode: str
    seed: int
    rows: tuple[SizeResult, ...]

    def lines(self) -> list[str]:
        out = [f"mode={self.mode}", f"seed={self.seed}"]
        for r in self.rows:
            out.append(
                f"size={r.size} trials={r.trials} "
                f"isomorphic={r.isomorphic} not_isomorphic={r.not_isomorphic}"
            )
        return out


def _lasso_draws(rng: random.Random, n: int, k: int) -> Iterator[tuple[list[int], list[int]]]:
    """The lassos sampled for an n-state acceptor over k symbols, one per
    next(): spoke and cycle as lists of symbol indices.

    The spoke has geometric length, at most 2n, and its symbols are
    rng.randrange(k); the cycle has rng.randint(1, 2n) symbols.  Those calls
    are inlined as the random module makes them, getrandbits of the bound's
    bit length redrawn until it falls below the bound, so the draws and the
    state of rng after each of them are the same.
    """
    random_ = rng.random
    getrandbits = rng.getrandbits
    k_bits = k.bit_length()
    width = 2 * n
    width_bits = width.bit_length()
    while True:
        spoke_len = 0
        while random_() < 0.5 and spoke_len < width:
            spoke_len += 1
        spoke = []
        for _ in range(spoke_len):
            i = getrandbits(k_bits)
            while i >= k:
                i = getrandbits(k_bits)
            spoke.append(i)
        cycle_len = getrandbits(width_bits)
        while cycle_len >= width:
            cycle_len = getrandbits(width_bits)
        cycle = []
        for _ in range(cycle_len + 1):
            i = getrandbits(k_bits)
            while i >= k:
                i = getrandbits(k_bits)
            cycle.append(i)
        yield spoke, cycle


class _Walks(dict):
    """The state a word leads to from each state, read on first lookup."""

    def __init__(self, delta, word):
        self.delta = delta
        self.word = word

    def __missing__(self, q: int) -> int:
        p = q
        for i in self.word:
            p = self.delta[p][i]
        self[q] = p
        return p


def _word_maps(structure: TransitionStructure):
    """The function from a word, as symbol indices, to m with m[q] the
    state the word leads to from q: bytes composed by one translate per
    symbol over its 256-byte column of delta or, past 256 states where a
    byte cannot name a state, a _Walks."""
    delta = structure.delta
    n = structure.state_count
    if n > 256:
        return lambda word: _Walks(delta, word)
    columns = [bytes(row[i] for row in delta).ljust(256, b"\0") for i in range(len(structure.alphabet))]
    identity = bytes(range(n))

    def compose(word):
        m = identity
        for i in word:
            m = m.translate(columns[i])
        return m

    return compose


def _sampled_distinguished(acceptor: Acceptor, samples: int, rng: random.Random) -> bool:
    """Replay of the sampling procedure: are all states pairwise split by
    random lassos?

    Each step draws one lasso and splits every block of states that no
    earlier lasso told apart by their verdicts on it.  Only blocks of two or
    more states are kept.  The run of cycle^omega from p and from g(p),
    where g reads the cycle once, has the same infinity sets, so states
    whose runs meet after the spoke and some readings of the cycle cannot
    split.  The cycle is read on until the runs meet, repeat or have read
    it n times, as runs that meet do so within n - 1 readings.  A block of
    three or more states is read through the maps of the spoke, f, and of
    the cycle, g, composed once per lasso (_word_maps): its states are
    grouped by g[f[q]], and g is applied to the set of those ends.  A
    block of two states a, b is kept as the pair index a·n + b, and the
    pair table, built when the first pair appears, moves it with one lookup
    per symbol: pd[i][a·n + b] = delta(a, i)·n + delta(b, i); the runs
    meet on the diagonal, the multiples of n + 1.  The lasso's
    LoopVerdicts is built only when the runs of some block stay apart, and
    is then shared by that lasso's blocks, so each boundary state reads the
    cycle at most once more per lasso; the table of a cycle of at most
    _KEPT_CYCLE_LEN symbols is kept for the later lassos that draw the same
    cycle.

    Equivalent states are never split, so if the exact partition is not
    discrete the answer is already False.  It is consulted once, after the
    warm-up, for the trials that sampling has not settled by then; the
    lassos drawn and the verdict are those of the full replay.
    """
    structure = acceptor.structure
    delta = structure.delta
    n = structure.state_count
    k = len(structure.alphabet)
    diagonal = n + 1
    warmup = 1000
    blocks = [list(range(n))] if n > 2 else []
    pairs = [1] if n == 2 else []  # the pair index of states 0 and 1
    pd = None
    word_map = _word_maps(structure)
    draws = _lasso_draws(rng, n, k)
    memo: dict[tuple[int, ...], LoopVerdicts] = {}

    def loop_verdicts(cycle):
        if len(cycle) > _KEPT_CYCLE_LEN:
            return LoopVerdicts(acceptor, cycle)
        key = tuple(cycle)
        table = memo.get(key)
        if table is None:
            table = memo[key] = LoopVerdicts(acceptor, cycle)
        return table

    for step in range(samples):
        if not blocks and not pairs:
            return True
        if step == warmup and any(len(b) > 1 for b in partition_language_equivalent(ParityView(acceptor))):
            return False
        spoke, cycle = next(draws)
        verdicts = None
        if pairs:
            if pd is None:
                pd = [
                    [delta[a][i] * n + delta[b][i] for a in range(n) for b in range(n)]
                    for i in range(k)
                ]
            parted = None
            for x in pairs:
                y = x
                for i in spoke:
                    y = pd[i][y]
                seen = []
                while y % diagonal and y not in seen and len(seen) < n:
                    seen.append(y)
                    for i in cycle:
                        y = pd[i][y]
                if y % diagonal:
                    # the runs stay apart
                    if verdicts is None:
                        verdicts = loop_verdicts(cycle)
                    if verdicts[y // n] != verdicts[y % n]:
                        if parted is None:
                            parted = set()
                        parted.add(x)
            if parted:
                pairs = [x for x in pairs if x not in parted]
        if blocks:
            f = word_map(spoke)
            g = word_map(cycle)
            split = []
            for block in blocks:
                ends = {g[f[q]] for q in block}
                seen = []
                while len(ends) > 1 and ends not in seen and len(seen) < n:
                    seen.append(ends)
                    ends = {g[p] for p in ends}
                if len(ends) == 1:
                    # the runs of all its states meet
                    split.append(block)
                    continue
                if verdicts is None:
                    verdicts = loop_verdicts(cycle)
                accepted, rejected = [], []
                for q in block:
                    (accepted if verdicts[g[f[q]]] else rejected).append(q)
                for part in (accepted, rejected):
                    if len(part) > 2:
                        split.append(part)
                    elif len(part) == 2:
                        pairs.append(part[0] * n + part[1])
            blocks = split
    return not blocks and not pairs


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Count how often a random acceptor already is its own quotient."""
    if cfg.mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {cfg.mode!r}")
    if cfg.trials_per_size < 1:
        raise ValueError(f"trials_per_size must be positive, got {cfg.trials_per_size}")
    if cfg.samples < 1:
        raise ValueError(f"samples must be positive, got {cfg.samples}")
    rows = []
    for size in cfg.sizes:
        iso = 0
        for trial in range(cfg.trials_per_size):
            acceptor = random_dma(
                size,
                f"{cfg.seed}/{size}/{trial}",
                cfg.alphabet_size,
                cfg.accepting_sets,
            )
            if cfg.mode == "exact":
                blocks = partition_language_equivalent(ParityView(acceptor))
                if all(len(b) == 1 for b in blocks):
                    iso += 1
            else:
                rng = random.Random(f"lasso/{cfg.seed}/{size}/{trial}")
                if _sampled_distinguished(acceptor, cfg.samples, rng):
                    iso += 1
        rows.append(
            SizeResult(size, cfg.trials_per_size, iso, cfg.trials_per_size - iso)
        )
    return ExperimentReport(cfg.mode, cfg.seed, tuple(rows))
