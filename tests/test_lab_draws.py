"""The sampled replay's inlined lasso draws against the random module's own.

The replay's verdicts are only those of the randrange/randint formulation if
the two consume the generator identically, and that rests on the random
module's internals, so this module also runs without pytest:

    PYTHONPATH=src python tests/test_lab_draws.py
"""

import random

from rightcon.lab import _lasso_draws

STEPS = 10_000


def reference_lasso(rng: random.Random, n: int, k: int):
    """The sampled lasso drawn with rng.randrange and rng.randint."""
    spoke_len = 0
    while rng.random() < 0.5 and spoke_len < 2 * n:
        spoke_len += 1
    spoke = [rng.randrange(k) for _ in range(spoke_len)]
    cycle = [rng.randrange(k) for _ in range(rng.randint(1, 2 * n))]
    return spoke, cycle


def test_draws_match_randrange_and_randint():
    for n in (5, 10, 13):
        for k in (1, 2, 3, 4):
            seed = f"draws/{n}/{k}"
            ours, twin = random.Random(seed), random.Random(seed)
            draws = _lasso_draws(ours, n, k)
            for step in range(STEPS):
                assert next(draws) == reference_lasso(twin, n, k), (n, k, step)
            assert ours.getstate() == twin.getstate(), (n, k)


if __name__ == "__main__":
    import sys

    test_draws_match_randrange_and_randint()
    print(f"draws match on Python {sys.version.split()[0]}: {STEPS} lassos each at n = 5, 10, 13, k = 1..4")
