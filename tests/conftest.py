from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest

from enlab.finite_prob import adapted, build_space
from enlab.random_times import RandomTimeMap, analyze, generate_honest_model

Q = Fraction

# Two-period binary tree shared by most exact fixtures: four outcomes of
# probability 1/4, revealed one coordinate per step.
TREE = {
    "outcomes": ["uu", "ud", "du", "dd"],
    "prob": {o: "1/4" for o in ["uu", "ud", "du", "dd"]},
    "partitions": [
        [["uu", "ud", "du", "dd"]],
        [["uu", "ud"], ["du", "dd"]],
        [["uu"], ["ud"], ["du"], ["dd"]],
    ],
}

# symmetric +-1 walk on the tree
WALK = {
    "uu": [0, 1, 2],
    "ud": [0, 1, 0],
    "du": [0, -1, 0],
    "dd": [0, -1, -2],
}

STOP_TAU = {"uu": 1, "ud": 1, "du": 1, "dd": 1}            # deterministic time
TENT_TAU = {"uu": 0, "ud": 2, "du": 2, "dd": 0}            # last zero of the walk

# Two-period model whose horizon atom {a, b} is not a singleton: a time
# with different values on a and b, both reached by the horizon, is
# dishonest there and nowhere before it.
COARSE = {
    "outcomes": ["a", "b", "c", "d"],
    "prob": {"a": "1/8", "b": "3/8", "c": "1/4", "d": "1/4"},
    "partitions": [
        [["a", "b", "c", "d"]],
        [["a", "b"], ["c", "d"]],
        [["a", "b"], ["c"], ["d"]],
    ],
}

# a walk on COARSE, constant on its horizon atom {a, b}
COARSE_WALK = {
    "a": [0, 1, 1],
    "b": [0, 1, 1],
    "c": [0, -1, 0],
    "d": [0, -1, -2],
}


def every_time(description):
    """(tau, analysis) for each time with values in {0, 1, 2} on a
    two-period model: the 81 maps of four outcomes."""
    space = build_space(description)
    outcomes = description["outcomes"]
    for values in product(range(3), repeat=len(outcomes)):
        tau = dict(zip(outcomes, values))
        yield tau, analyze(space, RandomTimeMap.build(tau, space))


@pytest.fixture(scope="session")
def tree_space():
    return build_space(TREE)


@pytest.fixture(scope="session")
def walk(tree_space):
    return adapted(WALK, tree_space)


@pytest.fixture(scope="session")
def stop_analysis(tree_space):
    return analyze(tree_space, RandomTimeMap.build(STOP_TAU, tree_space))


@pytest.fixture(scope="session")
def tent_analysis(tree_space):
    return analyze(tree_space, RandomTimeMap.build(TENT_TAU, tree_space))


@pytest.fixture(scope="session")
def class_h_cases():
    """(asset, analysis) pairs: the generated models of seeds 1..20
    (depth 5, branching 3), and every class-H time of every_time on TREE
    and on COARSE with WALK and COARSE_WALK as the asset."""
    cases = [generate_honest_model(seed, depth=5, branching=3)[2:]
             for seed in range(1, 21)]
    for description, rows in ((TREE, WALK), (COARSE, COARSE_WALK)):
        cases += [(adapted(rows, a.space), a)
                  for _, a in every_time(description) if a.class_h]
    return cases
