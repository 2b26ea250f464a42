"""Tables and states that tests use as fixtures or oracles.

None of these is part of the library: the paper's results, the CLI and the
benchmark never build them.
"""

import math
from typing import Sequence

import numpy as np
from scipy.optimize import linprog

from polybell.bipartite import JointState
from polybell.core import ModelSpec
from polybell.correlations import CorrelationTable, _pattern_table


def product_state(model_a: ModelSpec, model_b: ModelSpec, state_a, state_b) -> JointState:
    """Uncorrelated joint state of two local states (outer product matrix)."""
    return JointState(np.outer(state_a, state_b), model_a, model_b)


def random_extremal_joint_state(model_a: ModelSpec, rng: np.random.Generator,
                                model_b: ModelSpec | None = None) -> JointState:
    """A random vertex of the maximal tensor product polytope.

    Maximizes a random linear functional over the normalized locally
    positive matrices by linear programming; the optimum of a generic
    objective over a polytope is a vertex, i.e. an extremal joint state.
    """
    if model_b is None:
        model_b = model_a
    da, db = model_a.dim, model_b.dim
    rows = [-np.kron(e, f) for e in model_a.ray_effects for f in model_b.ray_effects]
    res = linprog(
        c=rng.standard_normal(da * db),
        A_ub=np.array(rows),
        b_ub=np.zeros(len(rows)),
        A_eq=np.kron(model_a.unit_effect, model_b.unit_effect)[None, :],
        b_eq=np.ones(1),
        bounds=(None, None),
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"vertex search failed: {res.message}")
    return JointState(matrix=res.x.reshape(da, db), model_a=model_a, model_b=model_b)


# An orthogonal change of coordinates that turns some rays of every polygon
# to a negative third coordinate: they have no angular order, so the search
# falls back to every permutation.
TILT = np.array([[1.0, 0.0, 0.0],
                 [0.0, math.cos(2.0), -math.sin(2.0)],
                 [0.0, math.sin(2.0), math.cos(2.0)]])


def tilted(model: ModelSpec) -> ModelSpec:
    """The model in coordinates turned by TILT; isomorphisms become TILT T TILT^T."""
    return ModelSpec(f"tilted-{model.name}", 3, model.extremal_states @ TILT.T,
                     model.extremal_effects @ TILT.T, TILT @ model.unit_effect,
                     model.ray_extremal)


def correlator_matrix(table: CorrelationTable) -> np.ndarray:
    """All correlators E(x, y); requires every setting to be dichotomic."""
    if any(k != 2 for k in table.outcomes_a) or any(k != 2 for k in table.outcomes_b):
        raise ValueError("correlator matrix needs dichotomic settings throughout")
    p = table.probs
    return p[0, 0] + p[1, 1] - p[0, 1] - p[1, 0]


def pr_box_table() -> CorrelationTable:
    """The extremal no-signalling box: a XOR b == x AND y, uniformly."""
    return _pattern_table(lambda a, b, x, y: (a ^ b) == (x & y))


def deterministic_table(assign_a: Sequence[int],
                        assign_b: Sequence[int]) -> CorrelationTable:
    """Local deterministic dichotomic table: fixed outcome per setting."""
    probs = np.zeros((2, 2, len(assign_a), len(assign_b)))
    for x, a in enumerate(assign_a):
        for y, b in enumerate(assign_b):
            probs[a, b, x, y] = 1.0
    return CorrelationTable(probs, (2,) * len(assign_a), (2,) * len(assign_b))
