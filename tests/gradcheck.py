"""Finite-difference gradient harness shared by model and acceptance tests."""

import numpy as np

from oracles import WeightedTriplet, numeric_gradient
from walkaug import (
    ModelConfig,
    NewRelationRegistry,
    SharingStrategy,
    init_state,
    loss_and_grad,
    negative_sample,
)
from walkaug.sharing import relation_vector

MINTED = NewRelationRegistry(3, [(0, 1), (2, 1, 0)])  # shared metapaths over relations 0..2


def build_case(rng, scoring, kind, weight=1.0, include_original=False):
    """One random small model plus a weighted positive and two negatives."""
    strategy = SharingStrategy(
        kind=kind,
        basis_count=4 if kind == "basis" else None,
        basis_include_original=include_original,
    )
    config = ModelConfig(
        scoring=scoring, dim=5, margin=float(rng.uniform(0.5, 4.0)),
        negatives=2, seed=0,
    )
    num_entities = 8
    state = init_state(num_entities, MINTED, config, strategy, rng)
    relation = int(rng.choice([0, 1, 2, 3, 4]))
    positive = WeightedTriplet(
        int(rng.integers(num_entities)), relation, int(rng.integers(num_entities)),
        weight,
    )
    negatives = negative_sample(positive, num_entities, 2, rng)
    return state, strategy, config, positive, negatives


def away_from_kinks(state, strategy, config, positive, negatives) -> bool:
    """True when no |.| fold or zero norm sits within finite-difference reach."""
    if config.scoring == "distmult":
        return True
    r = relation_vector(state, strategy, [positive.relation])[0]
    margin = np.inf
    for t in [positive] + list(negatives):
        delta = state.entity_emb[t.head] + r - state.entity_emb[t.tail]
        if config.scoring == "transe_l1":
            margin = min(margin, float(np.min(np.abs(delta))))
        else:
            margin = min(margin, float(np.sqrt(delta @ delta)))
    return margin > 1e-3


def check_case(state, strategy, config, positive, negatives, rtol=1e-4, atol=1e-7):
    """Compare every analytic gradient against central differences.

    Returns (max relative error over well-scaled entries, failure list).
    """
    def fn():
        return loss_and_grad(positive, negatives, state, strategy, config)[0]

    _, grads = loss_and_grad(positive, negatives, state, strategy, config)
    failures = []
    worst = 0.0

    def compare(name, analytic, target_array):
        nonlocal worst
        numeric = numeric_gradient(fn, target_array)
        a = np.asarray(analytic, dtype=np.float64)
        diff = np.abs(a - numeric)
        scale = np.maximum(np.abs(a), np.abs(numeric))
        # relative error is meaningless once the entry sinks toward the
        # central-difference noise floor (~1e-10); judge those absolutely
        big = scale > 1e-5
        rel_max = float((diff[big] / scale[big]).max()) if big.any() else 0.0
        worst = max(worst, rel_max)
        if rel_max >= rtol or diff[~big].max(initial=0.0) > atol:
            failures.append((name, rel_max))

    def dense(table, rows, grad):
        out = np.zeros_like(table)
        if rows.size:  # an untouched table has an empty (0, 0) gradient
            out[rows] = grad  # the rows are unique
        return out

    compare("entity_emb", dense(state.entity_emb, grads.entity_rows, grads.entity_grad),
            state.entity_emb)
    compare("relation_emb", dense(state.relation_emb, grads.relation_rows, grads.relation_grad),
            state.relation_emb)

    if state.rnn is not None:
        for name in ("w_in", "w_rec", "bias"):
            param = getattr(state.rnn, name)
            analytic = getattr(grads.rnn, name) if grads.rnn is not None else np.zeros_like(param)
            compare(f"rnn_{name}", analytic, param)
    if state.basis is not None:
        compare("basis_vectors", grads.basis_vectors if grads.basis_vectors is not None
                else np.zeros_like(state.basis.vectors), state.basis.vectors)
        compare("basis_coef", dense(state.basis.coefficients, grads.basis_coef_rows,
                                    grads.basis_coef_grad), state.basis.coefficients)
    return worst, failures


def run_random_cases(count, seed=0, rtol=1e-4):
    """`count` randomized checks over every valid scoring/strategy pair."""
    rng = np.random.default_rng(seed)
    combos = [
        (scoring, kind)
        for scoring in ("transe_l2", "transe_l1", "distmult")
        for kind in ("none", "model", "rnn", "basis")
        if not (scoring == "distmult" and kind == "model")
    ]
    worst = 0.0
    all_failures = []
    for i in range(count):
        scoring, kind = combos[i % len(combos)]
        weight = float(rng.choice([0.4, 1.0, 2.3]))
        include_original = kind == "basis" and i % 2 == 0
        for _ in range(60):
            case = build_case(rng, scoring, kind, weight, include_original)
            if away_from_kinks(*case):
                break
        else:
            raise AssertionError("could not draw a kink-free case")
        rel, failures = check_case(*case, rtol=rtol)
        worst = max(worst, rel)
        all_failures.extend((i, scoring, kind, f) for f in failures)
    return worst, all_failures
