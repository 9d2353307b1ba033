"""Correctness checks that avoid the code path they check.

Scores are re-derived with the frozen per-pair evaluator in
``benchmarks/_seed_evaluator.py`` instead of the compiled engine, and
execute outputs are compared link by link with a full-index run
recorded by :mod:`record`. Checks return ``(problems, drifted)``:
``problems`` are wrong outputs, ``drifted`` are links that show the
known score-drift defect below. Both are counted as failed operations;
only problems make a run incorrect.

Known defect (score drift): a weighted-mean aggregation is computed as
``weights @ scores / sum(weights)`` over a whole batch, and numpy rounds
the product differently for a pair at the tail of a batch than for one
in its body. The same pair therefore scores one unit in the last place
apart depending on where blocking puts it in a shard, and the frozen
evaluator does the same. A link counts as drifted only if its score and
the expected one are exactly the two values the frozen evaluator itself
gives that pair alone and inside a longer batch; anything else is a
problem.
"""

from __future__ import annotations

import random

import workloads

#: Non-link pairs re-scored per execute sample besides the missed gold
#: pairs; enough to catch a systematic scoring or blocking loss.
SAMPLED_NON_LINKS = 150


def _evaluator(pairs):
    from benchmarks._seed_evaluator import SeedPairEvaluator

    return SeedPairEvaluator(pairs)


def _drifts(rule, entity_a, entity_b, scores) -> bool:
    """Whether ``scores`` are the frozen evaluator's own two values for
    the pair: evaluated alone, and in the body of a longer batch."""
    alone = float(_evaluator([(entity_a, entity_b)]).scores(rule.root)[0])
    batched = float(_evaluator([(entity_a, entity_b)] * 8).scores(rule.root)[0])
    return alone != batched and all(s in (alone, batched) for s in scores)


def _f1(predictions, labels) -> float:
    tp = sum(1 for p, l in zip(predictions, labels) if p and l)
    fp = sum(1 for p, l in zip(predictions, labels) if p and not l)
    fn = sum(1 for p, l in zip(predictions, labels) if l and not p)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall <= 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def check_learned(workload, seed, dataset, validation, result) -> list[str]:
    """The learned rule matches its recorded digest, and its validation
    F1 re-derived per pair equals the F1 the learner reported."""
    problems = []
    digest = workloads.rule_digest(result.best_rule)
    recorded = workloads.expected().get(workload, {}).get(str(seed), {})
    if recorded.get("rule_digest") != digest:
        problems.append(
            f"{workload} seed {seed}: learned rule {digest[:12]} != recorded "
            f"{str(recorded.get('rule_digest'))[:12]}"
        )
    pairs, labels = validation.labelled_pairs(dataset.source_a, dataset.source_b)
    predictions = _evaluator(pairs).predictions(result.best_rule.root)
    rederived = _f1(list(predictions), labels)
    reported = result.history[-1].validation_f_measure
    if rederived != reported:
        problems.append(
            f"{workload} seed {seed}: validation F1 {reported!r} but the "
            f"per-pair evaluator gives {rederived!r}"
        )
    return problems


def rescore(rule, dataset, links, seed: int) -> tuple[list[str], list[str]]:
    """Every link re-scores identically with the frozen evaluator, and
    the gold pairs the engine missed plus a seeded sample of other
    non-links score below the match threshold."""
    problems, drifted = [], []
    source_a, source_b = dataset.source_a, dataset.source_b
    linked = {(l.uid_a, l.uid_b) for l in links}
    if source_a is source_b:
        linked |= {(b, a) for a, b in linked}
    pairs = [(source_a.get(l.uid_a), source_b.get(l.uid_b)) for l in links]
    missed = [(a, b) for a, b in dataset.links.positive if (a, b) not in linked]
    rng = random.Random(seed)
    uids_a, uids_b = source_a.uids(), source_b.uids()
    others = []
    while len(others) < SAMPLED_NON_LINKS:
        a, b = rng.choice(uids_a), rng.choice(uids_b)
        if a != b and (a, b) not in linked:
            others.append((a, b))
    negatives = [(source_a.get(a), source_b.get(b)) for a, b in missed + others]
    # Links first: the sampled negatives fill the tail of the batch.
    scores = _evaluator(pairs + negatives).scores(rule.root)
    for link, pair, score in zip(links, pairs, scores[: len(pairs)]):
        score = float(score)
        if score == link.score and score >= 0.5:
            continue
        name = f"{link.uid_a}-{link.uid_b}"
        if score >= 0.5 and _drifts(rule, *pair, (score, link.score)):
            drifted.append(name)
        else:
            problems.append(f"link {name}: engine score {link.score!r}, "
                            f"per-pair evaluator {score!r}")
    for (a, b), score in zip(missed + others, scores[len(pairs):]):
        if score >= 0.5:
            problems.append(
                f"pair {a}-{b} scores {float(score)!r} per pair but is not linked"
            )
    return problems[:20], drifted


def compare_links(rule, dataset, links, expected_lines) -> tuple[list[str], list[str]]:
    """``links`` equal the expected link lines: the same pairs, in the
    same order, with the same score bits (or a drifted score)."""
    got = workloads.link_lines(links)
    if got == expected_lines:
        return [], []

    def by_pair(lines):
        table = {}
        for line in lines:
            a, b, score = line.split("\t")
            table[a, b] = float.fromhex(score)
        return table

    have, want = by_pair(got), by_pair(expected_lines)
    if have.keys() != want.keys():
        extra = sorted(have.keys() - want.keys())[:3]
        lost = sorted(want.keys() - have.keys())[:3]
        return [f"link pairs differ: extra {extra}, missing {lost}"], []
    problems, drifted = [], []
    for pair, score in have.items():
        if score == want[pair]:
            continue
        entities = (dataset.source_a.get(pair[0]), dataset.source_b.get(pair[1]))
        if _drifts(rule, *entities, (score, want[pair])):
            drifted.append("-".join(pair))
        else:
            problems.append(f"link {'-'.join(pair)}: score {score!r}, "
                            f"expected {want[pair]!r}")
    if not problems and not drifted:
        problems.append("same links, different order")
    return problems[:20], drifted


def check_links(rule, dataset, links, seed: int) -> tuple[list[str], list[str]]:
    """Execute output: re-scored per pair, and equal to the recorded
    full-index links of this input (blocking lost nothing)."""
    problems, drifted = rescore(rule, dataset, links, seed)
    recorded = workloads.expected().get("cora-execute", {}).get(str(seed))
    if recorded is None:
        return problems + [f"cora-execute seed {seed}: no recorded links"], drifted
    more, drifted_more = compare_links(rule, dataset, links, recorded["links"])
    return problems + more, sorted(set(drifted) | set(drifted_more))
