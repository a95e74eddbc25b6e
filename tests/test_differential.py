"""Differential tests: greedy runs, start lists and policy traces equal those
of the reference loops in helpers.py, on the whole corpus at every
breakpoint and on one n=100 coverage instance past the exhaustive guard."""

from helpers import reference_greedy, reference_policy, reference_start_list
from subknap.exact import breakpoints
from subknap.generate import GeneratorSpec, generate_instance
from subknap.greedy import greedy_sequence
from subknap.policy import execute_policy, make_fit_oracle, start_item_list


def _assert_matches_reference(instance, capacities) -> None:
    start = reference_start_list(instance)
    assert [(e.item_id, e.reason) for e in start_item_list(instance)] == start
    for gamma in capacities:
        run = greedy_sequence(instance, gamma)
        assert (run.order, run.marginals, run.prefix_sizes, run.k,
                run.overflow_item) == reference_greedy(instance, gamma)
        trace = execute_policy(instance, make_fit_oracle(gamma))
        assert trace.to_dict() == reference_policy(instance, gamma, start)


def test_corpus_matches_reference_at_every_breakpoint(corpus):
    for _, instance in corpus:
        _assert_matches_reference(instance, breakpoints(instance))


def test_coverage_n100_matches_reference():
    instance = generate_instance(
        GeneratorSpec("coverage", n=100, size_max=100, seed=0))
    total = sum(it.size for it in instance.items)
    _assert_matches_reference(
        instance, sorted({round(k * total / 20) for k in range(1, 21)}))
