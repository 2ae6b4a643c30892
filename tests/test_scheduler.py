import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from projsplit import (ConfigError, EngineConfig, PrimalDualPoint, SchedulePolicy, Vec,
                       audit_schedule, build, run, scheduler)
from projsplit.scheduler import HistoryBuffer, delayed_index, select_blocks
from projsplit.errors import HistoryError

C = scheduler._CHUNK


def test_full_policy_selects_everything():
    policy = SchedulePolicy(kind="full")
    for k in (1, 2, 10):
        assert select_blocks(policy, 4, k, [0, 0, 0, 0]) == (0, 1, 2, 3)


def test_overdue_blocks_are_forced():
    policy = SchedulePolicy(kind="seeded-random", p_select=0.01, M=4, seed=0)
    # block 2 last selected at iteration 1; at k=5 the gap reaches M
    sel = select_blocks(policy, 3, 5, [4, 4, 1])
    assert 2 in sel


def _simulate_selections(policy, n, iters):
    last = [0] * n
    trace = []
    for k in range(1, iters + 1):
        sel = select_blocks(policy, n, k, last)
        trace.append(sel)
        for i in sel:
            last[i] = k
    return trace


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31), p=st.floats(0.05, 0.9),
       m_window=st.integers(1, 6), n=st.integers(1, 5))
def test_random_policy_satisfies_coverage_window(seed, p, m_window, n):
    policy = SchedulePolicy(kind="seeded-random", p_select=p, M=m_window, seed=seed)
    trace = _simulate_selections(policy, n, 40)
    for i in range(n):
        gap = 0
        for sel in trace:
            gap = 0 if i in sel else gap + 1
            assert gap < m_window


def test_selection_is_deterministic_and_nonempty():
    policy = SchedulePolicy(kind="seeded-random", p_select=0.3, M=10, seed=77)
    a = _simulate_selections(policy, 4, 30)
    b = _simulate_selections(policy, 4, 30)
    assert a == b
    assert all(len(sel) >= 1 for sel in a)


def test_delayed_index_zero():
    assert delayed_index(SchedulePolicy(delay_kind="zero"), 0, 7) == 7
    # the engine skips delayed_index when D=0: every read is then current
    assert delayed_index(SchedulePolicy(delay_kind="seeded-random", D=0), 0, 7) == 7


def test_delayed_index_seeded_random_bounds_and_replay():
    policy = SchedulePolicy(D=3, delay_kind="seeded-random", seed=5)
    draws = [delayed_index(policy, i, 5) for i in range(4)]
    assert all(2 <= d <= 5 for d in draws)
    assert draws == [delayed_index(policy, i, 5) for i in range(4)]


# -- chunk-seeded draws ---------------------------------------------------------

BOUNDARY_ITERATIONS = (1, 2, C - 1, C, C + 1, 2 * C - 1, 2 * C, 2 * C + 1, 5 * C + 3)


def _clear_tables():
    scheduler._selection_table.cache_clear()
    scheduler._delay_draws.cache_clear()


def _expected_selection(seed, n, k, p_select):
    chunk, row = divmod(k - 1, C)
    draws = np.random.default_rng([seed, 1, chunk]).random((C, n))[row]
    return tuple(i for i in range(n) if draws[i] < p_select)


def _expected_delay(seed, i, k, max_delay):
    chunk, row = divmod(k - 1, C)
    u = np.random.default_rng([seed, 2, chunk, i]).random(C)[row]
    lo = max(1, k - max_delay)
    return min(k, lo + math.floor(u * (k + 1 - lo)))


def test_draws_are_pure_functions_across_chunk_boundaries():
    n, seed = 6, 31
    policy = SchedulePolicy(kind="seeded-random", p_select=0.5, M=10 ** 6, D=4,
                            delay_kind="seeded-random", seed=seed)

    def draws(order):
        _clear_tables()
        # nothing is overdue, so the selection is the seeded draw (or the
        # forced least-recent block when the draw is empty)
        return {(k, i): (select_blocks(policy, n, k, [k - 1] * n), delayed_index(policy, i, k))
                for k in order for i in range(n)}

    forward = draws(BOUNDARY_ITERATIONS)
    assert forward == draws(BOUNDARY_ITERATIONS[::-1])
    assert forward == draws(sorted(BOUNDARY_ITERATIONS, key=lambda k: (k % 7, k)))
    for (k, i), (selected, d) in forward.items():
        assert selected == (_expected_selection(seed, n, k, 0.5) or (0,))
        assert d == _expected_delay(seed, i, k, 4)


def test_delays_are_uniform_on_the_staleness_window():
    max_delay = 3
    policy = SchedulePolicy(kind="seeded-random", D=max_delay, delay_kind="seeded-random",
                            seed=2024)
    for k in range(1, 2 * C + 2):
        for i in range(3):
            assert max(1, k - max_delay) <= delayed_index(policy, i, k) <= k
    counts = [0] * (max_delay + 1)
    iterations = range(max_delay + 1, max_delay + 1 + 4 * C)
    for k in iterations:
        for i in range(4):
            counts[k - delayed_index(policy, i, k)] += 1
    total = sum(counts)
    expected = total / len(counts)
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < 16.27  # chi-square, 3 degrees of freedom, 0.999 quantile


def test_selection_frequency_matches_p_select():
    n, p_select, iters = 16, 0.5, 2000
    policy = SchedulePolicy(kind="seeded-random", p_select=p_select, M=10 ** 6, seed=77)
    hits = sum(len(select_blocks(policy, n, k, [k - 1] * n)) for k in range(1, iters + 1))
    trials = n * iters
    # four standard deviations; an empty draw (forced block) has probability 2^-16
    assert abs(hits / trials - p_select) <= 4 * math.sqrt(p_select * (1 - p_select) / trials)


def test_runs_across_chunks_pass_the_schedule_audit():
    spec, _ = build("lasso", {"m": 20, "d": 50})
    policy = SchedulePolicy(kind="seeded-random", p_select=0.3, M=4, D=3,
                            delay_kind="seeded-random", seed=5)
    trace = run(spec, EngineConfig(max_iters=3 * C), policy)
    assert trace.iterations > 2 * C
    results = audit_schedule(trace.records, spec.n, 4, 3)
    assert all(r.passed for r in results), [r.line() for r in results]


@pytest.mark.slow
def test_long_simulation_builds_one_generator_per_chunk_and_table(monkeypatch):
    n, iters = 64, 10 ** 5
    built = [0]
    default_rng = np.random.default_rng

    def counted(*args, **kwargs):
        built[0] += 1
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted)
    _clear_tables()
    policy = SchedulePolicy(kind="seeded-random", p_select=0.5, M=8, D=5,
                            delay_kind="seeded-random", seed=9001).resolved(n)
    last = [0] * n
    for k in range(1, iters + 1):
        for i in select_blocks(policy, n, k, last):
            last[i] = k
            delayed_index(policy, i, k)
    assert built[0] <= math.ceil(iters / C) * (n + 1)
    assert scheduler._selection_table.cache_info().currsize <= 64
    assert scheduler._delay_draws.cache_info().currsize <= 1024


def test_table_caches_stay_bounded_over_many_seeds():
    _clear_tables()
    for seed in range(3000):
        policy = SchedulePolicy(kind="seeded-random", D=2, delay_kind="seeded-random",
                                seed=seed)
        select_blocks(policy, 3, 1, [0, 0, 0])
        delayed_index(policy, 0, 1)
    assert scheduler._selection_table.cache_info().currsize == 64
    assert scheduler._delay_draws.cache_info().currsize == 1024


def _point(val):
    return PrimalDualPoint(Vec([val]))


def test_history_zero_depth_keeps_only_current():
    buf = HistoryBuffer(0)
    buf.store(1, _point(1.0))
    buf.store(2, _point(2.0))
    assert buf.read(2).z.entries[0] == 2.0
    with pytest.raises(HistoryError):
        buf.read(1)


def test_history_window_reads():
    buf = HistoryBuffer(3)
    for k in range(1, 6):
        buf.store(k, _point(float(k)))
    assert buf.read(2).z.entries[0] == 2.0
    with pytest.raises(HistoryError):
        buf.read(1)


def test_history_rejects_out_of_order_store():
    buf = HistoryBuffer(2)
    buf.store(3, _point(0.0))
    with pytest.raises(HistoryError):
        buf.store(3, _point(1.0))


def test_policy_validation():
    with pytest.raises(ConfigError):
        SchedulePolicy(kind="sometimes")
    with pytest.raises(ConfigError):
        SchedulePolicy(M=0)
    with pytest.raises(ConfigError):
        SchedulePolicy(D=-1)
    with pytest.raises(ConfigError):
        SchedulePolicy(p_select=0.0)
    with pytest.raises(ConfigError, match="M"):
        SchedulePolicy(M=True)
    with pytest.raises(ConfigError, match="seed"):
        SchedulePolicy(kind="seeded-random", seed=-1)


def test_resolved_fills_in_window():
    assert SchedulePolicy().resolved(7).M == 7
    assert SchedulePolicy(M=2).resolved(7).M == 2
