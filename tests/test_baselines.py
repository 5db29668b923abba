"""Reference enumerators: level BFS behaviour, the brute-force oracle, and
cross-enumerator agreement."""

from __future__ import annotations

import pytest

from cutlattice.baselines import brute_force_downsets, traditional_bfs
from cutlattice.cli import parse_predicate
from cutlattice.model import (
    ResourceLimitError,
    UsageError,
    make_computation,
)
from cutlattice.traceio import GenSpec, generate_random
from cutlattice.traversal import traverse_bfs
from cutlattice.uniflow import build_uniflow_partition

from conftest import oracle_rank_sets, random_computation
from reference import cut_from_display


def dv(*values):
    return cut_from_display(values)


class TestTraditionalBfs:
    def test_six_event_lattice_counts(self, six_event):
        stats = traditional_bfs(six_event)
        assert stats.cuts_visited == 12
        assert [stats.per_rank[r] for r in range(7)] == [1, 2, 2, 2, 2, 2, 1]

    def test_visits_in_rank_lexical_order(self, six_event):
        seen = []
        traditional_bfs(six_event, lambda c, r, m: seen.append(c) or True)
        expected = [
            dv(0, 0), dv(0, 1), dv(1, 0), dv(0, 2), dv(1, 1), dv(0, 3),
            dv(1, 2), dv(1, 3), dv(2, 2), dv(2, 3), dv(3, 2), dv(3, 3),
        ]
        assert seen == expected

    def test_empty_computation(self):
        stats = traditional_bfs(make_computation(2, []))
        assert stats.cuts_visited == 1

    def test_never_visits_a_cut_twice(self):
        comp = random_computation(seed=121, n=4, events=18, p=0.3)
        seen = []
        traditional_bfs(comp, lambda c, r, m: seen.append(c) or True)
        assert len(seen) == len(set(seen))

    def test_count_matches_uniflow(self):
        comp = random_computation(seed=122, n=5, events=20, p=0.3)
        part = build_uniflow_partition(comp)
        assert traditional_bfs(comp).cuts_visited == traverse_bfs(part).cuts_visited

    def test_rank_filter_restricts_visits_not_expansion(self, six_event):
        stats = traditional_bfs(six_event, rank_filter=(3, 3))
        assert set(stats.per_rank) == {3}
        assert stats.per_rank[3] == 2
        assert set(stats.expanded_per_rank) == {0, 1, 2}

    def test_reversed_rank_filter_rejected(self, six_event):
        with pytest.raises(UsageError, match=r"^rank range 2\.\.1 invalid for 6 events$"):
            traditional_bfs(six_event, rank_filter=(2, 1))

    def test_memory_cap_raises_resource_error(self):
        comp = random_computation(seed=123, n=5, events=20, p=0.0)
        with pytest.raises(ResourceLimitError) as exc_info:
            traditional_bfs(comp, max_stored_cuts=10)
        assert exc_info.value.stats is not None
        assert exc_info.value.stats.peak_stored_cuts > 10

    @pytest.mark.parametrize("records", [[(1, 1, []), (2, 2, []), (3, 1, [2])], []],
                             ids=["fork-join", "empty"])
    def test_cap_below_the_start_level_raises_at_rank_0(self, records):
        """The start level's one cut counts against the cap, even when no
        level is ever expanded."""
        comp = make_computation(2, records)
        with pytest.raises(ResourceLimitError, match="cap 0 exceeded at rank 0") as exc_info:
            traditional_bfs(comp, rank_filter=(0, 0), max_stored_cuts=0)
        assert exc_info.value.stats.peak_stored_cuts == 1
        assert exc_info.value.stats.cuts_visited == 0
        assert traditional_bfs(comp, rank_filter=(0, 0), max_stored_cuts=1).cuts_visited == 1

    def test_peak_covers_widest_level(self):
        comp = random_computation(seed=124, n=4, events=16, p=0.3)
        stats = traditional_bfs(comp)
        assert stats.peak_stored_cuts >= max(stats.per_rank.values())

    def test_visitor_early_stop(self, six_event):
        seen = []
        stats = traditional_bfs(six_event, lambda c, r, m: seen.append(c) or len(seen) < 4)
        assert stats.early_stopped
        assert stats.cuts_visited == 4

    def test_counts_after_a_mid_level_early_stop(self, six_event):
        """The stop comes at the first of rank 2's two cuts: that rank
        counts one visited cut, and no rank-2 cut has been expanded."""
        seen = []
        stats = traditional_bfs(six_event, lambda c, r, m: seen.append(c) or len(seen) < 4)
        assert stats.cuts_visited == 4
        assert stats.per_rank == {0: 1, 1: 2, 2: 1}
        assert stats.expanded_per_rank == {0: 1, 1: 2}

    def test_counts_after_a_mid_level_cap_error(self, six_event):
        """A cap of 3 is exceeded while expanding the first of rank 1's two
        cuts: every rank-1 cut was visited, one was expanded."""
        with pytest.raises(ResourceLimitError, match="cap 3 exceeded at rank 1") as exc_info:
            traditional_bfs(six_event, max_stored_cuts=3)
        stats = exc_info.value.stats
        assert stats.cuts_visited == 3
        assert stats.per_rank == {0: 1, 1: 2}
        assert stats.expanded_per_rank == {0: 1, 1: 1}
        assert (stats.peak_stored_cuts, stats.max_level_width) == (4, 2)

    def test_remap_callback_is_identity(self, six_event):
        pairs = []
        traditional_bfs(six_event, lambda c, r, m: pairs.append((c, m())) or True)
        assert all(c == m for c, m in pairs)

    def test_benchmark_window_counters(self):
        """The predicate benchmark's trace, window and predicate: every
        counter and the match count are pinned."""
        comp = generate_random(GenSpec(10, 30, 0.3, 1))
        pred = parse_predicate("p1>=2 & p10<=1")
        matches = 0

        def count(cut, rank, remap_fn):
            nonlocal matches
            matches += pred.matches(cut, rank)

        stats = traditional_bfs(comp, count, rank_filter=(0, 11))
        assert stats.cuts_visited == 90_850
        assert [stats.per_rank[r] for r in range(12)] == [
            1, 10, 54, 207, 624, 1563, 3364, 6361, 10735, 16356, 22696, 28879,
        ]
        assert (stats.peak_stored_cuts, stats.max_level_width) == (51_575, 28_879)
        assert sum(stats.expanded_per_rank.values()) == 61_971
        assert matches == 16_497


class TestBruteForceDownsets:
    def test_six_event_lattice(self, six_event):
        by_rank = brute_force_downsets(six_event)
        assert sum(len(s) for s in by_rank.values()) == 12

    def test_chain_has_prefixes_only(self):
        k = 7
        comp = make_computation(1, [(i, 1, []) for i in range(1, k + 1)])
        by_rank = brute_force_downsets(comp)
        assert sum(len(s) for s in by_rank.values()) == k + 1
        assert all(len(s) == 1 for s in by_rank.values())

    def test_independent_chains_product_rule(self):
        comp = make_computation(
            2, [(1, 1, []), (2, 1, []), (3, 1, []), (4, 2, []), (5, 2, []), (6, 2, [])]
        )
        by_rank = brute_force_downsets(comp)
        assert sum(len(s) for s in by_rank.values()) == 16

    def test_size_guard(self):
        comp = make_computation(2, [(i, 1 + i % 2, []) for i in range(1, 27)])
        with pytest.raises(UsageError, match="guard"):
            brute_force_downsets(comp)

    def test_matches_independent_oracle(self):
        comp = random_computation(seed=131, n=3, events=15, p=0.4)
        assert brute_force_downsets(comp) == oracle_rank_sets(comp)


class TestCrossEnumeratorAgreement:
    @pytest.mark.parametrize("seed,n,events,p", [
        (141, 2, 16, 0.3),
        (142, 3, 18, 0.3),
        (143, 6, 18, 0.7),
        (144, 10, 20, 0.3),
    ])
    def test_per_rank_sets_identical(self, seed, n, events, p):
        comp = random_computation(seed, n, events, p)
        part = build_uniflow_partition(comp)

        brute = brute_force_downsets(comp)
        traditional: dict[int, set] = {}
        traditional_bfs(
            comp, lambda c, r, m: traditional.setdefault(r, set()).add(c) or True
        )
        uniflow: dict[int, set] = {}
        traverse_bfs(
            part, lambda c, r, m: uniflow.setdefault(r, set()).add(m()) or True
        )
        assert brute == traditional == uniflow
