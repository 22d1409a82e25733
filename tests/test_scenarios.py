"""Tests for the canonical and random instance generators."""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import generator_drawer
from generator_drawer import assert_same_position, generator
from strategia.domain import constant_class
from strategia.errors import InvalidDistributionError
from strategia.losses import LossKind, class_loss_table, expected_loss
from strategia.rng import _block_words, _stream_words
from strategia.scenarios import (
    _distinct_random_labels,
    _random_arrays,
    gen_component_case,
    gen_example1,
    gen_example2,
    gen_obs1,
    gen_random,
    obs1_distribution,
    obs1_indices,
)


class TestExample1:
    def test_structure(self):
        sc = gen_example1(10)
        assert sc.domain.size == 10
        assert len(sc.hclass) == 11
        # two-way chain: n-1 edges in each direction
        assert sc.graph.edge_count() == 18
        for i in range(9):
            assert set(sc.graph.successors(i + 1)) == {i, i + 2} & set(range(10))

    def test_balanced_labeling_for_even_n(self):
        """Both constant rules pay exactly half under the default split."""
        sc = gen_example1(10)
        for h in constant_class(sc.domain):
            assert expected_loss(LossKind.binary(), h, sc.dist) == 0.5

    def test_custom_marginal_reweights_cells(self):
        m = [0.7, 0.1, 0.1, 0.1]
        sc = gen_example1(4, marginal=m)
        assert np.allclose(sc.dist.marginal(), m)

    def test_marginal_length_mismatch_rejected(self):
        with pytest.raises(InvalidDistributionError):
            gen_example1(4, marginal=[0.5, 0.5])

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            gen_example1(1)


class TestExample2:
    def test_structure(self):
        sc = gen_example2(0.25, 0.15, 0.35, 0.25)
        assert sc.domain.size == 4
        assert len(sc.hclass) == 5
        assert sc.graph.edges() == [(0, 1), (1, 2), (2, 3)]
        # support: low points labeled 0, high points labeled 1
        assert np.allclose(sc.dist.weights[:, 0], [0.25, 0.15, 0.0, 0.0])
        assert np.allclose(sc.dist.weights[:, 1], [0.0, 0.0, 0.35, 0.25])

    @given(st.floats(-0.5, -1e-6))
    def test_negative_probability_rejected(self, bad):
        """Any negative cell probability is rejected up front."""
        rest = (1.0 - bad) / 3.0
        with pytest.raises(InvalidDistributionError):
            gen_example2(bad, rest, rest, rest)

    def test_non_unit_total_rejected(self):
        with pytest.raises(InvalidDistributionError):
            gen_example2(0.3, 0.3, 0.3, 0.3)


class TestObs1:
    @given(st.integers(1, 4))
    def test_index_layout(self, d):
        """Sources come first, one target per subset, bit i selects source i."""
        sources, targets, subsets = obs1_indices(d)
        assert sources == list(range(d))
        assert targets == list(range(d, d + (1 << d)))
        assert len(subsets) == 1 << d
        for j, subset in enumerate(subsets):
            assert subset == frozenset(i for i in range(d) if (j >> i) & 1)

    def test_out_of_range_d_rejected(self):
        for d in (0, 5):
            with pytest.raises(ValueError):
                obs1_indices(d)

    @given(st.integers(1, 3))
    def test_edges_follow_subsets(self, d):
        """Source i points at target j exactly when i is in j's subset."""
        sc = gen_obs1(d)
        _, targets, subsets = obs1_indices(d)
        for t, subset in zip(targets, subsets):
            for i in range(d):
                assert ((i, t) in set(sc.graph.edges())) == (i in subset)

    def test_class_is_one_singleton_per_target(self):
        sc = gen_obs1(3)
        _, targets, _ = obs1_indices(3)
        assert len(sc.hclass) == len(targets)
        for h, t in zip(sc.hclass, targets):
            assert h.descriptor == ("singleton", t)

    @given(st.integers(1, 3), st.floats(0.01, 0.2))
    def test_realizable_distribution_has_a_zero_loss_member(self, d, eps):
        """Some target leaves a safe source, and its singleton is then perfect."""
        sc = gen_obs1(d)
        _, targets, subsets = obs1_indices(d)
        j = next(j for j, s in enumerate(subsets) if len(s) < d)
        dist = obs1_distribution(d, j, eps)
        assert dist.weights[targets[j], 1] == 2.0 * eps
        h = sc.hclass[j]
        assert expected_loss(LossKind.strategic(sc.graph), h, dist) == 0.0

    def test_covering_target_rejected(self):
        # the all-sources subset leaves nowhere to put the rest of the mass
        with pytest.raises(ValueError):
            obs1_distribution(2, 3, 0.05)

    def test_bad_eps_and_index_rejected(self):
        with pytest.raises(ValueError):
            obs1_distribution(2, 0, 0.5)
        with pytest.raises(ValueError):
            obs1_distribution(2, 0, 0.0)
        with pytest.raises(ValueError):
            obs1_distribution(2, 4, 0.05)


class TestComponentCases:
    def test_complete_graph_and_no_all_zero_member(self):
        sc = gen_component_case("complete", n=5, class_size=6, seed=3)
        assert sc.graph.edge_count() == 20
        assert len(sc.hclass) == 6
        for h in sc.hclass:
            assert h.labels.any()

    def test_chain_poset_members_are_suffixes(self):
        sc = gen_component_case("partial_order", poset="chain", size=5)
        assert len(sc.hclass) == 6
        for h in sc.hclass:
            labels = h.labels.astype(int)
            assert (np.diff(labels) >= 0).all()

    def test_diamond_poset_member_count(self):
        sc = gen_component_case("partial_order", poset="diamond")
        assert len(sc.hclass) == 6
        for h in sc.hclass:
            if h.labels[0]:
                assert h.labels.all()

    def test_antichain_admits_every_labeling(self):
        sc = gen_component_case("partial_order", poset="antichain", size=3)
        assert len(sc.hclass) == 8
        assert sc.graph.edge_count() == 0

    def test_ball_edges_are_symmetric_within_radius(self):
        sc = gen_component_case("ball", grid=3, radius=1.0, p=2.0)
        coords = sc.domain.coords
        for i, j in sc.graph.edges():
            assert np.linalg.norm(coords[i] - coords[j]) <= 1.0
            assert j in sc.graph.successors(i) and i in sc.graph.successors(j)

    def test_coordinate_edges_change_exactly_one_axis(self):
        sc = gen_component_case("coordinate", grid=3)
        coords = sc.domain.coords
        assert sc.graph.edge_count() == 36
        for i, j in sc.graph.edges():
            assert int(np.sum(coords[i] != coords[j])) == 1

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.7, 2.0, 3.0])
    def test_ball_graph_equals_the_pairwise_loop(self, p):
        """The offset-table build gives the edges of one scalar p-norm test
        per ordered point pair. The radii include distances that occur, so
        points on the sphere are tested too."""
        for grid in range(1, 13):
            coords = gen_component_case("coordinate", grid=grid).domain.coords
            n = grid * grid
            dist = np.array([
                [float(np.sum(np.abs(coords[i] - coords[j]) ** p) ** (1 / p)) for j in range(n)]
                for i in range(n)
            ])
            on_sphere = [dist[0, a * grid + b] for a, b in ((1, 1), (2, 1), (1, 2), (3, 3))
                         if max(a, b) < grid]
            for radius in (0.0, 1.0, 1.5, 2 ** 0.5, *on_sphere, 40.0):
                adj = gen_component_case("ball", grid=grid, radius=float(radius), p=p).graph.adj
                assert np.array_equal(adj, (dist <= radius) & ~np.eye(n, dtype=bool)), (grid, radius)

    def test_coordinate_graph_equals_the_pairwise_loop(self):
        for grid in range(1, 13):
            sc = gen_component_case("coordinate", grid=grid)
            coords, n = sc.domain.coords, grid * grid
            one_axis = np.array([
                [int(np.sum(coords[i] != coords[j])) == 1 for j in range(n)] for i in range(n)
            ])
            assert np.array_equal(sc.graph.adj, one_axis)

    def test_unknown_case_and_poset_rejected(self):
        with pytest.raises(ValueError):
            gen_component_case("moebius")
        with pytest.raises(ValueError):
            gen_component_case("partial_order", poset="lattice")

    def test_unexpected_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown parameters"):
            gen_component_case("complete", n=4, radius=2.0)


class TestGenRandom:
    @given(st.integers(0, 1000))
    def test_same_seed_reproduces_everything(self, seed):
        """Two builds from one seed agree on graph, class, and weights."""
        a = gen_random(5, 6, density=0.4, seed=seed, n_graphs=2)
        b = gen_random(5, 6, density=0.4, seed=seed, n_graphs=2)
        assert a.graph == b.graph
        assert [h.labels.tolist() for h in a.hclass] == [h.labels.tolist() for h in b.hclass]
        assert np.array_equal(a.dist.weights, b.dist.weights)
        assert list(a.graph_class) == list(b.graph_class)

    def test_labelings_are_distinct(self):
        sc = gen_random(4, 16, seed=11)
        rows = {h.labels.tobytes() for h in sc.hclass}
        assert len(rows) == 16

    def test_candidate_graphs_distinct_and_first_is_graph2(self):
        sc = gen_random(6, 4, seed=5, n_graphs=4)
        keys = {g.adj.tobytes() for g in sc.graph_class}
        assert len(keys) == 4
        assert sc.graph2 == sc.graph_class[0]

    def test_no_candidates_by_default(self):
        sc = gen_random(4, 4, seed=0)
        assert sc.graph2 is None and sc.graph_class is None

    def test_coordinates_only_when_requested(self):
        assert gen_random(4, 4, seed=0).domain.coords is None
        assert gen_random(4, 4, seed=0, coord_dim=3).domain.coords.shape == (4, 3)

    def test_too_many_hypotheses_rejected(self):
        with pytest.raises(ValueError, match="dichotomies"):
            gen_random(3, 9, seed=0)

    def test_weights_form_a_distribution(self):
        sc = gen_random(7, 5, seed=2)
        assert abs(float(sc.dist.weights.sum()) - 1.0) <= 1e-12

    def test_loss_table_runs_on_generated_scenario(self):
        sc = gen_random(5, 5, seed=9)
        table = class_loss_table(LossKind.strategic(sc.graph), sc.hclass)[0]
        assert table.shape == (5, 2)


def _labels_row_by_row(rng, n, m, exclude_zero=False):
    """The former drawer, kept as the reference: one n-value draw per
    candidate row, from the first row on."""
    rows, seen, attempts = [], set(), 0
    while len(rows) < m:
        attempts += 1
        if attempts > 1000 * m:
            raise ValueError(f"could not draw {m} distinct labelings over {n} points")
        row = rng.integers(0, 2, n).astype(bool)
        if exclude_zero and not row.any():
            continue
        key = row.tobytes()
        if key not in seen:
            seen.add(key)
            rows.append(row)
    return rows


class TestDistinctRandomLabels:
    """The word reader's one read of m x n flips, topped up row by row,
    takes the same values as one Generator draw per row, and leaves the
    stream at the same place (a waiting high half included)."""

    @pytest.mark.parametrize("exclude_zero", [False, True])
    @pytest.mark.parametrize("n,m", [(1, 1), (3, 5), (3, 7), (7, 6), (8, 6), (1001, 3)])
    def test_matches_row_by_row_draws(self, n, m, exclude_zero):
        for seed in range(2000):
            read, b = _stream_words(seed), generator(seed)
            got = _distinct_random_labels(read, n, m, exclude_zero)
            want = _labels_row_by_row(b, n, m, exclude_zero)
            assert got.dtype == bool and got.shape == (1, m, n)
            assert got[0].tolist() == [r.tolist() for r in want], seed
            assert_same_position(read, b)

    def test_many_duplicates(self):
        """Eight rows over three points: every labeling, after many repeats."""
        topped_up = 0
        for seed in range(2000):
            read, b = _stream_words(seed), generator(seed)
            got = _distinct_random_labels(read, 3, 8)[0]
            assert got.tolist() == [r.tolist() for r in _labels_row_by_row(b, 3, 8)]
            assert len({r.tobytes() for r in got}) == 8
            topped_up += read.used > 8 * 3 // 2
            assert_same_position(read, b)
        assert topped_up > 1000

    @pytest.mark.parametrize("n,m", [(1, 2), (2, 4)])
    def test_unsatisfiable_raises_after_1000_m_attempts(self, n, m):
        """Without the zero row, n points have only 2**n - 1 labelings."""
        read, b = _stream_words(5), generator(5)
        message = f"^could not draw {m} distinct labelings over {n} points$"
        with pytest.raises(ValueError, match=message):
            _distinct_random_labels(read, n, m, exclude_zero=True)
        with pytest.raises(ValueError, match=message):
            _labels_row_by_row(b, n, m, exclude_zero=True)
        assert read.used == (1000 * m * n + 1) // 2
        c = generator(5)
        c.integers(0, 2, (1000 * m, n))
        assert b.bit_generator.state == c.bit_generator.state
        assert_same_position(read, b)

    def test_block_reader_keeps_the_first_rows(self):
        """Over a block of streams, the first m rows of each stream are kept,
        repeats included."""
        rows = np.stack([np.random.PCG64(s).random_raw(8) for s in range(30)])
        got = _distinct_random_labels(_block_words(rows), 3, 5)
        for s, labels in enumerate(got):
            assert labels.tolist() == generator(s).integers(0, 2, (5, 3)).astype(bool).tolist()


class TestWordDrawer:
    """_random_arrays over a live word reader gives every array the Generator
    drawer (tests/generator_drawer.py) draws from the same seed, raises what
    it raises, and leaves the stream where it leaves its generator."""

    @staticmethod
    def _check(seed, *case):
        read, rng = _stream_words(seed), generator(seed)
        try:
            want = generator_drawer.random_arrays(rng, *case)
        except ValueError as e:
            with pytest.raises(ValueError, match=f"^{re.escape(str(e))}$"):
                _random_arrays(read, *case)
            assert_same_position(read, rng)
            return str(e)
        got = _random_arrays(read, *case)
        assert (got.coords is None) == (want.coords is None)
        names = ("adj", "labels", "weights") + (() if want.coords is None else ("coords",))
        for name in names:
            g, w = getattr(got, name), getattr(want, name)
            assert g.dtype == w.dtype and g.shape == (1,) + w.shape
            assert np.array_equal(g[0], w), (name, seed)
        assert len(got.candidates) == len(want.candidates)
        for g, w in zip(got.candidates, want.candidates):
            assert np.array_equal(g[0], w), seed
        assert_same_position(read, rng)
        return None

    @pytest.mark.parametrize("case", [
        (3, 5, 0.35, 1, 0), (3, 7, 0.5, 3, 2), (3, 8, 0.35, 1, 0), (5, 3, 0.0, 4, 1),
        (8, 6, 0.35, 1, 0), (12, 200, 0.3, 3, 0), (1, 1, 0.0, 0, 0), (1, 2, 1.0, 0, 0),
        (7, 9, 1.0, 2, 3), (3, 2, 0.0, 20, 0), (3, 9, 0.3, 0, 0),
    ])
    def test_equal_to_generator_drawer(self, case):
        """300 seeds each: odd m x n, relabeling and candidate retries,
        densities 0 and 1, and more hypotheses than dichotomies."""
        for seed in range(300):
            self._check(seed, *case)

    @pytest.mark.parametrize("case", [(1, 2, 0.5, 2, 0), (2, 2, 0.5, 5, 0)])
    def test_candidate_exhaustion(self, case):
        """One point has one graph and two points four: the drawer gives up
        after 1000 tries a candidate, at the same place in the stream."""
        for seed in range(3):
            message = self._check(seed, *case)
            assert message.startswith(f"could not draw {case[3]} distinct candidate graphs")

    @pytest.mark.parametrize("n, density", [(1000, 0.01), (130, 0.0), (130, 1.0)])
    def test_large_instances_read_in_chunks(self, n, density):
        """Adjacencies read in chunks of whole rows, and weights summed over
        more than one pairwise block."""
        self._check(n, n, 40, density, 2, 1)

    @pytest.mark.parametrize("n, size, seed", [(1, 1, 0), (3, 7, 4), (6, 4, 0), (9, 40, 2), (12, 1, 8)])
    def test_complete_case_excludes_zero(self, n, size, seed):
        got = gen_component_case("complete", n=n, class_size=size, seed=seed).hclass
        want = generator_drawer.distinct_labels(generator(seed), n, size, exclude_zero=True)
        assert np.array_equal(np.stack([h.labels for h in got]), want)
