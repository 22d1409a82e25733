"""Tests for sampling, seed derivation, and empirical risk minimizers."""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from strategia import (
    DomainMismatchError,
    EmptyClassError,
    EmptySampleError,
    FiniteDomain,
    Hypothesis,
    HypothesisClass,
    LabeledDistribution,
    LabeledSample,
    LossKind,
    ManipulationGraph,
    NoIncentiveCompatibleError,
    RealizabilityError,
    draw_sample,
    erm,
    gen_random,
    ic_erm,
    is_incentive_compatible,
    performative_erm,
    singleton_class,
    singleton_learner,
    splitmix64,
    trial_seed,
)
from strategia import rng as stream
from strategia.graphdist import draw_graph_sample
from strategia.learners import singleton_decisions
from strategia.rng import (
    _COUNT_BLOCK,
    _GUIDE_BUCKETS,
    _below,
    _guide_table,
    _pcg64_state,
    _pcg64_states,
    _uniform_between,
    _word_cells,
    _word_uniforms,
    cell_counts,
    draw_cells,
    inverse_cdf,
    trial_rows,
    trial_seeds,
)
from strategia.losses import effective_hypothesis
from strategia import oracles

MASK64 = (1 << 64) - 1


def mix_reference(t):
    # independent restatement of the fixed-increment output function
    z = (t + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


@st.composite
def sample_instances(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(2, 6))
    m = draw(st.integers(2, min(10, 1 << n)))
    sc = gen_random(n_points=n, n_hypotheses=m, density=0.4, seed=seed)
    S = draw_sample(sc.dist, draw(st.integers(1, 40)), seed=seed ^ 0xA5A5)
    return sc, S


class TestSeedDerivation:
    def test_counter_zero_matches_published_stream_head(self):
        # first output of the reference stream seeded at zero
        assert splitmix64(0) == 16294208416658607535

    @given(st.integers(0, 2**64 - 1))
    def test_matches_reference_mixer(self, t):
        """splitmix64 equals an independently written copy of the finalizer."""
        assert splitmix64(t) == mix_reference(t)

    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**20))
    def test_trial_seed_is_master_xor_mix(self, master, t):
        """trial_seed xors the masked master seed with the mixed counter."""
        assert trial_seed(master, t) == (master & MASK64) ^ splitmix64(t)

    def test_trial_seeds_distinct_across_small_counters(self):
        seeds = {trial_seed(7, t) for t in range(10_000)}
        assert len(seeds) == 10_000


def numpy_generators(seeds):
    return [np.random.Generator(np.random.PCG64(s)) for s in seeds.tolist()]


# Edge seeds of the bulk set-up: the ends of the one- and two-word entropy
# ranges of numpy's seed sequence.
EDGE_SEEDS = np.array([0, 1, 2**32 - 1, 2**32, 2**64 - 1], dtype=np.uint64)


class TestBulkTrialGenerators:
    """The bulk set-up of trial_rows must give numpy's PCG64(trial_seed(m,
    t)) state and stream for every trial."""

    @given(st.integers(-(2**70), 2**70), st.integers(0, 2**40), st.integers(0, 40))
    def test_trial_seeds_equal_trial_seed(self, master, first, count):
        seeds = trial_seeds(master, first, count)
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [trial_seed(master, first + j) for j in range(count)]

    def test_states_equal_numpy_on_ten_thousand_seeds(self):
        assert stream._bulk_seeding_matches()  # not the fallback
        seeds = np.concatenate([EDGE_SEEDS, trial_seeds(12345, 0, 10_000)])
        got = [
            _pcg64_state(hi << 64 | lo, inc_hi << 64 | inc_lo)
            for hi, lo, inc_hi, inc_lo in zip(*(x.tolist() for x in _pcg64_states(seeds)))
        ]
        assert got == [np.random.PCG64(s).state for s in seeds.tolist()]

    @pytest.mark.parametrize("n", [1, 26, 64, 65, 3200])
    def test_rows_equal_numpy(self, n):
        """The uniforms of the words trial_rows reads, as lanes and as long
        rows, are Generator.random's."""
        seeds = np.concatenate([EDGE_SEEDS, trial_seeds(2**64 - 1, 7, 200)])
        got = np.concatenate(
            [read_all(s ^ splitmix64(0), 0, 1, n) for s in EDGE_SEEDS.tolist()]
            + [read_all(2**64 - 1, 7, 200, n)]
        )
        want = np.stack([rng.random(n) for rng in numpy_generators(seeds)])
        assert np.array_equal(_word_uniforms(got), want)

    def test_mismatch_falls_back_to_numpy(self, monkeypatch):
        """A wrong multiplier fails the once-per-process check, and the words
        then come from one numpy PCG64 per trial."""
        monkeypatch.setattr(stream, "_PCG_MULT", stream._PCG_MULT + 2)
        monkeypatch.setattr(stream, "_bulk_seeding_ok", None)
        got = read_all(5, 0, 20, 3)
        assert stream._bulk_seeding_ok is False
        assert np.array_equal(got, raw_words(trial_seeds(5, 0, 20), 3))

    def test_check_is_lazy(self):
        """Importing the CLI neither runs the check nor builds the lane
        constants; the check runs at the first use of what it guards."""
        code = (
            "import strategia.cli, strategia.rng as r\n"
            "assert r._bulk_seeding_ok is None and r._lane_steps is None\n"
            "r.trial_rows(0, 0, 1, 1)\n"
            "assert r._bulk_seeding_ok is True\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)


def raw_words(seeds, k):
    return np.stack([np.random.PCG64(s).random_raw(k) for s in seeds.tolist()]).reshape(-1, k)


def read_all(master, first, count, k):
    """Every row trial_rows(master, first, count, k) reads, read at once."""
    return trial_rows(master, first, count, k)(0, count)


LANE_SIDES = [1, 2, stream._LANE_WORDS - 1, stream._LANE_WORDS, stream._LANE_WORDS + 1, 300]


class TestTrialWords:
    """trial_rows must read PCG64(trial_seed(m, t)).random_raw(k), as lanes
    and as one generator per trial."""

    @pytest.mark.parametrize("k", LANE_SIDES)
    def test_check_seeds_equal_random_raw(self, k):
        """Each check seed is trial 0 of the master seed ^ splitmix64(0)."""
        assert stream._bulk_seeding_matches()
        for seed in stream._SEEDING_CHECK:
            got = read_all(seed ^ splitmix64(0), 0, 1, k)
            assert np.array_equal(got, np.random.PCG64(seed).random_raw(k)[None])

    @pytest.mark.parametrize("k", LANE_SIDES)
    def test_counts_that_do_not_divide_into_lane_blocks(self, k):
        """300 trials are no whole number of lane blocks for k > 27."""
        seeds = trial_seeds(2**64 - 1, 7, 300)
        assert np.array_equal(read_all(2**64 - 1, 7, 300, k), raw_words(seeds, k))
        assert read_all(3, 0, 0, k).shape == (0, k)

    @pytest.mark.parametrize("k", [26, 300])
    def test_rows_read_in_chunks(self, k):
        """Reading 7 rows at a time gives the words of reading them at once."""
        read = trial_rows(11, 50, 40, k)
        chunks = np.concatenate([read(r, min(7, 40 - r)) for r in range(0, 40, 7)])
        assert np.array_equal(chunks, read_all(11, 50, 40, k))

    def test_lane_mismatch_falls_back_to_numpy(self, monkeypatch):
        """A wrong lane constant fails the once-per-process check, and the
        words then come from one numpy generator per trial."""
        a_hi, a_lo, c_hi, c_lo = stream._lane_constants()
        wrong = c_lo.copy()
        wrong[-1] ^= np.uint64(1)
        monkeypatch.setattr(stream, "_lane_steps", (a_hi, a_lo, c_hi, wrong))
        monkeypatch.setattr(stream, "_bulk_seeding_ok", None)
        got = read_all(5, 0, 20, stream._LANE_WORDS)
        assert stream._bulk_seeding_ok is False
        assert np.array_equal(got, raw_words(trial_seeds(5, 0, 20), stream._LANE_WORDS))
        assert np.array_equal(trial_rows(5, 0, 20, 3)(4, 6), raw_words(trial_seeds(5, 4, 6), 3))

    def test_words_decode_to_generator_draws(self):
        """Generator.random of a stream is its words' uniforms, and
        uniform(low, high) is _uniform_between of the next word."""
        words = np.random.PCG64(17).random_raw(2000)
        rng = np.random.Generator(np.random.PCG64(17))
        assert np.array_equal(_word_uniforms(words[:1000]), rng.random(1000))
        for j, density in enumerate(np.linspace(0.0, 1.0, 1000).tolist()):
            low, high = max(0.05, density - 0.2), min(0.95, density + 0.2)
            assert _uniform_between(words[1000 + j], low, high) == rng.uniform(low, high)

    @pytest.mark.parametrize("p", [
        0.0, 2.0**-60, 5e-324, 2.0**-53, 3 * 2.0**-54, 0.01, 0.05, 0.3, 0.5, 0.95,
        1 - 2.0**-53, 1.0, 1.5, -0.25, math.nan, math.inf, -math.inf,
    ])
    def test_below_equals_uniforms_below(self, p):
        """_below compares words with ceil(p * 2**53) << 11; around that
        limit T it must give _word_uniforms(w) < p, also for a row of
        densities, one per stream."""
        limit = min(max(math.ceil(p * 2**53), 0), 2**53) << 11 if math.isfinite(p) else 0
        edges = [t for t in (limit - 2049, limit - 2048, limit - 1, limit, limit + 1, limit + 2047)
                 if 0 <= t < 2**64]
        words = np.array([edges + [0, 2**63, 2**64 - 1]], dtype=np.uint64)
        words = np.concatenate((words, np.random.PCG64(1).random_raw((1, 1000))), axis=1)
        assert np.array_equal(_below(words, p), _word_uniforms(words) < p)
        rows = np.repeat(words, 3, axis=0)
        ps = np.array([[p], [0.5], [1.0]])
        assert np.array_equal(_below(rows, ps), _word_uniforms(rows) < ps)

    def test_below_on_many_densities(self):
        """2000 densities spread over [0, 1], each at its own limit's edges."""
        ps = np.concatenate((np.linspace(0.0, 1.0, 2000), [2.0**-60, 1 - 2.0**-53]))
        limits = [min(math.ceil(p * 2**53), 2**53) << 11 for p in ps.tolist()]
        for p, limit in zip(ps.tolist(), limits):
            edges = [t for t in (limit - 2048, limit - 1, limit, limit + 1, limit + 2047) if 0 <= t < 2**64]
            words = np.array([edges], dtype=np.uint64)
            assert np.array_equal(_below(words, p), _word_uniforms(words) < p), p


class TestDrawSample:
    def test_same_seed_reproduces_sample(self):
        P = LabeledDistribution([[0.125, 0.375], [0.25, 0.25]])
        a = draw_sample(P, 50, seed=123)
        b = draw_sample(P, 50, seed=123)
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)

    def test_different_seeds_differ(self):
        P = LabeledDistribution([[0.125, 0.375], [0.25, 0.25]])
        a = draw_sample(P, 50, seed=1)
        b = draw_sample(P, 50, seed=2)
        assert not (np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys))

    @given(st.integers(0, 2**32 - 1))
    def test_support_respected_on_dyadic_weights(self, seed):
        """With exactly representable weights, draws never leave the support."""
        P = LabeledDistribution([[0.5, 0.0], [0.0, 0.25], [0.25, 0.0]])
        S = draw_sample(P, 60, seed=seed)
        support = set(P.support())
        assert all((x, y) in support for x, y in S)

    def test_zero_draws_allowed(self):
        P = LabeledDistribution([[1.0, 0.0]])
        assert len(draw_sample(P, 0, seed=0)) == 0

    def test_negative_count_rejected(self):
        P = LabeledDistribution([[1.0, 0.0]])
        with pytest.raises(ValueError):
            draw_sample(P, -1, seed=0)

    @pytest.mark.parametrize("n", [0, 1, 100, _GUIDE_BUCKETS - 1, _GUIDE_BUCKETS, 20_000])
    def test_draws_equal_inverse_cdf_of_generator_random(self, n):
        """draw_sample and draw_graph_sample give the cells of
        inverse_cdf(cum, Generator(PCG64(seed)).random(n)), below and above
        the batch size at which the guide table is used."""
        weights = np.random.default_rng(n).random((60, 2))
        weights[::7] = 0.0
        weights[-3:] = 0.0  # trailing zero-weight cells
        P = LabeledDistribution(weights / weights.sum())
        graph = ManipulationGraph(FiniteDomain(60), [(i, i + 1) for i in range(59)])
        for seed in (0, 77, 2**64 - 1):
            u = np.random.Generator(np.random.PCG64(seed)).random(n)
            S = draw_sample(P, n, seed)
            assert np.array_equal(2 * S.xs + S.ys, inverse_cdf(np.cumsum(P.weights.ravel()), u))
            G = draw_graph_sample(P.marginal(), graph, n, seed)
            assert np.array_equal(G.xs, inverse_cdf(np.cumsum(P.marginal()), u))


def searchsorted_reference(cum, u):
    return np.minimum(np.searchsorted(cum, u, side="right"), np.searchsorted(cum, cum[-1]))


@st.composite
def cdf_cases(draw):
    """Cumulative weights of 1 to 8192 cells and a batch of uniforms in [0, 1)
    large enough for the guide table: every bucket edge k / 2**12, every
    cumulative weight and its neighbours, draws at or above cum[-1], and
    random draws."""
    n_cells = draw(st.integers(1, 8192))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dyadic = draw(st.booleans())
    w = rng.integers(0, 3, n_cells).astype(float) if dyadic else rng.random(n_cells)
    w[rng.random(n_cells) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0.0  # zero-weight cells
    w[n_cells - draw(st.integers(0, min(3, n_cells - 1))):] = 0.0  # trailing zero weights
    if not w.any():
        w[0] = 1.0
    if dyadic:  # multiples of 2**-12 while the total allows
        w /= 2.0 ** max(12, math.ceil(math.log2(w.sum())))
    else:  # totals at, below, and by rounding next to 1
        w *= draw(st.sampled_from([1.0, 0.5, 1 - 2**-30])) / w.sum()
    cum = np.cumsum(w)
    edges = np.arange(_GUIDE_BUCKETS) / _GUIDE_BUCKETS
    near = np.concatenate([cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0)])
    top = np.nextafter(1.0, 0.0)
    above = np.linspace(min(cum[-1], top), top, 5)
    u = np.concatenate([edges, near[near < 1.0], above, rng.random(draw(st.integers(0, 3000)))])
    return w, cum, u


class TestInverseCdf:
    def test_never_lands_on_trailing_zero_weight_cells(self):
        """A uniform at or past the total maps to the last positive cell."""
        cum = np.cumsum([0.0, 0.25, 0.0, 0.75, 0.0, 0.0])
        u = np.array([0.0, 0.2, 0.25, 0.9, cum[-1], np.nextafter(cum[-1], 2.0)])
        assert inverse_cdf(cum, u).tolist() == [1, 1, 3, 3, 3, 3]

    @settings(max_examples=60)
    @given(cdf_cases(), st.integers(0, 3))
    def test_guide_table_path_equals_searchsorted(self, case, side):
        """The word guide path returns inverse_cdf's cell of the words'
        uniforms for every word, and never a cell of zero weight: words on
        every bucket edge and beside every cumulative weight. draw_cells
        takes it from _GUIDE_BUCKETS draws on, and the plain search below."""
        w, cum, u = case
        words = words_of(on_word_grid(u))
        want = inverse_cdf(cum, _word_uniforms(words))
        assert np.array_equal(want, searchsorted_reference(cum, _word_uniforms(words)))
        got = _word_cells(cum, words, _guide_table(cum))
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert (w[got] > 0).all()
        assert np.array_equal(_word_cells(cum, words.reshape(1, -1), _guide_table(cum)), want.reshape(1, -1))
        n, seed = _GUIDE_BUCKETS - 2 + side, int(u.size)
        drawn = np.random.PCG64(seed).random_raw(n)
        assert np.array_equal(draw_cells(cum, n, seed), inverse_cdf(cum, _word_uniforms(drawn)))

    @settings(max_examples=60)
    @given(cdf_cases())
    def test_guide_table_entries_hold_across_their_bucket(self, case):
        """A table entry is the search result at both ends of its bucket, and
        exactly the buckets with a cumulative weight strictly inside are
        split: a weight on a bucket edge splits none."""
        _, cum, _ = case
        table = _guide_table(cum)
        k = np.flatnonzero(table >= 0)
        lo = k / _GUIDE_BUCKETS
        hi = np.nextafter((k + 1) / _GUIDE_BUCKETS, 0.0)
        assert np.array_equal(table[k], searchsorted_reference(cum, lo))
        assert np.array_equal(table[k], searchsorted_reference(cum, hi))
        scaled = cum * _GUIDE_BUCKETS  # exact
        inside = scaled[(scaled < _GUIDE_BUCKETS) & (scaled != np.floor(scaled))]
        assert np.flatnonzero(table < 0).tolist() == np.unique(np.floor(inside)).astype(int).tolist()

    @pytest.mark.parametrize("extra", [1.0, 1.5, np.nan, -0.25])
    def test_uniforms_outside_unit_interval_take_the_search(self, extra):
        cum = np.cumsum([0.25, 0.0, 0.5, 0.25, 0.0])
        u = np.append(np.random.default_rng(3).random(5000), extra)
        assert np.array_equal(inverse_cdf(cum, u), searchsorted_reference(cum, u))

    def test_single_cell(self):
        u = np.random.default_rng(4).random(5000)
        assert not inverse_cdf(np.array([1.0]), u).any()


def one_shot_cell_counts(cum, u):
    """The trials x cells counts from one inverse_cdf and one bincount."""
    trials, n_cells = u.shape[0], cum.shape[0]
    flat = inverse_cdf(cum, u).reshape(trials, -1) + (np.arange(trials) * n_cells)[:, None]
    return np.bincount(flat.ravel(), minlength=trials * n_cells).reshape(trials, n_cells)


def words_of(u):
    """Raw PCG64 words whose uniforms (w >> 11) * 2**-53 are u, which must be
    multiples of 2**-53 in [0, 1), with random low 11 bits, which the
    uniforms ignore."""
    high = (np.asarray(u) * 2.0**53).astype(np.uint64)
    assert np.array_equal(high * 2.0**-53, u)
    low = np.random.default_rng(high.size).integers(0, 1 << 11, high.shape, dtype=np.uint64)
    return (high << np.uint64(11)) | low


def on_word_grid(u):
    """u rounded down to the uniforms raw words carry: multiples of 2**-53
    below 1."""
    return np.minimum(np.floor(u * 2.0**53), 2.0**53 - 1) * 2.0**-53


def fill_from(u, calls):
    """cell_counts words that hand out the rows of u in order as raw words
    and record each block's row count."""

    def words(r, rows):
        calls.append(rows)
        return words_of(u[r : r + rows])

    return words


class TestCellCounts:
    @settings(max_examples=40)
    @given(cdf_cases(), st.integers(1, 700))
    def test_streamed_equals_one_shot(self, case, n):
        """Uniforms on every bucket edge and beside every cumulative weight,
        over zero-weight and trailing zero-weight cells."""
        _, cum, u = case
        trials = u.size // n
        if trials == 0:
            return
        u = on_word_grid(u[: trials * n].reshape(trials, n))
        calls = []
        got = cell_counts(cum, trials, n, fill_from(u, calls))
        assert got.dtype == np.int64 and np.array_equal(got, one_shot_cell_counts(cum, u))
        assert sum(calls) == trials and max(calls) == min(trials, max(1, _COUNT_BLOCK // n))

    @pytest.mark.parametrize("n", [26, 1000, _COUNT_BLOCK + 3])
    def test_blocks_that_do_not_divide_the_trials(self, n):
        """2.5 blocks of rows; a row longer than one block is a block alone."""
        rows = max(1, _COUNT_BLOCK // n)
        trials = 2 * rows + rows // 2 + 1
        cum = np.cumsum([0.0, 0.25, 0.0, 0.125, 0.625, 0.0, 0.0])
        u = np.random.default_rng(n).random((trials, n))
        u[0, :5] = [cum[1], cum[3], np.nextafter(cum[4], 0.0), cum[4], np.nextafter(1.0, 0.0)]
        u = on_word_grid(u)
        calls = []
        got = cell_counts(cum, trials, n, fill_from(u, calls))
        assert np.array_equal(got, one_shot_cell_counts(cum, u))
        assert calls == [rows, rows, trials - 2 * rows]
        assert not got[:, [0, 2, 5, 6]].any()

    def test_generator_fill_reads_one_stream(self):
        """A PCG64's random_raw fills the blocks in stream order, as one
        trials x n Generator.random draw does."""
        cum = np.cumsum(np.full(16, 1 / 16))
        trials, n = 500, 1600
        bitgen = np.random.PCG64(8)
        got = cell_counts(cum, trials, n, lambda r, rows: bitgen.random_raw((rows, n)))
        u = np.random.Generator(np.random.PCG64(8)).random((trials, n))
        assert np.array_equal(got, one_shot_cell_counts(cum, u))


class TestErm:
    @given(sample_instances())
    def test_erm_minimizes_oracle_scores(self, inst):
        """ERM returns the first member attaining the oracle's minimum mean loss."""
        sc, S = inst
        for name, kind in (
            ("binary", LossKind.binary()),
            ("strategic", LossKind.strategic(sc.graph)),
        ):
            out = erm(sc.hclass, S, kind)
            scores = [
                float(oracles.oracle_empirical_loss(h, S, name, graph=sc.graph))
                for h in sc.hclass
            ]
            best = min(scores)
            assert out.empirical_value == pytest.approx(best, abs=1e-12)
            assert out.index == scores.index(best)
            assert out.tie_count == sum(s == best for s in scores)
            assert out.hypothesis == sc.hclass[out.index]

    def test_tie_breaks_to_lowest_index(self):
        H = HypothesisClass([Hypothesis([1, 0]), Hypothesis([0, 1]), Hypothesis([1, 1])])
        S = LabeledSample([0, 1], [1, 0], n_points=2)
        out = erm(H, S, LossKind.binary())
        assert out.index == 0 and out.tie_count == 1
        # on a single negative item the two members rejecting it tie at zero
        H2 = HypothesisClass([Hypothesis([1, 0]), Hypothesis([0, 1]), Hypothesis([0, 0])])
        out2 = erm(H2, LabeledSample([0], [0], n_points=2), LossKind.binary())
        assert out2.index == 1 and out2.tie_count == 2

    @given(sample_instances())
    def test_performative_erm_scores_effective_labeling(self, inst):
        """Performative scores equal binary oracle scores of the effective labelings."""
        sc, S = inst
        out = performative_erm(sc.hclass, S, sc.graph)
        scores = [
            float(oracles.oracle_empirical_loss(effective_hypothesis(h, sc.graph), S, "binary"))
            for h in sc.hclass
        ]
        best = min(scores)
        assert out.empirical_value == pytest.approx(best, abs=1e-12)
        assert out.index == scores.index(best)

    @given(sample_instances())
    def test_ic_erm_picks_compatible_minimum(self, inst):
        """IC ERM returns the best binary score among compatible members only."""
        sc, S = inst
        feasible = [
            i for i, h in enumerate(sc.hclass) if is_incentive_compatible(h, sc.graph)
        ]
        if not feasible:
            with pytest.raises(NoIncentiveCompatibleError):
                ic_erm(sc.hclass, S, sc.graph)
            return
        out = ic_erm(sc.hclass, S, sc.graph)
        assert out.index in feasible
        scores = {
            i: float(oracles.oracle_empirical_loss(sc.hclass[i], S, "binary"))
            for i in feasible
        }
        best = min(scores.values())
        assert out.empirical_value == pytest.approx(best, abs=1e-12)
        assert out.index == min(i for i, s in scores.items() if s == best)

    def test_ic_erm_rejects_all_gameable_class(self):
        # singletons over a complete graph: every rejected point can move to
        # the accepted one, so no member is compatible
        dom = FiniteDomain(3)
        g = ManipulationGraph(dom, [(i, j) for i in range(3) for j in range(3) if i != j])
        S = LabeledSample([0, 1], [1, 0], n_points=3)
        with pytest.raises(NoIncentiveCompatibleError):
            ic_erm(singleton_class(dom), S, g)

    def test_input_validation(self):
        H = HypothesisClass([Hypothesis([0, 1])])
        S = LabeledSample([0], [1], n_points=2)
        with pytest.raises(EmptyClassError):
            erm(HypothesisClass([]), S, LossKind.binary())
        with pytest.raises(EmptySampleError):
            erm(H, LabeledSample([], [], n_points=2), LossKind.binary())
        with pytest.raises(DomainMismatchError):
            erm(H, LabeledSample([0], [1], n_points=3), LossKind.binary())


class TestSingletonLearner:
    def test_returns_observed_positive_target(self):
        S = LabeledSample([0, 2, 0], [0, 1, 0], n_points=4)
        h = singleton_learner(S, targets=[2, 3])
        assert h.descriptor == ("singleton", 2)
        assert list(h.labels) == [0, 0, 1, 0]

    def test_returns_all_zeros_without_positives(self):
        S = LabeledSample([0, 1], [0, 0], n_points=3)
        h = singleton_learner(S, targets=[2])
        assert h.descriptor == ("constant", 0)
        assert not h.labels.any()

    def test_rejects_positive_off_target(self):
        S = LabeledSample([0], [1], n_points=3)
        with pytest.raises(RealizabilityError):
            singleton_learner(S, targets=[2])

    @given(st.integers(0, 2**32 - 1), st.integers(2, 7), st.integers(1, 30))
    def test_is_the_one_row_view_of_singleton_decisions(self, seed, n_points, n):
        """Every row of the batched decision equals the scalar learner on
        that row's sample, realizability errors included."""
        rng = np.random.default_rng(seed)
        targets = rng.choice(n_points, rng.integers(1, n_points + 1), replace=False).tolist()
        samples = [
            LabeledSample(rng.integers(0, n_points, n), rng.random(n) < 0.15, n_points=n_points)
            for _ in range(6)
        ]
        positive = np.array([S.counts()[:, 1] > 0 for S in samples])
        accepted, broken = singleton_decisions(positive, targets)
        for S, z, bad in zip(samples, accepted.tolist(), broken):
            if bad:
                with pytest.raises(RealizabilityError):
                    singleton_learner(S, targets)
                continue
            h = singleton_learner(S, targets)
            assert h.descriptor == (("singleton", z) if z >= 0 else ("constant", 0))
            assert np.flatnonzero(h.labels).tolist() == ([z] if z >= 0 else [])

    def test_realizability_messages(self):
        S = LabeledSample([0, 2, 1, 2], [1, 1, 1, 0], n_points=4)
        with pytest.raises(RealizabilityError, match=r"^positive labels on non-target points \[0, 1\]$"):
            singleton_learner(S, targets=[2, 3])
        with pytest.raises(RealizabilityError, match=r"^positive labels on 3 distinct targets: \[0, 1, 2\]$"):
            singleton_learner(S, targets=[0, 1, 2])

    def test_rejects_two_distinct_positive_targets(self):
        S = LabeledSample([1, 2], [1, 1], n_points=3)
        with pytest.raises(RealizabilityError):
            singleton_learner(S, targets=[1, 2])
