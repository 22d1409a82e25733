"""Tests for set systems and brute-force VC dimension."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from strategia import (
    CapacityError,
    HypothesisClass,
    LossKind,
    SetSystem,
    StrategiaError,
    VcInputError,
    VcReport,
    class_system,
    gen_obs1,
    gen_random,
    graph_loss_class,
    is_shattered,
    loss_class,
    loss_set,
    pair_ground,
    trial_seed,
    vc_dimension,
)
from strategia import oracles, vcdim


@st.composite
def random_systems(draw):
    n = draw(st.integers(1, 8))
    n_sets = draw(st.integers(0, 12))
    sets = [
        draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        for _ in range(n_sets)
    ]
    return SetSystem(tuple(range(n)), sets)


@st.composite
def systems_with_repeats(draw):
    """Up to 14 ground elements; some sets repeated, the empty set sometimes in."""
    n = draw(st.integers(1, 14))
    sets = draw(st.lists(st.lists(st.integers(0, n - 1), unique=True, max_size=n), max_size=24))
    if sets:
        sets += draw(st.lists(st.sampled_from(sets), max_size=4))
    if draw(st.booleans()):
        sets.insert(draw(st.integers(0, len(sets))), [])
    return SetSystem(tuple(range(n)), sets)


def smallest_shattered(system, k):
    """The lexicographically first k-subset of the ground shattered by the
    family, from frozenset traces; None when there is none."""
    family = [frozenset(s) for s in system.sets]
    for cand in combinations(range(len(system.ground)), k):
        c = frozenset(cand)
        if len({f & c for f in family}) == 1 << k:
            return cand
    return None


@st.composite
def random_scenarios(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, min(10, 1 << n)))
    return gen_random(n_points=n, n_hypotheses=m, density=0.4, seed=seed)


class TestSetSystem:
    def test_dedups_and_sorts_sets(self):
        sys = SetSystem(range(3), [(2, 0), (0, 2), (1,)])
        assert sys.sets == ((0, 2), (1,))

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(ValueError):
            SetSystem(range(2), [(0, 5)])

    def test_pair_ground_is_point_major(self):
        assert pair_ground(2) == ((0, 0), (0, 1), (1, 0), (1, 1))

    @given(random_scenarios())
    def test_loss_set_matches_loss_table(self, sc):
        """loss_set contains exactly the cells the oracle's loss table charges."""
        g = sc.graph
        for h in sc.hclass:
            for name, kind in (("binary", LossKind.binary()), ("strategic", LossKind.strategic(g))):
                table = oracles.oracle_loss_cells(h, name, graph=g)
                want = {(x, y) for x in range(h.size) for y in (0, 1) if table[x][y]}
                assert loss_set(h, kind) == want


class TestIsShattered:
    def test_powerset_shatters_its_ground(self):
        n = 3
        sets = [c for k in range(n + 1) for c in combinations(range(n), k)]
        sys = SetSystem(range(n), sets)
        assert is_shattered(sys, range(n))

    def test_chain_does_not_shatter_two_points(self):
        sys = SetSystem(range(2), [(), (0,), (0, 1)])
        assert is_shattered(sys, [0])
        assert is_shattered(sys, [1])
        assert not is_shattered(sys, [0, 1])

    def test_empty_candidate_needs_a_set(self):
        assert is_shattered(SetSystem(range(2), [()]), [])
        assert not is_shattered(SetSystem(range(2), []), [])

    def test_rejects_out_of_range_candidate(self):
        with pytest.raises(ValueError):
            is_shattered(SetSystem(range(2), [(0,)]), [5])

    def test_rejects_oversized_candidate(self):
        sys = SetSystem(range(40), [(0,)])
        with pytest.raises(CapacityError):
            is_shattered(sys, range(31))

    def test_candidate_limit_is_thirty_elements(self):
        sys = SetSystem(range(40), [(), (0,), (0, 1)])
        assert not is_shattered(sys, range(30))
        with pytest.raises(CapacityError):
            is_shattered(sys, range(31))


class TestVcDimension:
    def test_empty_system_has_dimension_minus_one(self):
        assert vc_dimension(SetSystem(range(3), [])).dimension == -1

    def test_single_set_has_dimension_zero(self):
        rep = vc_dimension(SetSystem(range(3), [(0, 2)]))
        assert rep.dimension == 0 and rep.witness == ()

    @given(st.integers(1, 4))
    def test_powerset_has_full_dimension(self, k):
        """The powerset over k elements has dimension exactly k."""
        sets = [c for r in range(k + 1) for c in combinations(range(k), r)]
        rep = vc_dimension(SetSystem(range(k), sets))
        assert rep.dimension == k and not rep.capped

    def test_cap_marks_result_as_lower_bound(self):
        sets = [c for r in range(4) for c in combinations(range(3), r)]
        rep = vc_dimension(SetSystem(range(3), sets), cap=2)
        assert rep.dimension == 2 and rep.capped

    def test_ground_limit_guards_blowup(self):
        sys = SetSystem(range(41), [(), (0,)])
        with pytest.raises(CapacityError):
            vc_dimension(sys)
        assert vc_dimension(sys, ground_limit=41).dimension == 1

    def test_witness_is_lexicographically_smallest(self):
        # {0,2} and {1,2} are shattered but {0,1} is not; the report must
        # pick {0,2}, the smallest witness in candidate enumeration order
        sets = [(), (0,), (1,), (2,), (0, 2), (1, 2)]
        sys = SetSystem(range(3), sets)
        assert not is_shattered(sys, [0, 1])
        assert is_shattered(sys, [0, 2]) and is_shattered(sys, [1, 2])
        rep = vc_dimension(sys, cap=2)
        assert rep.witness == (0, 2)

    @given(random_systems())
    def test_matches_exhaustive_oracle(self, sys):
        """The pruned search agrees with the unpruned exhaustive oracle."""
        fast = vc_dimension(sys, cap=8)
        assert fast.dimension == oracles.oracle_vc(sys, max_size=8)

    @given(systems_with_repeats(), st.integers(0, 8))
    def test_matches_oracle_with_smallest_witness(self, sys, cap):
        """Dimension, cap flag and witness agree with frozenset-trace enumeration."""
        rep = vc_dimension(sys, cap=cap)
        want = oracles.oracle_vc(sys, max_size=cap)
        assert rep.dimension == want
        assert rep.capped == (want >= 0 and want == cap)
        assert rep.witness == (smallest_shattered(sys, want) if want > 0 else ())

    @given(systems_with_repeats(), st.integers(0, 8))
    def test_direct_and_levelwise_searches_agree(self, sys, top):
        """Tiny systems skip the levels; both searches give the oracle's
        dimension and the smallest witness on the same systems."""
        if not sys.sets:
            return
        columns = np.ascontiguousarray(sys.membership.T)
        top = min(top, len(sys.ground), len(sys.sets).bit_length() - 1)
        d = oracles.oracle_vc(sys, max_size=top)
        want = (d, smallest_shattered(sys, d) if d > 0 else ())
        assert vcdim._levelwise_search(columns, top) == want
        assert vcdim._direct_search(columns, top) == want

    def test_ground_beyond_64_elements(self):
        # element 1 is in every set, so a mask that wrapped 65 -> 1 or
        # 66 -> 2 would lose the only shattered pair
        sys = SetSystem(range(70), [(1,), (1, 65), (1, 66), (1, 65, 66)])
        assert vc_dimension(sys, ground_limit=70) == VcReport(2, (65, 66))
        assert oracles.oracle_vc(sys) == 2
        assert is_shattered(sys, [65, 66])
        assert not is_shattered(sys, [1, 2]) and not is_shattered(sys, [1, 65])

    @given(random_systems(), st.data())
    def test_invariant_under_permutation_and_duplicates(self, sys, data):
        """Relabeling ground elements or repeating sets keeps the dimension."""
        n = len(sys.ground)
        perm = data.draw(st.permutations(range(n)))
        permuted = SetSystem(range(n), [[perm[i] for i in s] for s in sys.sets])
        doubled = SetSystem(range(n), list(sys.sets) + list(sys.sets))
        want = vc_dimension(sys, cap=8).dimension
        assert vc_dimension(permuted, cap=8).dimension == want
        assert vc_dimension(doubled, cap=8).dimension == want


class TestInputErrors:
    @pytest.mark.parametrize("call", [
        lambda: SetSystem(range(2), [(0, 5)]),
        lambda: is_shattered(SetSystem(range(2), [(0,)]), [5]),
        lambda: vc_dimension(SetSystem(range(2), [(0,)]), cap=-1),
    ], ids=["set-out-of-range", "candidate-out-of-range", "negative-cap"])
    def test_bad_input_is_a_package_error(self, call):
        """Library callers can catch every bad VC input with the package base class."""
        try:
            call()
        except StrategiaError as e:
            assert isinstance(e, VcInputError) and isinstance(e, ValueError)
        else:
            pytest.fail("no error raised")


class TestLossClassDimensions:
    @given(random_scenarios())
    def test_binary_never_exceeds_strategic(self, sc):
        """The strategic loss class is at least as rich as the binary one."""
        db = vc_dimension(loss_class(sc.hclass, LossKind.binary())).dimension
        ds = vc_dimension(loss_class(sc.hclass, LossKind.strategic(sc.graph))).dimension
        assert db <= ds

    @pytest.mark.parametrize("d", [2, 3])
    def test_singleton_blowup_dimensions(self, d):
        sc = gen_obs1(d)
        assert vc_dimension(class_system(sc.hclass)).dimension == 1
        rep = vc_dimension(loss_class(sc.hclass, LossKind.strategic(sc.graph)), cap=d + 1)
        assert rep.dimension == d and not rep.capped

    @pytest.mark.parametrize("d", [2, 3])
    def test_singleton_blowup_witness_is_source_rows(self, d):
        # sources occupy the first d points; their label-0 cells sit at even
        # pair-ground indices 2i
        sc = gen_obs1(d)
        sys = loss_class(sc.hclass, LossKind.strategic(sc.graph))
        assert is_shattered(sys, [2 * i for i in range(d)])

    def test_union_bound_heuristic(self):
        """Heuristic check only: the strategic dimension stays within the
        d log2 d + d envelope of the combined binary and component dimensions
        on a fixed batch of seeded instances."""
        for k in range(60):
            sc = gen_random(
                n_points=6, n_hypotheses=8, density=0.35, seed=trial_seed(91_000_000, k)
            )
            dh = vc_dimension(class_system(sc.hclass)).dimension
            dc = vc_dimension(loss_class(sc.hclass, LossKind.component(sc.graph))).dimension
            ds = vc_dimension(loss_class(sc.hclass, LossKind.strategic(sc.graph))).dimension
            d = dh + dc
            if d >= 1:
                assert ds <= math.ceil(d * math.log2(d) + d) if d > 1 else ds <= 1


class TestGraphLossClass:
    @given(random_scenarios())
    def test_true_candidate_yields_empty_sets(self, sc):
        """A candidate equal to the truth never disagrees on true ground pairs."""
        nsets = sc.graph.neighbor_sets()
        pairs = [(x, nsets[x]) for x in range(sc.domain.size)]
        sys = graph_loss_class(sc.hclass, [sc.graph], sc.domain, pairs)
        assert sys.sets == ((),)

    @given(random_scenarios(), st.integers(0, 2**32 - 1))
    def test_sets_match_per_pair_oracle(self, sc, seed2):
        """Every member set equals the direct per-(h, graph, pair) evaluation."""
        other = gen_random(
            n_points=sc.domain.size, n_hypotheses=2, density=0.5, seed=seed2
        ).graph
        nsets = sc.graph.neighbor_sets()
        pairs = [(x, nsets[x]) for x in range(sc.domain.size)]
        sys = graph_loss_class(sc.hclass, [other], sc.domain, pairs)
        want = set()
        for h in sc.hclass:
            s = tuple(
                i
                for i, (x, B) in enumerate(pairs)
                if oracles.oracle_graph_loss(h, other, x, B)
            )
            want.add(s)
        assert set(sys.sets) == want

    @given(random_scenarios())
    def test_single_member_system_is_the_graph_slice(self, sc):
        """With one hypothesis the joint system is the candidate-only system."""
        G = list(sc.graph_class) if sc.graph_class is not None else [sc.graph]
        nsets = sc.graph.neighbor_sets()
        pairs = [(x, nsets[x]) for x in range(sc.domain.size)]
        h = sc.hclass.members[0]
        joint = graph_loss_class(HypothesisClass([h], sc.domain), G, sc.domain, pairs)
        slice_sets = set()
        for g in G:
            slice_sets.add(
                tuple(
                    i
                    for i, (x, B) in enumerate(pairs)
                    if oracles.oracle_graph_loss(h, g, x, B)
                )
            )
        assert set(joint.sets) == slice_sets

    def test_joint_dimension_can_exceed_slice_products(self):
        # slice dimensions do not compose multiplicatively: this seeded
        # instance has every per-hypothesis and per-candidate slice at
        # dimension <= 1 while the joint system shatters a pair
        sc = gen_random(
            n_points=5, n_hypotheses=4, density=0.4,
            seed=trial_seed(90_000_000, 0), n_graphs=3,
        )
        G = list(sc.graph_class)
        nsets = sc.graph.neighbor_sets()
        pairs = [(x, nsets[x]) for x in range(sc.domain.size)]
        joint_sys = graph_loss_class(sc.hclass, G, sc.domain, pairs)
        joint = vc_dimension(joint_sys).dimension
        # the quarantined oracles confirm the joint system and its dimension
        oracle_sets = {
            tuple(i for i, (x, B) in enumerate(pairs) if oracles.oracle_graph_loss(h, g, x, B))
            for h in sc.hclass
            for g in G
        }
        assert set(joint_sys.sets) == oracle_sets
        assert oracles.oracle_vc(SetSystem(pairs, oracle_sets)) == 2
        d1 = max(
            vc_dimension(
                graph_loss_class(HypothesisClass([h], sc.domain), G, sc.domain, pairs)
            ).dimension
            for h in sc.hclass
        )
        d2 = max(
            vc_dimension(graph_loss_class(sc.hclass, [g], sc.domain, pairs)).dimension
            for g in G
        )
        assert (joint, d1, d2) == (2, 1, 1)
        assert joint > d1 * d2
