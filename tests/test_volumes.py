"""Slab systems, exact and Monte Carlo volumes, Eulerian identities."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hmt.limits
import hmt.volumes
from hmt.errors import CapacityError, InvalidArgumentError, NumericError
from hmt.limits import catalan, word_volumes
from hmt.rng import TAG_VOLUME_MC, generator, mix
from hmt.volumes import (
    FLAT_VOLUME,
    SlabSystem,
    VolumeEstimate,
    build_system,
    eulerian_number,
    pairing_walk_moments,
    single_slab_system,
    slab_volume_integral,
    toeplitz_volumes,
    volume_exact,
    volume_mc,
    volumes_mc,
)
from hmt.words import PartitionWord, enumerate_words, is_noncrossing

from test_walk_oracle import (
    dihedral_classes,
    is_symmetric,
    pair_partitions,
    pairing_walk_count,
    polytope_volume,
    turns,
)

W = PartitionWord.from_string


class TestBuildSystem:
    def test_toeplitz_abab(self):
        s = build_system(W("abab"), "toeplitz")
        assert s.free_vars == (0, 1, 2)
        assert s.slabs[3] == ((1, -1, 1), 0, 1)
        assert s.slabs[4] == ((1, 0, 0), 0, 1)
        assert s.closure is None

    def test_hankel_abab(self):
        s = build_system(W("abab"), "hankel")
        assert s.free_vars == (2, 3, 4)
        assert s.slabs[0] == ((2, 0, -1), 0, 1)
        assert s.slabs[1] == ((-1, 1, 1), 0, 1)
        # closure = expr(x_0) - x_4; it vanishes exactly on {x_4 = x_2}
        assert s.closure == (2, 0, -2)
        assert s.flat

    def test_toeplitz_aa(self):
        s = build_system(W("aa"), "toeplitz")
        assert s.free_vars == (0, 1)
        assert s.slabs[2] == ((1, 0), 0, 1)

    @pytest.mark.parametrize("kind", ["toeplitz", "hankel"])
    @pytest.mark.parametrize("k", range(1, 5))
    def test_free_dependent_partition(self, kind, k):
        for w in enumerate_words(k):
            s = build_system(w, kind)
            dependents = set(s.slabs)
            assert len(s.free_vars) == k + 1
            assert dependents.isdisjoint(s.free_vars)
            assert dependents | set(s.free_vars) == set(range(2 * k + 1))
            for a, lo, hi in s.slabs.values():
                assert type(a) is tuple and len(a) == k + 1
                assert all(type(c) is int for c in (*a, lo, hi))

    @pytest.mark.parametrize("k", range(1, 6))
    def test_toeplitz_closure_telescopes(self, k):
        # the last variable's expression collapses to x_0 for every word
        x0 = (1,) + (0,) * k
        for w in enumerate_words(k):
            s = build_system(w, "toeplitz")
            assert s.slabs[2 * k] == (x0, 0, 1), str(w)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_hankel_closure_vanishes_on_symmetric_words(self, k):
        vanishing = 0
        for w in enumerate_words(k):
            closure = build_system(w, "hankel").closure
            assert (not any(closure)) == is_symmetric(w), str(w)
            vanishing += not any(closure)
        assert vanishing == math.factorial(k)

    def test_rejects_unknown_kind(self):
        with pytest.raises(InvalidArgumentError):
            build_system(W("aa"), "hermite")

    @pytest.mark.parametrize("row", [(1, -1), (1, -1, 1, 0), ()])
    def test_engines_reject_rows_of_the_wrong_length(self, row):
        system = SlabSystem((0, 1, 2), {3: (row, 0, 1)})
        with pytest.raises(InvalidArgumentError):
            volume_exact(system)
        with pytest.raises(InvalidArgumentError):
            volume_mc(system, 100, seed=1)


class TestVolumeExact:
    def test_toeplitz_abab_is_two_thirds(self):
        est = volume_exact(build_system(W("abab"), "toeplitz"))
        assert est.value == Fraction(2, 3)
        assert est.method == "exact" and est.stderr is None

    def test_hankel_abab_is_zero(self):
        est = volume_exact(build_system(W("abab"), "hankel"))
        assert est.value == 0

    def test_toeplitz_aabb_is_one(self):
        est = volume_exact(build_system(W("aabb"), "toeplitz"))
        assert est.value == 1

    def test_dimension_cap(self):
        with pytest.raises(CapacityError):
            volume_exact(single_slab_system([1] * 8))

    def test_zero_weight_facets_are_not_solved(self):
        # a facet a . x <= 0 has weight b = 0 in Lasserre's sum; solving those
        # facets too leaves 6,328 (all orbits) and 1,670 (symmetric orbits, as
        # Hankel systems) memo entries.  Both counts depend on which orbit
        # member is solved: here the lex-greatest, through order 10.  The order
        # of the solves moves neither.
        orbits = [PartitionWord(max(turns(rep))) for k in range(1, 6) for rep in dihedral_classes(k)]
        for words, entries in ((orbits, 3_255), (list(filter(is_symmetric, orbits)), 835)):
            hmt.volumes._facet_sum.cache_clear()
            for w in words:
                volume_exact(build_system(w, "toeplitz"))
            assert hmt.volumes._facet_sum.cache_info().currsize == entries

    @pytest.mark.parametrize("lo, hi", [(0, 0), (0, 1), (-1, 0), (-2, 3), (1, 2), (-2, -1)])
    def test_no_free_variables(self, lo, hi):
        # the cube of dimension 0 is one point, x = (); a . x = 0 there
        assert volume_exact(SlabSystem((), {})).value == 1
        system = SlabSystem((), {0: ((), lo, hi)})
        want = int(lo <= 0 <= hi)
        assert volume_exact(system).value == want
        assert volume_mc(system, 10, seed=1).value == want

    @pytest.mark.parametrize("slab", [((0.5,), 0, 1), ((1,), Fraction(1, 2), 1), ((1, 1), 0, 1.5)])
    def test_rejects_non_integer_slabs(self, slab):
        system = SlabSystem(tuple(range(len(slab[0]))), {9: slab})
        with pytest.raises(InvalidArgumentError, match="integer"):
            volume_exact(system)
        assert 0 < volume_mc(system, 100, seed=1).value <= 1

    def test_memo_is_bounded(self):
        maxsize = hmt.volumes._facet_sum.cache_info().maxsize
        assert maxsize is not None and maxsize >= 100_637

    @pytest.mark.parametrize("k", range(1, 5))
    def test_toeplitz_volumes_positive(self, k):
        for w in enumerate_words(k):
            assert volume_exact(build_system(w, "toeplitz")).value > 0

    @pytest.mark.parametrize("kind", ["toeplitz", "hankel"])
    def test_volumes_in_unit_interval(self, kind):
        for w in enumerate_words(3):
            value = volume_exact(build_system(w, kind)).value
            assert 0 <= value <= 1


class TestOrbitInvariance:
    """Rotating or reversing a word relabels its walk, so the volume is unchanged.

    Orbits come from turns, computed without hmt.words; a word's
    representative is the least member of its orbit.
    """

    @pytest.mark.parametrize("kind", ["toeplitz", "hankel"])
    @pytest.mark.parametrize("k", range(1, 5))
    def test_every_word_matches_its_representative(self, kind, k):
        for w in enumerate_words(k):
            rep = PartitionWord(min(turns(w.letters)))
            assert volume_exact(build_system(w, kind)).value == volume_exact(
                build_system(rep, kind)
            ).value, (str(w), str(rep))

    @pytest.mark.parametrize("kind", ["toeplitz", "hankel"])
    def test_first_and_last_member_at_k5(self, kind):
        # words come in lexicographic order, so the last one per representative is the greatest
        last = {PartitionWord(min(turns(w.letters))): w for w in enumerate_words(5)}
        assert len(last) == 79
        for rep, w in last.items():
            assert volume_exact(build_system(rep, kind)).value == volume_exact(
                build_system(w, kind)
            ).value, (str(rep), str(w))


class TestToeplitzVolume:
    """toeplitz_volumes counts lattice walks; the facet recursion is its oracle."""

    @pytest.mark.parametrize("k", range(1, 5))
    def test_every_word_equals_the_recursion(self, k):
        words = enumerate_words(k)
        assert toeplitz_volumes(words) == [volume_exact(build_system(w, "toeplitz")).value
                                           for w in words]

    def test_every_orbit_at_k5_equals_the_recursion(self):
        # each orbit's least member counted, its greatest member solved
        last = {PartitionWord(min(turns(w.letters))): w for w in enumerate_words(5)}
        assert len(last) == 79
        for rep, value in zip(last, toeplitz_volumes(last)):
            assert value == volume_exact(build_system(last[rep], "toeplitz")).value, str(rep)

    def test_sampled_orbits_at_k6_equal_the_recursion(self):
        # every 40th orbit: its least member counted, its greatest member solved
        reps = list(dihedral_classes(6))[::40]
        assert len(reps) == 14
        counted = toeplitz_volumes(map(PartitionWord, reps))
        for rep, value in zip(reps, counted):
            solved = volume_exact(build_system(PartitionWord(max(turns(rep))), "toeplitz"))
            assert value == solved.value, str(PartitionWord(rep))

    @pytest.mark.parametrize("k", range(1, 6))
    def test_scaled_by_factorial_is_an_integer(self, k):
        # the (k+1)-th difference of integer counts, over (k+1)!
        reps = list(map(PartitionWord, dihedral_classes(k)))
        for rep, value in zip(reps, toeplitz_volumes(reps)):
            assert (value * math.factorial(k + 1)).denominator == 1, str(rep)

    @staticmethod
    def recorded_counts(monkeypatch):
        """The (plan, N) of every walk count, each counted as 0 walks."""
        counts = []
        monkeypatch.setattr(hmt.volumes, "_walk_count",
                            lambda plan, n: counts.append((plan, n)) or 0)
        return counts

    @pytest.mark.parametrize("k", range(1, 5))
    def test_every_member_of_an_orbit_counts_along_one_plan(self, monkeypatch, k):
        # the member counted depends on the orbit only, not on the word given
        counts = self.recorded_counts(monkeypatch)
        first = {}
        for w in enumerate_words(k):
            counts.clear()
            toeplitz_volumes([w])
            plan = counts[0][0]
            assert first.setdefault(min(turns(w.letters)), plan) == plan, str(w)

    @pytest.mark.parametrize("k, orbits", [(1, 1), (2, 2), (3, 5), (4, 17), (5, 79), (6, 554)])
    def test_one_plan_per_orbit_a007769(self, monkeypatch, k, orbits):
        # chord diagrams with k chords up to rotation and reflection: one plan
        # each, counted once at each N = 0..k//2
        counts = self.recorded_counts(monkeypatch)
        toeplitz_volumes(enumerate_words(k))
        assert len({plan for plan, _ in counts}) == orbits
        assert len(set(counts)) == len(counts) == orbits * (k // 2 + 1)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_every_member_of_an_orbit_reads_one_value(self, k):
        value = dict(zip((w.letters for w in enumerate_words(k)),
                         toeplitz_volumes(enumerate_words(k))))
        for rep, size in dihedral_classes(k).items():
            members = turns(rep)
            assert len(members) == size
            assert len({value[m] for m in members}) == 1, rep

    @pytest.mark.parametrize("k", range(1, 6))
    def test_counts_along_the_cheapest_turn_with_the_greatest_letters(self, monkeypatch, k):
        # the count reads the word's raw turns, never relabelled; its plan must be
        # that of the relabelled turn of least cost, ties going to the greatest letters
        def cost(letters):  # sum of 7 ** (letters open after each place)
            return sum(7 ** sum((letters[:t + 1].count(x) == 1) for x in set(letters))
                       for t in range(len(letters)))

        def plan(letters):  # each place's index among the open letters, in order of opening
            open_letters, out = [], []
            for letter in letters:
                if letter in open_letters:
                    out.append(open_letters.index(letter))
                    open_letters.remove(letter)
                else:
                    out.append(len(open_letters))
                    open_letters.append(letter)
            return out

        plans = []
        monkeypatch.setattr(hmt.volumes, "_walk_count", lambda plan, n: plans.append(plan) or 0)
        for w in enumerate_words(k):
            plans.clear()
            toeplitz_volumes([w])
            member = max(turns(w.letters), key=lambda m: (-cost(m), m))
            assert plans and all(list(counted) == plan(member) for counted in plans), str(w)

    def test_value_outside_unit_interval_raises(self, monkeypatch):
        # L(N) = 2 for every N makes the volume of aa 2
        monkeypatch.setattr(hmt.volumes, "_walk_count", lambda plan, n: 2)
        with pytest.raises(NumericError):
            toeplitz_volumes([W("aa")])


# a hand-built system whose slab bounds are not the word bounds 0 and 1
GENERAL_SLABS = SlabSystem((0, 1, 2), {3: ((4, -2, 0), -1, 3), 4: ((2, 2, -4), 0, 2)}, None)


class TestVolumeMC:
    def test_toeplitz_abab_brackets_exact(self):
        est = volume_mc(build_system(W("abab"), "toeplitz"), 1_000_000, seed=20)
        assert abs(est.value - 2.0 / 3.0) <= 3 * est.stderr
        assert est.samples == 1_000_000

    def test_toeplitz_aa_exactly_one(self):
        est = volume_mc(build_system(W("aa"), "toeplitz"), 1000, seed=1)
        assert est.value == 1.0

    def test_hankel_abab_short_circuits(self):
        est = volume_mc(build_system(W("abab"), "hankel"), 10, seed=1)
        assert est.value == 0 and est.method == "exact"

    def test_deterministic(self):
        system = build_system(W("abab"), "toeplitz")
        a = volume_mc(system, 50_000, seed=33)
        b = volume_mc(system, 50_000, seed=33)
        assert a == b
        c = volume_mc(system, 50_000, seed=34)
        assert c.value != a.value

    def test_rejects_zero_samples(self):
        with pytest.raises(InvalidArgumentError):
            volume_mc(build_system(W("aa"), "toeplitz"), 0, seed=1)

    def test_two_chunk_value_pinned(self):
        system = build_system(W("abab"), "toeplitz")
        est = volume_mc(system, hmt.volumes._MC_CHUNK + 3, seed=20)
        assert est.value == 0.6666641235933626

    @pytest.mark.parametrize("points", [1, 7, 1000, 16384])
    def test_chunk_size_moves_no_estimate(self, monkeypatch, points):
        # the stream is read in whole points, however many a chunk holds
        system = build_system(W("abcabc"), "toeplitz")
        want = volume_mc(system, 20_000, seed=5)
        monkeypatch.setattr(hmt.volumes, "_MC_CHUNK", points * system.dimension)
        assert volume_mc(system, 20_000, seed=5) == want

    def test_estimates_hold_no_instance_dict(self):
        # one estimate per word is held, 2,027,025 of them at k = 8
        assert not hasattr(volume_mc(GENERAL_SLABS, 10, seed=7), "__dict__")

    def test_non_word_bounds_value_pinned(self):
        assert volume_mc(GENERAL_SLABS, 50_000, seed=7).value == 0.35916

    def test_coverage_over_seeds(self):
        # unbiasedness: the exact value lies inside 3 sigma nearly always
        system = build_system(W("abab"), "toeplitz")
        exact = 2.0 / 3.0
        hits = 0
        for i in range(100):
            est = volume_mc(system, 10_000, seed=mix(501, i))
            if abs(est.value - exact) <= 3 * est.stderr:
                hits += 1
        assert hits >= 95


class TestSkippedSlabs:
    """volume_mc tests only the slabs a cube point can violate, each once, and
    draws each point once for all the systems of one dimension.  None of it
    may move an estimate: hits depend on those slabs alone."""

    @staticmethod
    def every_slab_estimate(system, samples, seed):
        """volume_mc's estimate from a counter that tests every slab, unit rows too."""
        if system.flat:
            return VolumeEstimate(Fraction(0), "exact")
        d = system.dimension
        rows = list(system.slabs.values())
        mat = np.array([a for a, _, _ in rows], dtype=float).reshape(len(rows), d).T
        lo = np.array([lo for _, lo, _ in rows], dtype=float)
        hi = np.array([hi for _, _, hi in rows], dtype=float)
        gen = generator(seed)
        per_chunk = max(1, hmt.volumes._MC_CHUNK // d)
        hits, remaining = 0, samples
        while remaining:
            vals = gen.random((min(per_chunk, remaining), d)) @ mat
            hits += int(np.count_nonzero(((vals >= lo) & (vals <= hi)).all(axis=1)))
            remaining -= min(per_chunk, remaining)
        p = hits / samples
        return VolumeEstimate(p, "mc", stderr=math.sqrt(p * (1.0 - p) / samples),
                              samples=samples)

    @pytest.mark.parametrize("k", range(1, 6))
    @pytest.mark.parametrize("chunks", ["one", "two"])
    def test_word_estimates_equal_those_of_every_slab(self, k, chunks):
        samples = 2000 if chunks == "one" else hmt.volumes._MC_CHUNK // (k + 1) + 3
        families = ("toeplitz", "hankel")
        got = word_volumes(families, k, "mc", samples, seed=314159)
        for family in families:
            want = [
                self.every_slab_estimate(build_system(w, family), samples,
                                         mix(TAG_VOLUME_MC, 314159, k, index))
                for index, w in enumerate(enumerate_words(k))
            ]
            assert got[family] == want, family

    @pytest.mark.parametrize("k", range(1, 6))
    def test_noncrossing_toeplitz_words_draw_nothing(self, monkeypatch, k):
        # a noncrossing word's slabs are all unit rows: its volume 1 needs no draw
        class Drew(Exception):
            pass

        def no_generator(seed):
            raise Drew

        monkeypatch.setattr(hmt.volumes, "generator", no_generator)
        undrawn = []
        for w in enumerate_words(k):
            try:
                est = volume_mc(build_system(w, "toeplitz"), 1000, seed=3)
            except Drew:
                continue
            assert est == VolumeEstimate(1.0, "mc", stderr=0.0, samples=1000)
            undrawn.append(w)
        assert undrawn == [w for w in enumerate_words(k) if is_noncrossing(w)]
        assert len(undrawn) == catalan(k)

    def test_systems_drawn_together_equal_systems_drawn_alone(self):
        systems = [GENERAL_SLABS, build_system(W("abcabc"), "toeplitz"),
                   build_system(W("abab"), "hankel"), build_system(W("aabb"), "toeplitz"),
                   build_system(W("abcacb"), "hankel"), single_slab_system((1, -1, 1))]
        together = volumes_mc(systems, hmt.volumes._MC_CHUNK // 3 + 5, seed=11)
        alone = [volume_mc(s, hmt.volumes._MC_CHUNK // 3 + 5, seed=11) for s in systems]
        assert together == alone

    def test_unit_and_repeated_rows_are_skipped(self):
        system = SlabSystem((0, 1), {
            2: ((1, 0), 0, 1), 3: ((1, -1), 0, 1), 4: ((1, -1), 0, 1),
            5: ((1, 1), 0, 2), 6: ((1, 1), -1, 3), 7: ((-1, 0), -1, 0)}, None)
        assert hmt.volumes._binding_slabs(system) == [((1, -1), 0, 1)]


def test_symmetric_hankel_words_have_their_toeplitz_volume():
    # Let y_j = x_j for even j and y_j = 1 - x_j for odd j, a map of the cube
    # onto itself.  A symmetric word puts each letter at one odd place i and one
    # even place m, where the Hankel equation x_i + x_{i-1} = x_m + x_{m-1}
    # becomes the Toeplitz one y_i - y_{i-1} + y_m - y_{m-1} = 0.  The Hankel
    # closure x_0 = x_2k joins two even places, so it becomes y_0 = y_2k, which
    # Toeplitz gets by telescoping.  So p_H(w) = p_T(w), exactly.
    words = [w for k in range(1, 6) for w in enumerate_words(k) if is_symmetric(w)]
    assert len(words) == 153
    for w in words:
        hankel = volume_exact(build_system(w, "hankel")).value
        assert hankel == volume_exact(build_system(w, "toeplitz")).value, str(w)


class TestHankelThroughToeplitz:
    """word_volumes gives a Hankel word its Toeplitz volume if it is symmetric
    and an exact 0 otherwise, so it builds Hankel systems for Monte Carlo only,
    and only for the k! symmetric words."""

    @staticmethod
    def recorded(monkeypatch):
        built = []

        def recording(w, kind):
            built.append((kind, w))
            return build_system(w, kind)

        monkeypatch.setattr(hmt.limits, "build_system", recording)
        return built

    @pytest.mark.parametrize("k", range(1, 6))
    def test_exact_hankel_reads_the_toeplitz_count(self, monkeypatch, k):
        # one count per orbit, every orbit, and no system built
        built, plans = self.recorded(monkeypatch), set()
        count = hmt.volumes._walk_count
        monkeypatch.setattr(hmt.volumes, "_walk_count",
                            lambda plan, n: plans.add(plan) or count(plan, n))
        volumes = word_volumes(("toeplitz", "hankel"), k, "exact", 1, 0)
        assert len(plans) == len(dihedral_classes(k)) and not built
        assert word_volumes(("hankel",), k, "exact", 1, 0)["hankel"] == volumes["hankel"]
        for w, toeplitz, hankel in zip(enumerate_words(k), *volumes.values()):
            assert hankel == (toeplitz if is_symmetric(w) else FLAT_VOLUME), str(w)

    @pytest.mark.parametrize("k", range(1, 6))
    def test_exact_hankel_alone_counts_the_symmetric_words(self, monkeypatch, k):
        both = word_volumes(("toeplitz", "hankel"), k, "exact", 1, 0)["hankel"]
        counted, count = [], hmt.limits.toeplitz_volumes

        def recording(words):
            words = list(words)
            counted.extend(words)
            return count(words)

        monkeypatch.setattr(hmt.limits, "toeplitz_volumes", recording)
        assert word_volumes(("hankel",), k, "exact", 1, 0)["hankel"] == both
        assert len(counted) == math.factorial(k) and all(is_symmetric(w) for w in counted)

    @pytest.mark.slow
    def test_exact_hankel_order_fourteen(self):
        # k = 7 is above the exact cap of a words table.  Symmetric words make
        # whole orbits, so a Hankel-only table counts them alone, in about a
        # tenth of the time of all words
        volumes = word_volumes(("hankel",), 7, "exact", 1, 0)["hankel"]
        total = sum(estimate.value for estimate in volumes)
        assert total == Fraction(1331087, 720) == pairing_walk_moments("hankel", 7)[-1]

    @pytest.mark.parametrize("k", range(1, 6))
    def test_monte_carlo_builds_hankel_for_symmetric_words(self, monkeypatch, k):
        built = self.recorded(monkeypatch)
        word_volumes(("hankel",), k, "mc", 10, 0)
        assert len(built) == math.factorial(k)
        assert all(kind == "hankel" and is_symmetric(w) for kind, w in built)

    @pytest.mark.parametrize("families", [("hankel",), ("toeplitz", "hankel")])
    @pytest.mark.parametrize("k", range(1, 6))
    def test_monte_carlo_estimates_equal_every_system_built(self, families, k):
        samples, seed = 300, 27
        got = word_volumes(families, k, "mc", samples, seed)
        for index, w in enumerate(enumerate_words(k)):
            want = volumes_mc([build_system(w, family) for family in families], samples,
                              mix(TAG_VOLUME_MC, seed, k, index))
            assert [got[family][index] for family in families] == want, str(w)


def brute_force_walk_count(k: int, n: int, hankel: bool) -> int:
    """Pairs (pairing, walk in {0..n}) with opposite paired steps, one by one.

    Every pairing of the 2k places (for Hankel only those of opposite
    parity), every step of each pair in -n..n, and every start height that
    keeps the walk in {0..n}.
    """
    total = 0
    for word in pair_partitions(k):
        if hankel and not is_symmetric(word):
            continue
        for steps in itertools.product(range(-n, n + 1), repeat=k):
            seen, at, low, high = set(), 0, 0, 0
            for letter in word:
                at += -steps[letter] if letter in seen else steps[letter]
                seen.add(letter)
                low, high = min(low, at), max(high, at)
            total += max(0, n + 1 - (high - low))
    return total


class TestPairingWalkCount:
    """Exact moments from one count of walks over all pairings, with no word."""

    @pytest.mark.parametrize("hankel", [False, True], ids=["toeplitz", "hankel"])
    @pytest.mark.parametrize("n", range(4))
    def test_counts_every_pairing_and_walk(self, n, hankel):
        want = [brute_force_walk_count(k, n, hankel) for k in range(1, 5)]
        assert hmt.volumes._pairing_walk_counts(4, n, hankel) == want

    @pytest.mark.parametrize("hankel", [False, True], ids=["toeplitz", "hankel"])
    @pytest.mark.parametrize("n", range(4))
    def test_equals_the_oracle_count(self, n, hankel):
        want = [pairing_walk_count(k, n, hankel) for k in range(1, 7)]
        assert hmt.volumes._pairing_walk_counts(6, n, hankel) == want

    def test_word_route_sums_equal_the_count_through_order_twelve(self):
        # the two routes share _ehrhart_leading and nothing else
        families = ("toeplitz", "hankel")
        moments = {family: pairing_walk_moments(family, 6) for family in families}
        for k in range(1, 7):
            volumes = word_volumes(families, k, "exact", 1, 0)
            for family in families:
                total = sum(est.value for est in volumes[family])
                assert total == moments[family][k - 1], (family, k)

    def test_one_count_gives_every_order(self):
        assert pairing_walk_moments("toeplitz", 5) == [1, Fraction(8, 3), 11, Fraction(908, 15),
                                                       415]
        assert pairing_walk_moments("hankel", 0) == []

    @pytest.mark.parametrize("family, k", [("markov", 2), ("wigner", 2), ("toeplitz", -1),
                                           ("hankel", 2.0)])
    def test_rejects_other_families_and_bad_k(self, family, k):
        with pytest.raises(InvalidArgumentError):
            pairing_walk_moments(family, k)


class TestEulerian:
    def test_a32_is_four(self):
        assert eulerian_number(3, 2) == 4

    @pytest.mark.parametrize("n", range(1, 9))
    def test_first_column_ones(self, n):
        assert eulerian_number(n, 1) == 1

    @pytest.mark.parametrize("n", range(1, 8))
    def test_row_sums_factorial(self, n):
        assert sum(eulerian_number(n, m) for m in range(1, n + 1)) == math.factorial(n)

    def test_out_of_range_zero(self):
        assert eulerian_number(4, 0) == 0
        assert eulerian_number(4, 5) == 0
        assert eulerian_number(4, -1) == 0

    @pytest.mark.parametrize("n", range(1, 8))
    def test_symmetry(self, n):
        for m in range(1, n + 1):
            assert eulerian_number(n, m) == eulerian_number(n, n + 1 - m)

    def test_rejects_bad_n(self):
        with pytest.raises(InvalidArgumentError):
            eulerian_number(0, 1)

    def test_rejects_non_integer_m(self):
        with pytest.raises(InvalidArgumentError):
            eulerian_number(3, 2.5)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_single_slab_volume_identity(self, n):
        # one +/-1 slab with n-m negative signs carves out A(n, m)/n!
        for m in range(1, n + 1):
            signs = [1] * m + [-1] * (n - m)
            est = volume_exact(single_slab_system(signs))
            assert est.value == Fraction(eulerian_number(n, m), math.factorial(n))

    def test_sign_placement_irrelevant(self):
        a = volume_exact(single_slab_system([1, -1, 1])).value
        b = volume_exact(single_slab_system([1, 1, -1])).value
        assert a == b == Fraction(4, 6)


class TestSlabIntegral:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_recurrence_all(self, n):
        for m in range(1, n + 1):
            want = eulerian_number(n, m) / math.factorial(n)
            assert abs(slab_volume_integral(n, m) - want) < 1e-6, (n, m)

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidArgumentError):
            slab_volume_integral(3, 0)
        with pytest.raises(InvalidArgumentError):
            slab_volume_integral(3, 4)
        with pytest.raises(InvalidArgumentError):
            slab_volume_integral(3, 2.5)

    @pytest.mark.parametrize("options", [
        {"tol": 0}, {"tol": -1e-3}, {"tol": math.nan}, {"tol": math.inf},
    ])
    def test_rejects_bad_tolerance_and_panel_cap(self, options):
        with pytest.raises(InvalidArgumentError):
            slab_volume_integral(3, 2, **options)

    def test_unreachable_tolerance(self):
        with pytest.raises(NumericError, match="achievable tolerance"):
            slab_volume_integral(1, 1, tol=1e-12)


def _random_system(draw):
    # each slab 0 <= a . x + c/2 <= 1 with a in [-2, 2]^d, c in [-2, 2],
    # scaled by 2 to integers: -c <= 2a . x <= 2 - c
    d = draw(st.integers(min_value=1, max_value=3))
    n_forms = draw(st.integers(min_value=1, max_value=3))
    slabs = {}
    for i in range(n_forms):
        a = tuple(2 * draw(st.integers(min_value=-2, max_value=2)) for _ in range(d))
        c = draw(st.integers(min_value=-2, max_value=2))
        slabs[d + i] = (a, -c, 2 - c)
    return SlabSystem(tuple(range(d)), slabs, None)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_exact_volume_cross_checked_by_mc_and_qhull(data):
    system = _random_system(data.draw)
    exact = volume_exact(system)
    assert 0 <= exact.value <= 1
    mc = volume_mc(system, 40_000, seed=mix(7, data.draw(st.integers(0, 10**6))))
    tol = 4 * (mc.stderr or 0.0) + 0.01
    assert abs(float(exact.value) - mc.value) <= tol
    d = system.dimension
    cube = [(tuple(int(i == j) for i in range(d)), 0, 1) for j in range(d)]
    qhull, _ = polytope_volume(cube + list(system.slabs.values()))
    assert abs(float(exact.value) - qhull) <= 1e-9


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_substituted_rows_are_normalized(data):
    # rows that reach a substitution have gcd(a, b) = 1, so the rows it
    # returns do too, apart from all-zero rows left for _volume_system to judge
    system = _random_system(data.draw)
    returned = []
    substitute = hmt.volumes._substitute

    def recording(rows, pivot_idx, j):
        out = substitute(rows, pivot_idx, j)
        returned.extend(out)
        return out

    hmt.volumes._facet_sum.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hmt.volumes, "_substitute", recording)
        volume_exact(system)
    for a, b in returned:
        assert not any(a) or math.gcd(*a, b) == 1, (a, b)


@pytest.mark.parametrize("kind", ["toeplitz", "hankel"])
def test_scaled_word_slabs_keep_the_exact_volume(kind):
    # (2a, 2 lo, 2 hi) is the same slab: volume_exact normalizes it first
    for w in enumerate_words(4):
        system = build_system(w, kind)
        doubled = {
            v: (tuple(2 * x for x in a), 2 * lo, 2 * hi)
            for v, (a, lo, hi) in system.slabs.items()
        }
        scaled = SlabSystem(system.free_vars, doubled, system.closure)
        assert volume_exact(scaled) == volume_exact(system), str(w)


def _count(system, points):
    # every slab, including those the cube satisfies: some points lie outside it
    counter = hmt.volumes._hit_counter(list(system.slabs.values()), system.dimension)
    return counter(np.array(points, dtype=float))


class TestHitCounter:
    @pytest.mark.parametrize("lo, hi", [(0, 1), (-1, 2)])
    def test_one_dimensional_slab_is_closed(self, lo, hi):
        system = SlabSystem((0,), {1: ((1,), lo, hi)}, None)
        assert _count(system, [[lo], [hi]]) == 2
        assert _count(system, [[np.nextafter(lo, -np.inf)]]) == 0
        assert _count(system, [[np.nextafter(hi, np.inf)]]) == 0

    def test_two_dimensional_slab_is_closed(self):
        system = SlabSystem((0, 1), {2: ((1, 1), 0, 1)}, None)
        on_lo = [[0.0, 0.0]]
        on_hi = [[0.25, 0.75], [1.0, 0.0], [0.0, 1.0]]
        assert _count(system, on_lo + on_hi) == 4
        below = np.nextafter(0.0, -np.inf)
        above = np.nextafter(1.0, np.inf)
        outside = [[below, 0.0], [0.0, below], [above, 0.0], [0.0, above]]
        assert _count(system, outside) == 0

    def test_no_slabs_counts_every_point(self):
        system = SlabSystem((0, 1), {}, None)
        assert _count(system, np.full((7, 2), 0.5)) == 7


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_hit_count_matches_per_point_predicate(data):
    # grid points k/8: every a . x is exact in any summation order, and
    # many of them fall exactly on a slab bound
    system = _random_system(data.draw)
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    points = rng.integers(0, 9, size=(200, system.dimension)) / 8
    expected = sum(
        all(lo <= sum(c * x for c, x in zip(a, p)) <= hi for a, lo, hi in system.slabs.values())
        for p in points.tolist()
    )
    assert _count(system, points) == expected
