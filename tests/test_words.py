"""Pair-partition word enumeration, height, and the two reducibility predicates."""

import pytest
from collections import Counter

from hypothesis import given, strategies as st

from hmt.errors import InvalidArgumentError
from hmt.limits import word_volumes
from hmt.volumes import build_system, volume_exact
from hmt.words import (
    PartitionWord,
    delete_subword,
    dihedral_labels,
    dihedral_orbit,
    double_factorial_odd,
    enumerate_words,
    height,
    is_irreducible,
    is_noncrossing,
    is_symmetric,
    proper_subword_windows,
)

from test_walk_oracle import is_symmetric as oracle_is_symmetric, turns

W = PartitionWord.from_string


class TestPartitionWord:
    def test_roundtrip_string(self):
        for text in ("aa", "abab", "abba", "abcabc", "abccba"):
            assert str(W(text)) == text

    def test_occurrences(self):
        assert W("abab").occurrences() == ((0, 2), (1, 3))
        assert W("aabb").occurrences() == ((0, 1), (2, 3))

    @pytest.mark.parametrize(
        "letters",
        [
            (0,),  # odd length
            (0, 0, 0, 0),  # letter appears four times
            (1, 1, 0, 0),  # first occurrences out of order
            (0, 1, 0, 2),  # letters 1 and 2 appear once
            (),  # empty
        ],
    )
    def test_rejects_malformed(self, letters):
        with pytest.raises(InvalidArgumentError):
            PartitionWord(letters)


class TestEnumeration:
    def test_k1_single_word(self):
        assert enumerate_words(1) == [W("aa")]

    def test_k2_three_words(self):
        words = enumerate_words(2)
        assert set(map(str, words)) == {"aabb", "abba", "abab"}
        assert len(words) == 3

    def test_k4_count_is_105(self):
        assert len(enumerate_words(4)) == 105

    @pytest.mark.parametrize("k", range(1, 7))
    def test_count_is_odd_double_factorial(self, k):
        words = enumerate_words(k)
        assert len(words) == double_factorial_odd(k)
        assert len(set(words)) == len(words)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_lexicographic_order(self, k):
        seqs = [w.letters for w in enumerate_words(k)]
        assert seqs == sorted(seqs)

    def test_invalid_k(self):
        with pytest.raises(InvalidArgumentError):
            enumerate_words(0)
        with pytest.raises(InvalidArgumentError):
            enumerate_words(9)


class TestHeight:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("abcabc", 0),
            ("abccba", 3),
            ("aabbcc", 3),
            ("abcbca", 1),
            ("abccab", 1),
            ("aa", 1),
            ("aabb", 2),
            ("abba", 2),
            ("abab", 0),
        ],
    )
    def test_examples(self, text, expected):
        assert height(W(text)) == expected

    @pytest.mark.parametrize("k", range(1, 6))
    def test_additivity_over_subword_deletion(self, k):
        # height(w) = height(w1) + height(w without w1) for every proper
        # partition subword w1 (pyramidal multiplicativity of 2**height)
        for w in enumerate_words(k):
            for start, stop in proper_subword_windows(w):
                inner = PartitionWord(
                    tuple_canonical(w.letters[start:stop])
                )
                outer = delete_subword(w, start, stop)
                assert height(w) == height(inner) + height(outer), (
                    str(w), start, stop,
                )

    def test_irreducible_words_have_height_zero(self):
        for k in range(2, 6):
            for w in enumerate_words(k):
                if is_irreducible(w):
                    assert height(w) == 0
        # the unique length-2 word is the exception
        assert height(W("aa")) == 1


class TestDihedralOrbits:
    """The orbit pass against orbits computed by turns, which shares no code with hmt.words."""

    @pytest.mark.parametrize("k", range(1, 7))
    def test_sizes_sum_to_word_count(self, k):
        labels = dihedral_labels(k)
        sizes = Counter(labels)
        first = {}
        for w, label in zip(enumerate_words(k), labels):
            first.setdefault(label, w)
        assert [sizes[label] for label in range(len(sizes))] == [
            len(turns(w.letters)) for w in first.values()
        ]
        assert sum(sizes.values()) == double_factorial_odd(k)

    def test_orbit_counts_are_a007769(self):
        # chord diagrams with k chords up to rotation and reflection
        counts = [1, 2, 5, 17, 79, 554]
        assert [len(set(dihedral_labels(k))) for k in range(1, 7)] == counts

    @pytest.mark.parametrize("k", range(1, 6))
    def test_orbit_is_turns(self, k):
        for w in enumerate_words(k):
            assert dihedral_orbit(w.letters) == turns(w.letters), str(w)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_members_are_turns_of_their_representative(self, k):
        # the representative is the first word met with a label
        labels = dihedral_labels(k)
        assert len(labels) == double_factorial_odd(k)
        first = {}
        for w, label in zip(enumerate_words(k), labels):
            rep = first.setdefault(label, w.letters)
            assert w.letters in turns(rep), (str(w), rep)
        # labels count orbits in order of first appearance, each first met at its least member
        assert list(first) == list(range(len(first)))
        assert all(rep == min(turns(rep)) for rep in first.values())

    @pytest.mark.parametrize("family", ["toeplitz", "hankel"])
    @pytest.mark.parametrize("k", range(1, 5))
    def test_exact_word_volumes_match_a_solve_per_word(self, family, k):
        # word_volumes counts one member per orbit; every word must read its own volume
        per_word = [volume_exact(build_system(w, family)) for w in enumerate_words(k)]
        assert word_volumes((family,), k, "exact", samples=0, seed=0) == {family: per_word}

    def test_examples(self):
        # aabb and abba turn into each other; abab is an orbit of its own
        assert enumerate_words(2) == [W("aabb"), W("abab"), W("abba")]
        assert dihedral_labels(2) == (0, 1, 0)
        assert dihedral_orbit(W("abba").letters) == {W("aabb").letters, W("abba").letters}
        label = dict(zip(enumerate_words(3), dihedral_labels(3)))
        assert label[W("abcbca")] == label[W("aabcbc")]


def tuple_canonical(letters):
    ids = {}
    out = []
    for letter in letters:
        if letter not in ids:
            ids[letter] = len(ids)
        out.append(ids[letter])
    return tuple(out)


def brute_is_partition_window(letters, start, stop):
    if (stop - start) % 2:
        return False
    counts = Counter(letters[start:stop])
    return all(c == 2 for c in counts.values())


def brute_irreducible(w):
    n = len(w.letters)
    for start in range(n):
        for stop in range(start + 2, n + 1):
            if (start, stop) == (0, n):
                continue
            if brute_is_partition_window(w.letters, start, stop):
                return False
    return True


def brute_noncrossing(w):
    text = str(w)
    changed = True
    while changed:
        changed = False
        for i in range(len(text) - 1):
            if text[i] == text[i + 1]:
                text = text[:i] + text[i + 2 :]
                changed = True
                break
    return text == ""


class TestIrreducible:
    @pytest.mark.parametrize(
        "text,expected", [("aa", True), ("aabb", False), ("abab", True)]
    )
    def test_examples(self, text, expected):
        assert is_irreducible(W(text)) is expected

    @pytest.mark.parametrize("k", range(1, 5))
    def test_matches_substring_scan(self, k):
        for w in enumerate_words(k):
            assert is_irreducible(w) == brute_irreducible(w), str(w)


class TestPartitionWindows:
    @pytest.mark.parametrize("k", range(1, 6))
    def test_proper_windows_match_substring_scan(self, k):
        for w in enumerate_words(k):
            n = len(w)
            want = [(start, stop) for start in range(n) for stop in range(start + 2, n + 1)
                    if (start, stop) != (0, n)
                    and brute_is_partition_window(w.letters, start, stop)]
            assert proper_subword_windows(w) == want, str(w)

    @pytest.mark.parametrize("start, stop", [
        (-3, -1),  # negative: the slice would be "cc"
        (3, 1),  # reversed
        (6, 8),  # past the end
        (4, 8),  # runs past the end
        (2, 2),  # empty
        (0, 2),  # not a partition word
    ])
    def test_delete_subword_refuses_other_windows(self, start, stop):
        with pytest.raises(InvalidArgumentError, match="not a partition subword"):
            delete_subword(W("abbcca"), start, stop)


class TestNoncrossing:
    @pytest.mark.parametrize(
        "text,expected",
        [("aabb", True), ("abba", True), ("abab", False), ("aa", True)],
    )
    def test_examples(self, text, expected):
        assert is_noncrossing(W(text)) is expected

    @pytest.mark.parametrize("k", range(1, 5))
    def test_matches_repeated_deletion(self, k):
        for w in enumerate_words(k):
            assert is_noncrossing(w) == brute_noncrossing(w), str(w)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_counts_are_catalan(self, k):
        import math

        catalan = math.comb(2 * k, k) // (k + 1)
        assert sum(is_noncrossing(w) for w in enumerate_words(k)) == catalan


class TestSymmetric:
    """Each letter at one odd and one even place: the words with a Hankel volume."""

    @pytest.mark.parametrize("k", range(1, 7))
    def test_matches_the_walk_oracle_and_counts_k_factorial(self, k):
        import math

        words = enumerate_words(k)
        assert [is_symmetric(w) for w in words] == [oracle_is_symmetric(w.letters)
                                                    for w in words]
        assert sum(map(is_symmetric, words)) == math.factorial(k)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_constant_on_dihedral_orbits(self, k):
        # word_volumes reads it off each orbit's first word
        first = {}
        for w, label in zip(enumerate_words(k), dihedral_labels(k)):
            assert is_symmetric(w) == is_symmetric(first.setdefault(label, w)), str(w)


@given(st.integers(min_value=1, max_value=5), st.data())
def test_word_properties_random(k, data):
    words = enumerate_words(k)
    w = data.draw(st.sampled_from(words))
    assert len(w) == 2 * k
    assert PartitionWord.from_string(str(w)) == w
    counts = Counter(w.letters)
    assert all(c == 2 for c in counts.values())
    if is_noncrossing(w) and len(w) > 2:
        assert not is_irreducible(w)
