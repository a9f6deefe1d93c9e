"""Pair-partition words: enumeration, dihedral orbits, height, irreducibility, crossing.

A pair partition of {1, ..., 2k} is encoded as a word of 2k letters in
which every letter occurs exactly twice and first occurrences appear in
increasing letter order.  Letters are small integers (0, 1, 2, ...); the
a/b/c string form is a display layer only.  These words index every
limiting-moment formula in the package.  A word's volumes are constant on
its dihedral orbit (dihedral_orbit), so word tables compute one per orbit
and read it by each word's orbit label (dihedral_labels).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .errors import InvalidArgumentError

WORD_CAP = 8

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class PartitionWord:
    """Canonical pair-partition word of length 2k.

    letters[i] is the integer id of the letter in position i; ids are
    assigned in order of first occurrence and each id occurs exactly twice.
    """

    letters: tuple[int, ...]

    def __post_init__(self):
        n = len(self.letters)
        if n == 0 or n % 2 != 0:
            raise InvalidArgumentError(f"word length must be positive and even, got {n}")
        seen: dict[int, int] = {}
        next_id = 0
        for pos, letter in enumerate(self.letters):
            if letter == next_id:
                seen[letter] = 1
                next_id += 1
            elif letter in seen:
                seen[letter] += 1
                if seen[letter] > 2:
                    raise InvalidArgumentError(
                        f"letter {letter} occurs more than twice in {self.letters}"
                    )
            else:
                raise InvalidArgumentError(
                    f"position {pos}: letter {letter} breaks first-occurrence order"
                )
        bad = [x for x, c in seen.items() if c != 2]
        if bad:
            raise InvalidArgumentError(f"letters {bad} do not occur exactly twice")

    @property
    def k(self) -> int:
        return len(self.letters) // 2

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __str__(self) -> str:
        return "".join(_ALPHABET[x] for x in self.letters)

    @classmethod
    def from_string(cls, text: str) -> "PartitionWord":
        """Build from a display string such as 'abba'."""
        ids: dict[str, int] = {}
        out = []
        for ch in text:
            if ch not in ids:
                ids[ch] = len(ids)
            out.append(ids[ch])
        return cls(tuple(out))

    def occurrences(self) -> tuple[tuple[int, int], ...]:
        """(first, second) 0-based positions for each letter id in order."""
        first: dict[int, int] = {}
        pairs: list[tuple[int, int]] = [(-1, -1)] * self.k
        for pos, letter in enumerate(self.letters):
            if letter in first:
                pairs[letter] = (first[letter], pos)
            else:
                first[letter] = pos
        return tuple(pairs)


def double_factorial_odd(k: int) -> int:
    """(2k-1)!! = 1*3*...*(2k-1), the number of pair partitions of {1..2k}."""
    out = 1
    for j in range(1, 2 * k, 2):
        out *= j
    return out


def iter_words(k: int) -> Iterator[tuple[int, ...]]:
    """Yield all canonical letter tuples of length 2k in lexicographic order.

    Fills positions left to right; at each slot the candidates, tried in
    increasing letter order, are the currently open letters (closing them)
    and then the next unused letter id (opening it), so the output is
    lexicographically sorted by construction.
    """
    n = 2 * k
    word = [0] * n

    def rec(pos: int, open_letters: list[int], next_id: int) -> Iterator[tuple[int, ...]]:
        if pos == n:
            yield tuple(word)
            return
        remaining = n - pos
        for i, letter in enumerate(open_letters):
            word[pos] = letter
            rest = open_letters[:i] + open_letters[i + 1 :]
            yield from rec(pos + 1, rest, next_id)
        if next_id < k and len(open_letters) + 1 <= remaining - 1:
            word[pos] = next_id
            yield from rec(pos + 1, open_letters + [next_id], next_id + 1)

    yield from rec(0, [], 0)


@lru_cache(maxsize=None)
def _words_tuple(k: int) -> tuple[PartitionWord, ...]:
    return tuple(PartitionWord(t) for t in iter_words(k))


def enumerate_words(k: int) -> list[PartitionWord]:
    """All pair-partition words of length 2k, lexicographically ordered.

    The count is (2k-1)!!.  k must satisfy 1 <= k <= WORD_CAP (8; the
    table at k=8 has 2,027,025 entries).
    """
    if not isinstance(k, int) or k < 1:
        raise InvalidArgumentError(f"k must be a positive integer, got {k!r}")
    if k > WORD_CAP:
        raise InvalidArgumentError(f"k={k} exceeds the word-enumeration cap {WORD_CAP}")
    return list(_words_tuple(k))


def _relabelled(letters) -> tuple[int, ...]:
    """Letters renumbered 0, 1, 2, ... in order of first occurrence."""
    ids: dict[int, int] = {}
    return tuple(ids.setdefault(letter, len(ids)) for letter in letters)


def dihedral_orbit(letters: tuple[int, ...]) -> set[tuple[int, ...]]:
    """The word's dihedral orbit: its rotations and those of its reversal, relabelled."""
    n = len(letters)
    return {_relabelled(t[i:] + t[:i]) for t in (letters, letters[::-1]) for i in range(n)}


@lru_cache(maxsize=None)
def dihedral_labels(k: int) -> tuple[int, ...]:
    """Each word's dihedral orbit index, in enumerate_words(k) order.

    Orbits are numbered in order of first appearance.  The Toeplitz and
    Hankel volumes are constant on an orbit: rotating or reversing a word
    relabels the closed walk x_0, ..., x_2k = x_0 whose steps its letters tie
    together.  hmt.limits.word_volumes finds one volume per orbit, through
    the orbit's first word.  A word not yet met in an earlier orbit is the
    least member of its own; the other members wait, with the orbit's index,
    until the pass reaches them.
    """
    pending: dict[tuple[int, ...], int] = {}
    labels: list[int] = []
    orbits = 0
    for w in enumerate_words(k):
        label = pending.pop(w.letters, orbits)
        if label == orbits:
            orbits += 1
            orbit = dihedral_orbit(w.letters)
            orbit.remove(w.letters)
            pending.update(dict.fromkeys(orbit, label))
        labels.append(label)
    return tuple(labels)


def _is_balanced(letters: tuple[int, ...], start: int, stop: int) -> bool:
    """True iff letters[start:stop] is itself a partition word (or empty).

    A contiguous window is a partition word exactly when every letter
    occurring in it occurs twice in it.
    """
    if (stop - start) % 2 != 0:
        return False
    counts: dict[int, int] = {}
    for pos in range(start, stop):
        letter = letters[pos]
        counts[letter] = counts.get(letter, 0) + 1
    return all(c == 2 for c in counts.values())


def height(w: PartitionWord) -> int:
    """Number of encapsulated partition subwords x.w1.x of w.

    Counts the letters whose two occurrences enclose a window that is empty
    or itself a partition word.  Summed over all words of length 2k,
    2**height(w) gives the Markov limit's moment of order 2k; the tests use
    that sum as the oracle for the free-cumulant route in limits.
    """
    letters = w.letters
    total = 0
    for first, second in w.occurrences():
        if _is_balanced(letters, first + 1, second):
            total += 1
    return total


def partition_windows(w: PartitionWord) -> Iterator[tuple[int, int]]:
    """Every nonempty window [start, stop) of w that is itself a partition word.

    Windows come by start, then by stop; the whole word (0, 2k) is one.  From
    each start the scan counts the letters open in the window: a letter opens
    unless its partner lies inside the window, where it closes.  The window is
    a partition word when none is open.  A letter whose partner lies before
    start never closes, so the scan from that start ends there.
    """
    n = len(w.letters)
    partner = [0] * n
    for first, second in w.occurrences():
        partner[first] = second
        partner[second] = first
    for start in range(n):
        open_letters = 0
        for stop in range(start, n):
            mate = partner[stop]
            if mate < start:
                break
            if mate < stop:
                open_letters -= 1
                if not open_letters:
                    yield start, stop + 1
            else:
                open_letters += 1


def is_irreducible(w: PartitionWord) -> bool:
    """True iff no proper nonempty contiguous substring is a partition word.

    Counts of irreducible words give the free cumulants of the standard
    normal distribution.
    """
    whole = (0, len(w.letters))
    return all(window == whole for window in partition_windows(w))


def is_noncrossing(w: PartitionWord) -> bool:
    """True iff w reduces to the empty word by deleting adjacent equal pairs.

    Stack reduction: push each letter, cancel when it matches the top.
    Noncrossing word counts are the Catalan numbers.
    """
    stack: list[int] = []
    for letter in w.letters:
        if stack and stack[-1] == letter:
            stack.pop()
        else:
            stack.append(letter)
    return not stack


def is_symmetric(w: PartitionWord) -> bool:
    """True iff each letter sits at one odd and one even position: the k! words
    with a Hankel volume.  A rotation or reversal flips every parity, so it is
    constant on a dihedral orbit."""
    return all((second - first) % 2 for first, second in w.occurrences())


def delete_subword(w: PartitionWord, start: int, stop: int) -> PartitionWord:
    """Remove the partition window [start, stop) and re-canonicalize the remainder.

    Any window that partition_windows(w) does not yield is refused.
    """
    if (start, stop) not in partition_windows(w):
        raise InvalidArgumentError(f"window [{start}, {stop}) is not a partition subword")
    return PartitionWord(_relabelled(w.letters[:start] + w.letters[stop:]))


def proper_subword_windows(w: PartitionWord) -> list[tuple[int, int]]:
    """All windows [start, stop) that are proper nonempty partition subwords."""
    whole = (0, len(w.letters))
    return [window for window in partition_windows(w) if window != whole]
