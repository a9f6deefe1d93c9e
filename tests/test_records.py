"""Value behaviour of hmt's record classes (hmt.records).

PartitionWord, SlabSystem, VolumeEstimate and MomentEstimate are frozen:
compared and hashed by their fields, and closed to assignment.
MomentTable and CumulantTable are mutable, compared by their fields and
unhashable.  Each is built positionally or by keyword with the defaults
below, and shows as `Name(field=value, ...)`.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from hmt.errors import InvalidArgumentError
from hmt.limits import CumulantTable, MomentEstimate, MomentTable
from hmt.volumes import SlabSystem, VolumeEstimate
from hmt.words import PartitionWord

# (positional, keyword, repr) of one instance of each class
CASES = [
    (lambda: PartitionWord((0, 1, 1, 0)),
     lambda: PartitionWord(letters=(0, 1, 1, 0)),
     "PartitionWord(letters=(0, 1, 1, 0))"),
    (lambda: SlabSystem((0, 1), {2: ((1, -1), 0, 1)}, (1, 0)),
     lambda: SlabSystem(closure=(1, 0), slabs={2: ((1, -1), 0, 1)}, free_vars=(0, 1)),
     "SlabSystem(free_vars=(0, 1), slabs={2: ((1, -1), 0, 1)}, closure=(1, 0))"),
    (lambda: VolumeEstimate(0.5, "mc", 0.125, 10),
     lambda: VolumeEstimate(samples=10, stderr=0.125, method="mc", value=0.5),
     "VolumeEstimate(value=0.5, method='mc', stderr=0.125, samples=10)"),
    (lambda: MomentEstimate(1.5, 0.25),
     lambda: MomentEstimate(stderr=0.25, value=1.5),
     "MomentEstimate(value=1.5, stderr=0.25)"),
    (lambda: MomentTable("x", {2: Fraction(1)}, {2: 0.5}, "mc"),
     lambda: MomentTable(method="mc", stderrs={2: 0.5}, entries={2: Fraction(1)}, family="x"),
     "MomentTable(family='x', entries={2: Fraction(1, 1)}, stderrs={2: 0.5}, method='mc')"),
    (lambda: CumulantTable("markov", {2: Fraction(2)}),
     lambda: CumulantTable(entries={2: Fraction(2)}, family="markov"),
     "CumulantTable(family='markov', entries={2: Fraction(2, 1)})"),
]
IDS = ["PartitionWord", "SlabSystem", "VolumeEstimate", "MomentEstimate", "MomentTable",
       "CumulantTable"]
FROZEN = IDS[:4]


@pytest.mark.parametrize("positional, keyword, text", CASES, ids=IDS)
class TestValues:
    def test_keyword_construction_and_repr(self, positional, keyword, text):
        assert repr(positional()) == repr(keyword()) == text

    def test_field_equality(self, positional, keyword, text):
        a, b = positional(), keyword()
        assert a == b and not a != b
        assert a != text and a != object()
        assert copy.copy(a) == a == pickle.loads(pickle.dumps(a))

    def test_hash_and_assignment(self, positional, keyword, text):
        a = positional()
        name = text[text.index("(") + 1:text.index("=")]  # the first field
        if type(a).__name__ in FROZEN:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(a, name, None)
            with pytest.raises(AttributeError):
                delattr(a, name)
            with pytest.raises(AttributeError):
                a.extra = 1
        else:
            with pytest.raises(TypeError, match="unhashable"):
                hash(a)
            setattr(a, name, "y")
            assert getattr(a, name) == "y" and a != keyword()


class TestDefaults:
    def test_defaults(self):
        assert MomentTable("a") == MomentTable("a", {}, {}, "exact")
        assert CumulantTable("a") == CumulantTable("a", {})
        assert SlabSystem((0,)) == SlabSystem((0,), {}, None)
        assert VolumeEstimate(1, "exact") == VolumeEstimate(1, "exact", None, None)

    def test_fresh_dicts_per_instance(self):
        one, two = MomentTable("a"), MomentTable("a")
        one.entries[2] = Fraction(1)
        one.stderrs[2] = 0.5
        assert two.entries == {} and two.stderrs == {}
        assert CumulantTable("a").entries is not CumulantTable("a").entries
        assert SlabSystem(()).slabs is not SlabSystem(()).slabs

    def test_frozen_hash_follows_fields(self):
        assert hash(PartitionWord((0, 0))) == hash(PartitionWord.from_string("aa"))
        assert len({VolumeEstimate(Fraction(1, 2), "exact"), VolumeEstimate(Fraction(1, 2), "exact"),
                    VolumeEstimate(0.5, "mc")}) == 2
        assert hash(MomentEstimate(1.0, 0.0)) == hash(MomentEstimate(1.0, 0.0))
        with pytest.raises(TypeError, match="unhashable"):
            hash(SlabSystem((0,), {}))  # a dict of slabs, as a dataclass would

    def test_other_classes_compare_unequal(self):
        assert MomentEstimate(1.0, 0.0) != VolumeEstimate(1.0, 0.0)
        assert CumulantTable("a") != MomentTable("a")

    def test_no_instance_dict(self):
        for positional, _, _ in CASES:
            assert not hasattr(positional(), "__dict__")


@pytest.mark.parametrize("letters, message", [
    ((), "word length must be positive and even, got 0"),
    ((0,), "word length must be positive and even, got 1"),
    ((0, 0, 0, 0), r"letter 0 occurs more than twice in \(0, 0, 0, 0\)"),
    ((0, 1, 0, 1, 1, 0), r"letter 1 occurs more than twice in \(0, 1, 0, 1, 1, 0\)"),
    ((1, 1, 0, 0), "position 0: letter 1 breaks first-occurrence order"),
    ((0, 1, 0, 2), r"letters \[1, 2\] do not occur exactly twice"),
])
def test_partition_word_validation(letters, message):
    with pytest.raises(InvalidArgumentError, match=f"^{message}$"):
        PartitionWord(letters)
