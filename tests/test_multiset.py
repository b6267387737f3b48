import pytest
from hypothesis import given
from hypothesis import strategies as st

from orbitpn import Multiset, SignedMultiset
from reference import difference, format_sum, submultiset
from strategies import identifiers, signed_multisets


class TestMultiset:
    def test_counts_accumulate(self):
        assert Multiset(["x", "x", "y"]) == Multiset({"x": 2, "y": 1})

    def test_zero_counts_dropped(self):
        assert Multiset({"x": 0}) == Multiset()
        assert not Multiset({"x": 0})

    def test_built_from_a_multiset_keeps_counts(self):
        assert Multiset(Multiset({"x": 2, "y": 1})) == Multiset({"x": 2, "y": 1})

    def test_built_from_a_signed_multiset_keeps_counts(self):
        assert Multiset(SignedMultiset({"x": 3})) == Multiset({"x": 3})
        assert SignedMultiset(Multiset({"xy": 2})) == SignedMultiset({"xy": 2})

    def test_built_from_a_negative_signed_multiset_rejected(self):
        with pytest.raises(ValueError, match="negative multiplicity"):
            Multiset(SignedMultiset({"x": 1, "y": -1}))

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            Multiset({"x": -1})

    @pytest.mark.parametrize("n", [1.5, 2.0, "2", None])
    def test_non_integer_count_rejected(self, n):
        with pytest.raises(TypeError, match="is not an integer"):
            Multiset({"x": n})

    def test_bool_counts_as_int(self):
        assert Multiset({"x": True, "y": False}) == Multiset(["x"])
        assert str(Multiset({"x": True})) == "x"

    def test_add_sub(self):
        a = Multiset({"x": 2})
        b = Multiset({"x": 1, "y": 1})
        assert a + b == Multiset({"x": 3, "y": 1})
        assert difference(a + b, b) == a

    def test_sub_underflow(self):
        with pytest.raises(ValueError):
            difference(Multiset({"x": 1}), Multiset({"x": 2}))

    def test_containment(self):
        assert submultiset(Multiset({"x": 1}), Multiset({"x": 2, "y": 1}))
        assert not submultiset(Multiset({"x": 3}), Multiset({"x": 2}))
        assert submultiset(Multiset(), Multiset())

    def test_total_and_items(self):
        m = Multiset({"y": 1, "x": 2})
        assert sum(m.count(c) for c in m) == 3
        assert m.items() == (("x", 2), ("y", 1))

    def test_str_canonical(self):
        assert str(Multiset({"C": 1, "A": 1})) == "A+C"
        assert str(Multiset({"x": 3})) == "3x"
        assert str(Multiset()) == "0"

    def test_hashable(self):
        assert hash(Multiset({"x": 1})) == hash(Multiset(["x"]))
        assert len({Multiset({"x": 1}), Multiset(["x"])}) == 1

    def test_immutable(self):
        m = Multiset({"x": 1})
        with pytest.raises(AttributeError):
            m._counts = {}
        for name in ("_map", "_text", "_counts"):
            with pytest.raises(AttributeError, match="^Multiset is immutable$"):
                delattr(m, name)
        assert m == Multiset(["x"]) and str(m) == "x"

    def test_color_membership(self):
        m = Multiset({"x": 2, "yz": 1})
        assert "x" in m and "yz" in m
        assert "y" not in m and "z" not in m and "xy" not in Multiset()


class TestTypeStrictness:
    def test_never_equal_across_types(self):
        assert Multiset({"x": 1}) != SignedMultiset({"x": 1})
        assert SignedMultiset({"x": 1}) != Multiset({"x": 1})
        assert Multiset() != SignedMultiset()

    @pytest.mark.parametrize("op", [lambda a, b: a + b, lambda a, b: difference(a, b),
                                    lambda a, b: submultiset(a, b)])
    def test_no_mixing(self, op):
        with pytest.raises(TypeError):
            op(Multiset({"x": 1}), SignedMultiset({"x": 1}))
        with pytest.raises(TypeError):
            op(SignedMultiset({"x": 1}), Multiset({"x": 1}))

    def test_repr_names_class(self):
        assert repr(Multiset({"y": 1, "x": 2})) == "Multiset({'x': 2, 'y': 1})"
        assert repr(SignedMultiset({"x": -1})) == "SignedMultiset({'x': -1})"

    def test_sub_result_type(self):
        assert type(difference(Multiset({"x": 2}), Multiset({"x": 1}))) is Multiset


class TestSignedMultiset:
    def test_zero_normalization(self):
        assert SignedMultiset({"x": 0}) == SignedMultiset()
        assert SignedMultiset({"x": 1}) + SignedMultiset({"x": -1}) == SignedMultiset()

    def test_str_forms(self):
        assert str(SignedMultiset()) == "0"
        assert str(SignedMultiset({"A": 1, "C": 1})) == "A+C"
        assert str(SignedMultiset({"S": -1})) == "-S"
        assert str(SignedMultiset({"A": 2, "B": -1})) == "2A-B"

    @pytest.mark.parametrize("n", [1.5, 2.0, "2", None])
    def test_non_integer_coefficient_rejected(self, n):
        with pytest.raises(TypeError, match="coefficient .* for color 'x' is not an integer"):
            SignedMultiset({"x": n})

    def test_bool_counts_as_int(self):
        assert SignedMultiset({"x": True, "y": False}) == SignedMultiset({"x": 1})
        assert str(SignedMultiset({"x": True})) == "x"

    @given(a=signed_multisets, b=signed_multisets, c=signed_multisets)
    def test_commutative_group(self, a, b, c):
        zero = SignedMultiset()
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a + zero == a
        assert a + SignedMultiset({color: -n for color, n in a.items()}) == zero

    @given(a=signed_multisets)
    def test_canonical_form_unique(self, a):
        rebuilt = SignedMultiset(dict(a.items()))
        assert rebuilt == a
        assert hash(rebuilt) == hash(a)


class TestCanonicalText:
    """`str` keeps each sum's text once it is made; that text must stay the
    one a fresh formatting gives (`reference.format_sum`)."""

    @given(coeffs=st.dictionaries(identifiers, st.integers(-5, 5), max_size=4),
           other=signed_multisets)
    def test_str_matches_fresh_formatting(self, coeffs, other):
        unsigned = {c: abs(n) for c, n in coeffs.items()}
        for value, terms in ((SignedMultiset(coeffs), coeffs), (Multiset(unsigned), unsigned)):
            want = format_sum(terms)
            before = (hash(value), value.items(), repr(value))
            assert str(value) == want  # made
            assert f"{value}" == str(value) == want
            assert str(value) is str(value)  # kept, not made again
            assert (hash(value), value.items(), repr(value)) == before
            assert value == type(value)(terms)
            with pytest.raises(AttributeError):
                value._text = "changed"
            with pytest.raises(AttributeError):
                value._map = {}
            for name in ("_text", "_map"):
                with pytest.raises(AttributeError, match="is immutable$"):
                    delattr(value, name)
            assert str(value) == want and value == type(value)(terms)
            # sums built from ones whose text is kept get their own text
            str(other)
            total = SignedMultiset(value) + other
            assert str(total) == format_sum(dict(total.items()))
            assert str(type(value)(value)) == want
