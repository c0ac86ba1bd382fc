"""Tests for canonical encoding — injectivity is what makes commitments bind."""

import enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.aspath import ASPath
from repro.bgp.messages import Update
from repro.bgp.prefix import Prefix
from repro.bgp.route import Route
from repro.util.encoding import (
    CanonicalEncodeError,
    canonical_decode,
    canonical_encode,
)

# A recursive strategy over the supported value universe.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**12), max_value=10**12),
    st.binary(max_size=24),
    st.text(max_size=24),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=8), inner, max_size=4),
    ),
    max_leaves=12,
)


class TestCanonicalEncode:
    def test_scalars(self):
        assert canonical_encode(None) == b"N0:"
        assert canonical_encode(True) == b"T0:"
        assert canonical_encode(False) == b"F0:"
        assert canonical_encode(42) == b"I2:42"
        assert canonical_encode(-7) == b"I2:-7"
        assert canonical_encode(b"ab") == b"B2:ab"
        assert canonical_encode("ab") == b"S2:ab"

    def test_bool_and_int_distinct(self):
        # bool is a subclass of int in Python; the encoding must separate them.
        assert canonical_encode(True) != canonical_encode(1)
        assert canonical_encode(False) != canonical_encode(0)

    def test_str_and_bytes_distinct(self):
        assert canonical_encode("ab") != canonical_encode(b"ab")

    def test_dict_key_order_irrelevant(self):
        assert canonical_encode({"a": 1, "b": 2}) == canonical_encode({"b": 2, "a": 1})

    def test_list_and_tuple_equivalent(self):
        assert canonical_encode([1, 2]) == canonical_encode((1, 2))

    def test_nesting_unambiguous(self):
        assert canonical_encode(((1,), 2)) != canonical_encode((1, (2,)))
        assert canonical_encode(("a", "bc")) != canonical_encode(("ab", "c"))

    def test_rejects_unsupported(self):
        with pytest.raises(CanonicalEncodeError):
            canonical_encode(3.14)

    def test_rejects_non_str_dict_keys(self):
        with pytest.raises(CanonicalEncodeError):
            canonical_encode({1: "x"})

    def test_canonical_hook(self):
        class Thing:
            def canonical(self):
                return canonical_encode(("thing", 7))

        assert canonical_encode(Thing()) == canonical_encode(("thing", 7))

    def test_canonical_hook_must_return_bytes(self):
        class Bad:
            def canonical(self):
                return "not-bytes"

        with pytest.raises(CanonicalEncodeError):
            canonical_encode(Bad())


class TestCanonicalDecode:
    @given(values)
    def test_roundtrip(self, value):
        decoded = canonical_decode(canonical_encode(value))
        assert decoded == _normalize(value)

    @given(values, values)
    def test_injective(self, a, b):
        if _normalize(a) != _normalize(b):
            assert canonical_encode(a) != canonical_encode(b)

    def test_rejects_trailing_bytes(self):
        with pytest.raises(ValueError):
            canonical_decode(canonical_encode(1) + b"x")

    def test_rejects_truncation(self):
        with pytest.raises(ValueError):
            canonical_decode(b"I5:12")

    def test_rejects_unknown_tag(self):
        with pytest.raises(ValueError):
            canonical_decode(b"Z0:")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            canonical_decode(b"")


def _normalize(value):
    """Lists decode as tuples; normalize for comparison."""
    if isinstance(value, (list, tuple)):
        return tuple(_normalize(v) for v in value)
    if isinstance(value, dict):
        return {k: _normalize(v) for k, v in value.items()}
    return value


# -- the recursive encoder this module had before the single-pass one, kept
# -- as the reference the production encoder is compared against -------------


def _reference_frame(tag, body):
    return [tag, str(len(body)).encode("ascii"), b":", body]


def _reference_parts(value):
    if value is None:
        return _reference_frame(b"N", b"")
    if value is True:
        return _reference_frame(b"T", b"")
    if value is False:
        return _reference_frame(b"F", b"")
    if isinstance(value, int):
        return _reference_frame(b"I", str(value).encode("ascii"))
    if isinstance(value, bytes):
        return _reference_frame(b"B", value)
    if isinstance(value, str):
        return _reference_frame(b"S", value.encode("utf-8"))
    if isinstance(value, (list, tuple)):
        body = b"".join(reference_encode(item) for item in value)
        return _reference_frame(b"L", body)
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise CanonicalEncodeError(
                    f"dict keys must be str, got {type(key).__name__}"
                )
        parts = []
        for key in sorted(value):
            parts.append(reference_encode(key))
            parts.append(reference_encode(value[key]))
        return _reference_frame(b"D", b"".join(parts))
    if hasattr(value, "canonical"):
        encoded = value.canonical()
        if not isinstance(encoded, bytes):
            raise CanonicalEncodeError(
                f"{type(value).__name__}.canonical() must return bytes"
            )
        return [encoded]
    raise CanonicalEncodeError(
        f"cannot canonically encode values of type {type(value).__name__}"
    )


def reference_encode(value):
    return b"".join(_reference_parts(value))


class Hop(enum.IntEnum):
    NEAR = 1
    FAR = 70000


class Name(str):
    pass


class Hooked:
    """Encodes through a ``canonical()`` hook built on the *reference*
    encoder, so a hooked node inside a container pins the splice, not
    just the hook's own recursion."""

    def __init__(self, inner):
        self.inner = inner

    def canonical(self):
        return reference_encode(("hooked", self.inner))


class HookReturnsText:
    def canonical(self):
        return "not-bytes"


differential_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.sampled_from([0, -1, 2**64 + 1, -(2**64) - 1, Hop.NEAR, Hop.FAR]),
    st.binary(max_size=24),
    st.text(max_size=24),  # full Unicode: multi-byte UTF-8 bodies
    st.text(max_size=8).map(Name),
)
differential_values = st.recursive(
    differential_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=8), inner, max_size=4),
        inner.map(Hooked),
    ),
    max_leaves=16,
)
unsupported = st.one_of(
    st.floats(allow_nan=False),
    st.just({1: "x"}),
    st.just({"ok": 1, 2: "x"}),
    st.builds(HookReturnsText),
    st.just(object()),
    st.just(frozenset()),
)


class TestAgainstTheRecursiveEncoder:
    def check(self, value):
        assert canonical_encode(value) == reference_encode(value)

    @settings(max_examples=50, deadline=None)
    @given(differential_values)
    def test_same_bytes(self, value):
        self.check(value)

    @pytest.mark.slow
    @settings(max_examples=500, deadline=None)
    @given(differential_values)
    def test_same_bytes_at_scale(self, value):
        self.check(value)

    @given(st.lists(differential_values, max_size=2), unsupported)
    def test_same_errors(self, around, bad):
        # the offending value at the top level and nested in a container
        for value in (bad, around + [bad], {"k": (bad,)}):
            with pytest.raises(CanonicalEncodeError) as expected:
                reference_encode(value)
            with pytest.raises(CanonicalEncodeError) as raised:
                canonical_encode(value)
            assert str(raised.value) == str(expected.value)

    def test_golden_update_bytes(self):
        """The bytes under ``Network.bytes_sent`` and under every BGP
        signature, by value: the UPDATE carrying Figure 1's 3-hop route
        N1-X-O as A hears it, captured before the encoder was rewritten."""
        route = Route(
            prefix=Prefix.parse("10.0.0.0/8"),
            as_path=ASPath(("N1", "X", "O")),
            neighbor="N1",
        )
        assert Update(announced=route).canonical() == (
            b"L107:S10:bgp-updateL86:S5:routeL25:S6:prefixI9:167772160I1:8"
            b"L23:S7:as-pathS2:N1S1:XS1:OS2:N1I3:100I1:0I1:0L0:L0:"
        )
