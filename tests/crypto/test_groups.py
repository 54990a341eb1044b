"""Schnorr group arithmetic and generation."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.rng import DeterministicRNG
from repro.crypto import groups
from repro.crypto.groups import (
    _SIEVE_BOUND,
    SchnorrGroup,
    _is_probable_prime,
    _odd_primes_below,
    _sieve_rejects_safe_prime,
    cached_test_group,
    small_group,
)

# (p, q, g, h) of the generated groups.  Every signature, commitment and
# proof in the repo is computed in the default one.  State fingerprints and
# telemetry digests do not depend on it, so these pins are what catch a
# search that finds a different group.
DEFAULT_GROUP = (
    2400465704108036344654058020358994631100991999239,
    1200232852054018172327029010179497315550495999619,
    1156563455654801939815456330213194182507022940457,
    439166164017136398305530523517724815014493081309,
)
GROUP_64_X = (
    30463914633472749707,
    15231957316736374853,
    27506158916442037416,
    26254037380947532944,
)


class TestPrimality:
    def test_small_primes(self):
        for p in (2, 3, 5, 7, 11, 13, 97, 7919):
            assert _is_probable_prime(p)

    def test_small_composites(self):
        for n in (0, 1, 4, 9, 15, 91, 561, 7917):
            assert not _is_probable_prime(n)

    def test_carmichael_numbers_rejected(self):
        for n in (561, 1105, 1729, 2465, 2821, 6601):
            assert not _is_probable_prime(n)


class TestSieve:
    SIEVE = _odd_primes_below(_SIEVE_BOUND)

    def test_odd_primes_below(self):
        assert _odd_primes_below(30) == [3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert _odd_primes_below(3) == []
        assert self.SIEVE == [n for n in range(3, _SIEVE_BOUND, 2) if _is_probable_prime(n)]

    @given(st.integers(min_value=_SIEVE_BOUND // 2, max_value=1 << 192))
    def test_rejects_exactly_when_a_sieve_prime_divides_q_or_p(self, half):
        q = 2 * half + 1
        divides = any(q % r == 0 or (2 * q + 1) % r == 0 for r in self.SIEVE)
        assert _sieve_rejects_safe_prime(q, self.SIEVE) == divides

    @pytest.mark.parametrize(
        "q",
        [DEFAULT_GROUP[1], GROUP_64_X[1], (groups._RFC3526_1536_P - 1) // 2],
    )
    def test_never_rejects_a_safe_prime_pair(self, q):
        assert _is_probable_prime(q) and _is_probable_prime(2 * q + 1)
        assert not _sieve_rejects_safe_prime(q, self.SIEVE)


class TestGroupStructure:
    def test_safe_prime_relation(self, group):
        assert group.p == 2 * group.q + 1

    def test_generators_in_subgroup(self, group):
        assert group.contains(group.g)
        assert group.contains(group.h)

    def test_generators_independent(self, group):
        assert group.g != group.h

    def test_contains_rejects_outside(self, group):
        assert not group.contains(0)
        assert not group.contains(group.p)

    def test_identity_is_member(self, group):
        assert group.contains(1)

    def test_bad_group_rejected(self):
        with pytest.raises(ValueError):
            SchnorrGroup(p=23, q=7, g=2, h=3)  # p != 2q+1


class TestGroupOps:
    def test_exp_reduces_exponent(self, group):
        assert group.exp(group.g, group.q + 5) == group.exp(group.g, 5)

    def test_exp_of_q_is_identity(self, group):
        assert group.exp(group.g, group.q) == 1

    def test_mul_inv(self, group, rng):
        a = group.exp(group.g, group.random_scalar(rng))
        assert group.mul(a, group.inv(a)) == 1

    def test_commit_structure(self, group):
        assert group.commit(0, 0) == 1
        assert group.commit(1, 0) == group.g
        assert group.commit(0, 1) == group.h

    def test_random_scalar_range(self, group, rng):
        for __ in range(50):
            scalar = group.random_scalar(rng)
            assert 1 <= scalar < group.q

    def test_hash_to_scalar_range_and_determinism(self, group):
        s1 = group.hash_to_scalar("t", b"data")
        s2 = group.hash_to_scalar("t", b"data")
        assert s1 == s2
        assert 0 <= s1 < group.q
        assert group.hash_to_scalar("t", b"other") != s1

    def test_hash_to_element_in_subgroup(self, group):
        element = group.hash_to_element("t", b"data")
        assert group.contains(element)
        assert element != 1


class TestGroupGeneration:
    def test_default_group_is_pinned(self):
        group = small_group()
        assert (group.p, group.q, group.g, group.h) == DEFAULT_GROUP

    def test_cached_test_group_is_the_default_group(self):
        group = cached_test_group()
        assert (group.p, group.q, group.g, group.h) == DEFAULT_GROUP

    def test_64_bit_group_is_pinned(self):
        group = small_group(bits=64, seed="x")
        assert (group.p, group.q, group.g, group.h) == GROUP_64_X

    def test_search_runs_few_miller_rabin_tests(self, monkeypatch):
        calls = []

        def counting(n, rounds=40):
            calls.append(n)
            return _is_probable_prime(n, rounds)

        monkeypatch.setattr(groups, "_is_probable_prime", counting)
        small_group()
        assert len(calls) <= 100  # 4547 without the sieve

    def test_small_group_deterministic(self):
        a = small_group(bits=64, seed="x")
        b = small_group(bits=64, seed="x")
        assert (a.p, a.q, a.g, a.h) == (b.p, b.q, b.g, b.h)

    def test_small_group_seed_matters(self):
        assert small_group(bits=64, seed="x").p != small_group(bits=64, seed="y").p

    def test_small_group_too_small_rejected(self):
        with pytest.raises(ValueError):
            small_group(bits=16)

    def test_cached_test_group_is_memoized(self):
        assert cached_test_group() is cached_test_group()

    def test_test_group_size(self):
        assert cached_test_group().q.bit_length() >= 159
