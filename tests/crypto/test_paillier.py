"""Paillier: round trips, homomorphic addition, the deliberate limits."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import CryptoError
from repro.common.rng import DeterministicRNG
from repro.crypto.paillier import Paillier


@pytest.fixture(scope="module")
def paillier():
    return Paillier(bits=256)


@pytest.fixture(scope="module")
def keys(paillier):
    return paillier.keygen(DeterministicRNG("paillier-test"))


class TestKeygen:
    def test_keypair_from_fixed_seed_is_pinned(self, paillier):
        key = paillier.keygen(DeterministicRNG("paillier-pin"))
        assert key.public.n == int(
            "508137097875017574769794371967669194182788311728690150642816"
            "46492921272763009"
        )
        assert key.lam == int(
            "254068548937508787384897185983834597089139901317553298942032"
            "65670538595530858"
        )
        assert key.mu == int(
            "214012473967734694825694760388339701088489439506172962732891"
            "73548585330367333"
        )


class TestEncryptDecrypt:
    def test_round_trip(self, paillier, keys):
        rng = DeterministicRNG("enc")
        ct = paillier.encrypt(keys.public, 123456, rng)
        assert paillier.decrypt(keys, ct) == 123456

    def test_zero(self, paillier, keys):
        rng = DeterministicRNG("enc0")
        assert paillier.decrypt(keys, paillier.encrypt(keys.public, 0, rng)) == 0

    def test_probabilistic_encryption(self, paillier, keys):
        rng = DeterministicRNG("enc2")
        a = paillier.encrypt(keys.public, 42, rng)
        b = paillier.encrypt(keys.public, 42, rng)
        assert a.value != b.value
        assert paillier.decrypt(keys, a) == paillier.decrypt(keys, b) == 42

    def test_plaintext_out_of_range(self, paillier, keys):
        rng = DeterministicRNG("enc3")
        with pytest.raises(CryptoError, match="outside"):
            paillier.encrypt(keys.public, keys.public.n, rng)
        with pytest.raises(CryptoError, match="outside"):
            paillier.encrypt(keys.public, -1, rng)

    def test_wrong_key_decrypt_rejected(self, paillier, keys):
        rng = DeterministicRNG("enc4")
        other = paillier.keygen(DeterministicRNG("other-key"))
        ct = paillier.encrypt(keys.public, 5, rng)
        with pytest.raises(CryptoError, match="different key"):
            paillier.decrypt(other, ct)

    def test_modulus_too_small_rejected(self):
        with pytest.raises(CryptoError):
            Paillier(bits=32)


class TestHomomorphism:
    def test_add(self, paillier, keys):
        rng = DeterministicRNG("hom")
        a = paillier.encrypt(keys.public, 20, rng)
        b = paillier.encrypt(keys.public, 22, rng)
        assert paillier.decrypt(keys, paillier.add(keys.public, a, b)) == 42

    def test_add_plain(self, paillier, keys):
        rng = DeterministicRNG("hom2")
        a = paillier.encrypt(keys.public, 40, rng)
        assert paillier.decrypt(keys, paillier.add_plain(keys.public, a, 2)) == 42

    def test_scalar_mul(self, paillier, keys):
        rng = DeterministicRNG("hom3")
        a = paillier.encrypt(keys.public, 21, rng)
        assert paillier.decrypt(keys, paillier.scalar_mul(keys.public, a, 2)) == 42

    def test_addition_wraps_mod_n(self, paillier, keys):
        rng = DeterministicRNG("hom4")
        n = keys.public.n
        a = paillier.encrypt(keys.public, n - 1, rng)
        b = paillier.encrypt(keys.public, 2, rng)
        assert paillier.decrypt(keys, paillier.add(keys.public, a, b)) == 1

    def test_mixed_keys_rejected(self, paillier, keys):
        rng = DeterministicRNG("hom5")
        other = paillier.keygen(DeterministicRNG("other-key-2"))
        a = paillier.encrypt(keys.public, 1, rng)
        b = paillier.encrypt(other.public, 1, rng)
        with pytest.raises(CryptoError, match="different keys"):
            paillier.add(keys.public, a, b)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10**12),
           st.integers(min_value=0, max_value=10**12))
    def test_additive_property(self, paillier, keys, x, y):
        rng = DeterministicRNG(f"prop-{x}-{y}")
        cx = paillier.encrypt(keys.public, x, rng)
        cy = paillier.encrypt(keys.public, y, rng)
        assert paillier.decrypt(keys, paillier.add(keys.public, cx, cy)) == (
            (x + y) % keys.public.n
        )


class TestDeliberateLimits:
    def test_ciphertext_multiplication_unsupported(self, paillier, keys):
        """The paper's maturity caveat, encoded as an API refusal."""
        rng = DeterministicRNG("lim")
        a = paillier.encrypt(keys.public, 2, rng)
        b = paillier.encrypt(keys.public, 3, rng)
        with pytest.raises(CryptoError, match="limited set of operations|only addition"):
            paillier.multiply(a, b)
