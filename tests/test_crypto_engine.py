"""Crypto engines: determinism, distinctness, encryption roundtrips."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.engine import FastCryptoEngine, RealCryptoEngine
from repro.crypto.hmac import data_mac
from repro.crypto.pad import apply_pad, make_pad


@pytest.fixture(params=["real", "fast"])
def engine(request):
    return RealCryptoEngine() if request.param == "real" else FastCryptoEngine()


class TestDeterminism:
    def test_mac_is_deterministic(self, engine):
        assert engine.mac(b"data") == engine.mac(b"data")

    def test_hash8_is_deterministic(self, engine):
        assert engine.hash8(b"node") == engine.hash8(b"node")

    def test_pad_is_deterministic(self, engine):
        assert engine.pad(64, 1, 2) == engine.pad(64, 1, 2)


class TestWidths:
    def test_mac_width(self, engine):
        assert len(engine.mac(b"x")) == 8

    def test_hash8_width(self, engine):
        assert len(engine.hash8(b"x" * 64)) == 8

    def test_pad_width_is_block(self, engine):
        assert len(engine.pad(0, 0, 0)) == 64


class TestDistinctness:
    def test_pad_varies_with_address(self, engine):
        assert engine.pad(0, 1, 1) != engine.pad(64, 1, 1)

    def test_pad_varies_with_major(self, engine):
        assert engine.pad(0, 1, 1) != engine.pad(0, 2, 1)

    def test_pad_varies_with_minor(self, engine):
        assert engine.pad(0, 1, 1) != engine.pad(0, 1, 2)

    def test_mac_varies_with_content(self, engine):
        assert engine.mac(b"a") != engine.mac(b"b")

    def test_real_mac_is_length_delimited(self):
        # ("ab","c") must not collide with ("a","bc").
        engine = RealCryptoEngine()
        assert engine.mac(b"ab", b"c") != engine.mac(b"a", b"bc")

    def test_keys_separate_engines(self):
        one = RealCryptoEngine(key=b"k1")
        two = RealCryptoEngine(key=b"k2")
        assert one.hash8(b"x") != two.hash8(b"x")

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            RealCryptoEngine(key=b"")


class TestEncryption:
    @given(data=st.binary(min_size=64, max_size=64))
    def test_roundtrip_real(self, data):
        engine = RealCryptoEngine()
        ciphertext = engine.encrypt(data, 128, 3, 4)
        assert ciphertext != data or data == engine.pad(128, 3, 4)
        assert engine.decrypt(ciphertext, 128, 3, 4) == data

    def test_wrong_counter_garbles(self):
        engine = RealCryptoEngine()
        ciphertext = engine.encrypt(b"\x00" * 64, 0, 1, 1)
        assert engine.decrypt(ciphertext, 0, 1, 2) != b"\x00" * 64

    def test_xor_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            apply_pad(b"ab", b"a")

    @given(draw=st.data(), length=st.integers(min_value=0, max_value=80))
    def test_xor_matches_bytewise_reference(self, draw, length):
        line = st.binary(min_size=length, max_size=length)
        data, pad = draw.draw(line), draw.draw(line)
        assert apply_pad(data, pad) == bytes(a ^ b for a, b in zip(data, pad))


class TestHelpers:
    def test_make_pad_matches_engine(self):
        engine = RealCryptoEngine()
        assert make_pad(engine, 1, 2, 3) == engine.pad(1, 2, 3)

    def test_data_mac_binds_address(self):
        engine = RealCryptoEngine()
        mac_a = data_mac(engine, b"c" * 64, 0, 1, 1)
        mac_b = data_mac(engine, b"c" * 64, 64, 1, 1)
        assert mac_a != mac_b  # splicing defense

    def test_data_mac_binds_counter(self):
        engine = RealCryptoEngine()
        mac_a = data_mac(engine, b"c" * 64, 0, 1, 1)
        mac_b = data_mac(engine, b"c" * 64, 0, 1, 2)
        assert mac_a != mac_b  # replay defense
