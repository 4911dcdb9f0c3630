"""Tests for line-level counter-mode encryption."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.address import CACHE_LINE_SIZE
from repro.common.errors import SecurityError
from repro.crypto.otp import LineCipher, xor_bytes

LINE = bytes(range(64))


def test_xor_bytes_roundtrip():
    pad = bytes(reversed(range(64)))
    assert xor_bytes(xor_bytes(LINE, pad), pad) == LINE


def test_xor_bytes_length_mismatch():
    with pytest.raises(ValueError):
        xor_bytes(b"ab", b"abc")


@pytest.fixture(params=["prf"])
def cipher(request):
    return LineCipher(key=b"test-key-0123456")


def test_encrypt_decrypt_roundtrip(cipher):
    ct = cipher.encrypt(10, 5, LINE)
    assert ct != LINE
    assert cipher.decrypt(10, 5, ct) == LINE


def test_wrong_counter_fails_to_decrypt(cipher):
    """The crash-consistency hazard of Figure 4: stale counter => garbage."""
    ct = cipher.encrypt(10, 5, LINE)
    assert cipher.decrypt(10, 4, ct) != LINE


def test_wrong_address_fails_to_decrypt(cipher):
    ct = cipher.encrypt(10, 5, LINE)
    assert cipher.decrypt(11, 5, ct) != LINE


def test_same_plaintext_different_counters_differ(cipher):
    """Consecutive writes of identical content must produce distinct
    ciphertext (defence against the single-line dictionary attack)."""
    assert cipher.encrypt(1, 1, LINE) != cipher.encrypt(1, 2, LINE)


def test_same_plaintext_different_lines_differ(cipher):
    """Identical content at two addresses must look different (defence
    against the cross-line dictionary attack of Figure 1)."""
    assert cipher.encrypt(1, 1, LINE) != cipher.encrypt(2, 1, LINE)


def test_wrong_line_size_rejected(cipher):
    with pytest.raises(ValueError):
        cipher.encrypt(0, 0, b"short")
    with pytest.raises(ValueError):
        cipher.decrypt(0, 0, b"x" * 65)


def test_pad_reuse_detection():
    cipher = LineCipher(track_pad_reuse=True)
    cipher.encrypt(7, 3, LINE)
    with pytest.raises(SecurityError):
        cipher.encrypt(7, 3, LINE)
    # different counter is fine
    cipher.encrypt(7, 4, LINE)


@settings(max_examples=40, deadline=None)
@given(
    st.binary(min_size=CACHE_LINE_SIZE, max_size=CACHE_LINE_SIZE),
    st.integers(min_value=0, max_value=1 << 30),
    st.integers(min_value=0, max_value=1 << 30),
)
def test_property_roundtrip(data, addr, counter):
    cipher = LineCipher(key=b"prop-key")
    assert cipher.decrypt(addr, counter, cipher.encrypt(addr, counter, data)) == data
