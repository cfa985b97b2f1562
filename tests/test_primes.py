"""Tests for the NTT-friendly prime search (paper S3.1 machinery)."""

import pytest

from repro.params import primes as primes_mod
from repro.params.primes import (
    MAX_DS_PRODUCT_DEVIATION,
    MAX_SS_DEVIATION,
    PrimeScarcityError,
    find_aux_primes,
    find_ds_pairs,
    find_ntt_primes,
    find_ss_primes,
    min_ds_scale_bits,
    relative_deviation,
)
from repro.rns.modmath import is_probable_prime

TWO_N_FULL = 1 << 17  # the paper's N = 2^16
TWO_N_SMALL = 1 << 12


class TestFindNttPrimes:
    def test_congruence_and_primality(self):
        primes = find_ntt_primes(TWO_N_SMALL, 2**28, 10, max_value=2**31)
        assert len(primes) == 10
        for p in primes:
            assert p % TWO_N_SMALL == 1
            assert is_probable_prime(p)

    def test_sorted_and_distinct(self):
        primes = find_ntt_primes(TWO_N_SMALL, 2**28, 8, max_value=2**31)
        assert primes == sorted(set(primes))

    def test_respects_exclusions(self):
        first = find_ntt_primes(TWO_N_SMALL, 2**28, 4, max_value=2**31)
        second = find_ntt_primes(
            TWO_N_SMALL, 2**28, 4, max_value=2**31, exclude=set(first)
        )
        assert not set(first) & set(second)

    def test_deviation_bound(self):
        primes = find_ntt_primes(
            TWO_N_SMALL, 2**28, 5, max_value=2**31, max_deviation=0.01
        )
        for p in primes:
            assert relative_deviation(p, 2**28) <= 0.01

    def test_scarcity_raises(self):
        with pytest.raises(PrimeScarcityError):
            find_ntt_primes(TWO_N_FULL, 2**18, 5, max_value=2**19)


class TestSsPrimes:
    def test_near_scale(self):
        primes = find_ss_primes(TWO_N_SMALL, 28, 6, word_bits=31)
        for p in primes:
            assert relative_deviation(p, 2**28) <= MAX_SS_DEVIATION

    def test_scale_must_fit_word(self):
        with pytest.raises(PrimeScarcityError):
            find_ss_primes(TWO_N_FULL, 35, 1, word_bits=28)


class TestDsPairs:
    def test_products_near_scale(self):
        pairs = find_ds_pairs(TWO_N_FULL, 62, 11, word_bits=36)
        assert len(pairs) == 11
        seen = set()
        for a, b in pairs:
            assert a % TWO_N_FULL == 1 and b % TWO_N_FULL == 1
            assert relative_deviation(a * b, 2**62) <= MAX_DS_PRODUCT_DEVIATION
            assert a < 2**36 and b < 2**36
            assert a not in seen and b not in seen
            seen.update((a, b))

    def test_paper_min_scale_is_47_bits(self):
        """Observation (3): Set_28/Set_32 cannot scale below 2^47."""
        assert min_ds_scale_bits(TWO_N_FULL, 8, 32) == 47
        assert min_ds_scale_bits(TWO_N_FULL, 8, 28) == 47

    def test_scale_35_unreachable_on_short_words(self):
        with pytest.raises(PrimeScarcityError):
            find_ds_pairs(TWO_N_FULL, 35, 8, word_bits=28)

    def test_small_ring_has_plenty(self):
        pairs = find_ds_pairs(TWO_N_SMALL, 40, 12, word_bits=31)
        assert len(pairs) == 12

    def test_serve_62_bit_preset_tests_few_candidates(self, monkeypatch):
        """The pair search tests only the small-side primes it consumes.

        Enumerating every NTT candidate below sqrt(Delta) up front cost
        4,194,408 primality tests (tens of seconds) for the 62-bit serve
        preset; the lazy walk needs ~10^2 and picks the same primes.
        """
        from repro.params.presets import build_native_ckks_params
        from repro.serve.offline import SERVE_DEGREE, SERVE_DEPTH

        calls = 0

        def counting(n):
            nonlocal calls
            calls += 1
            return is_probable_prime(n)

        monkeypatch.setattr(primes_mod, "is_probable_prime", counting)
        params = build_native_ckks_params(
            62, degree=SERVE_DEGREE, depth=SERVE_DEPTH
        )
        assert calls < 10_000
        assert list(params.q_primes) == [
            17179791361,
            17179967489,
            2305843009213554689,
            2305843009213616129,
            2305843009213800449,
            2305843009213812737,
        ]
        assert list(params.aux_primes) == [
            2305843009213861889,
            2305843009213870081,
            2305843009213919233,
        ]


class TestAuxPrimes:
    def test_above_min_value(self):
        aux = find_aux_primes(TWO_N_SMALL, 4, min_value=2**28, word_bits=31)
        assert len(aux) == 4
        assert all(p > 2**28 for p in aux)
        assert aux == sorted(aux)

    def test_word_cap_respected(self):
        with pytest.raises(PrimeScarcityError):
            find_aux_primes(TWO_N_SMALL, 4, min_value=2**31 - 2, word_bits=31)
