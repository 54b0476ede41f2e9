"""Primitive-level tests with independently computed expected values.

The oracle recomputations here use raw pow()/extended Euclid inline so they
do not share code with the library under test.
"""

import ctypes
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import TOY1, TOY2
from manetsec import crypto
from manetsec.crypto import (
    AggregateSignature,
    DhParams,
    SessionKey,
)


def _egcd(a, b):
    if b == 0:
        return a, 1, 0
    g, x, y = _egcd(b, a % b)
    return g, y, x - (a // b) * y


def test_toy_private_exponents_match_extended_euclid():
    # oracle: d = e^-1 mod phi with phi from the known factorizations
    for key, phi in ((TOY1, 10 * 16), (TOY2, 10 * 12)):
        g, x, _ = _egcd(key.e, phi)
        assert g == 1
        assert x % phi == key.d
        assert (key.e * key.d) % phi == 1


def test_first_signer_golden():
    sig = crypto.rsa_sign_first(88, TOY1)
    assert sig.value == 11
    assert sig.signer_count == 1
    assert sig.overflow_bits == ()
    # oracle: the verify relation, straight pow
    assert pow(sig.value, TOY1.e, TOY1.n) == 88 % TOY1.n


def test_aggregate_step_golden():
    first = crypto.rsa_sign_first(88, TOY1)
    agg = crypto.sas_aggregate_step(first, 100, TOY2)
    assert agg.value == 45
    assert agg.overflow_bits == (0,)
    assert agg.signer_count == 2
    # oracle: 11 < 143 so no reduction, then (11 + 100)^103 mod 143
    assert pow(11 + 100, TOY2.d, TOY2.n) == 45


def test_aggregate_step_reduces_oversized_predecessor():
    prev = AggregateSignature(value=150, overflow_bits=())
    agg = crypto.sas_aggregate_step(prev, 100, TOY2)
    # oracle: 150 >= 143 so the step works on 150 - 143 = 7 and records the bit
    assert agg.overflow_bits == (1,)
    assert agg.value == pow((7 + 100) % TOY2.n, TOY2.d, TOY2.n)


def test_unwind_verifies_golden_chain():
    first = crypto.rsa_sign_first(88, TOY1)
    agg = crypto.sas_aggregate_step(first, 100, TOY2)
    chain = [(88, TOY1.public), (100, TOY2.public)]
    assert crypto.sas_unwind_verify(agg, chain)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda v, b: (v + 1, b),                    # signature value
        lambda v, b: (v, (1 - b[0],)),              # overflow bit
    ],
)
def test_unwind_rejects_mutated_signature_fields(mutate):
    first = crypto.rsa_sign_first(88, TOY1)
    agg = crypto.sas_aggregate_step(first, 100, TOY2)
    value, bits = mutate(agg.value, agg.overflow_bits)
    forged = AggregateSignature(value=value % TOY2.n, overflow_bits=bits)
    chain = [(88, TOY1.public), (100, TOY2.public)]
    assert not crypto.sas_unwind_verify(forged, chain)


def test_unwind_rejects_mutated_hashes_and_swapped_signers():
    first = crypto.rsa_sign_first(88, TOY1)
    agg = crypto.sas_aggregate_step(first, 100, TOY2)
    assert not crypto.sas_unwind_verify(agg, [(89, TOY1.public), (100, TOY2.public)])
    assert not crypto.sas_unwind_verify(agg, [(88, TOY1.public), (101, TOY2.public)])
    assert not crypto.sas_unwind_verify(agg, [(100, TOY2.public), (88, TOY1.public)])


def test_unwind_length_mismatch_is_malformed_not_false():
    first = crypto.rsa_sign_first(88, TOY1)
    agg = crypto.sas_aggregate_step(first, 100, TOY2)
    with pytest.raises(ValueError):
        crypto.sas_unwind_verify(agg, [(88, TOY1.public)])
    bad_bits = AggregateSignature(value=agg.value, overflow_bits=(0, 0))
    with pytest.raises(ValueError):
        crypto.sas_unwind_verify(bad_bits, [(88, TOY1.public), (100, TOY2.public)])


def test_overflow_bit_is_load_bearing():
    # oracle: 2^23 mod 187 = 162 >= 143, so the second step must reduce
    sigma1 = pow(2, TOY1.d, TOY1.n)
    assert sigma1 == 162
    first = crypto.rsa_sign_first(2, TOY1)
    assert first.value == sigma1
    agg = crypto.sas_aggregate_step(first, 100, TOY2)
    assert agg.overflow_bits == (1,)
    chain = [(2, TOY1.public), (100, TOY2.public)]
    assert crypto.sas_unwind_verify(agg, chain)
    stripped = AggregateSignature(value=agg.value, overflow_bits=(0,))
    assert not crypto.sas_unwind_verify(stripped, chain)


def test_sign_reduces_hash_before_exponentiation():
    big = 88 + 187 * 5
    assert crypto.rsa_sign_first(big, TOY1).value == 11


# --- key generation -------------------------------------------------------

def test_node_keys_are_deterministic_per_seed():
    a = crypto.NodeKeys(7, key_bits=128)
    b = crypto.NodeKeys(7, key_bits=128)
    c = crypto.NodeKeys(8, key_bits=128)
    assert (a.signing, a.encryption) == (b.signing, b.encryption)
    assert (a.signing, a.encryption) != (c.signing, c.encryption)


def test_node_keys_modulus_width_and_distinctness():
    keys = crypto.generate_node_keys(3, key_bits=128)
    sign, enc = keys.signing, keys.encryption
    assert sign.n.bit_length() == 128
    assert enc.n.bit_length() == 128
    assert sign.n != enc.n
    for key in (sign, enc):
        for m in (0, 1, 54321, key.n - 1):
            assert pow(pow(m, key.e, key.n), key.d, key.n) == m


@pytest.mark.parametrize("bits", [64, 128, 256, 512])
def test_crt_private_operations_equal_plain_pow(bits):
    keys = crypto.generate_node_keys(crypto.derive_seed("crt", bits),
                                     key_bits=bits)
    rng = random.Random(bits)
    for key in (keys.signing, keys.encryption):
        assert key.p * key.q == key.n
        assert key.p != key.q
        assert (key.q * key.qinv) % key.p == 1
        samples = [0, 1, key.p, key.q, key.n - 1]
        samples += [rng.randrange(key.n) for _ in range(20)]
        for x in samples:
            # oracle: the plain exponentiation with the full private exponent
            want = pow(x, key.d, key.n)
            assert crypto._private_pow(x, key) == want
            assert crypto.rsa_sign_first(x, key).value == want
            assert crypto.rsa_decrypt(x, key) == want
            prev = AggregateSignature(value=0, overflow_bits=())
            assert crypto.sas_aggregate_step(prev, x, key).value == want


def test_odd_key_width_rejected():
    # twice: a rejected width must fail on every call, never be memoized
    for _ in range(2):
        with pytest.raises(ValueError):
            crypto.generate_node_keys(1, key_bits=63)
        with pytest.raises(ValueError):
            crypto.generate_node_keys(1, key_bits=62)


def test_node_keys_are_memoized_by_seed_and_width():
    keys = crypto.generate_node_keys(41, key_bits=128)
    # positional and keyword calls share one entry keyed by (seed, key_bits)
    assert crypto.generate_node_keys(41, 128) is keys
    # the memo returns exactly what a fresh generation gives
    fresh = crypto._node_keys.__wrapped__(41, 128)
    assert fresh is not keys
    assert (fresh.signing, fresh.encryption) == (keys.signing, keys.encryption)
    wider = crypto.generate_node_keys(41, key_bits=192)
    assert (wider.signing, wider.encryption) != (keys.signing, keys.encryption)
    assert wider.signing.n.bit_length() == 192
    assert crypto._node_keys.cache_info().maxsize is not None


def _eager_node_keys(seed, key_bits):
    """Both pairs at once, in the order NodeKeys draws them."""
    rng = random.Random(seed)
    signing = crypto.generate_keypair(key_bits, rng)
    while True:
        encryption = crypto.generate_keypair(key_bits, rng)
        if encryption.n != signing.n:
            return signing, encryption


@pytest.mark.parametrize("bits", [128, 256, 512])
def test_lazy_encryption_pair_equals_eager_generation(bits, monkeypatch):
    made = []
    keypair = crypto.generate_keypair

    def counted(*args):
        made.append(args[0])
        return keypair(*args)

    for i in range(20):
        seed = crypto.derive_seed("lazy", bits, i)
        # oracle: an eager generation with the primality test as it was
        # before the gcd sieve
        with monkeypatch.context() as m:
            m.setattr(crypto, "is_probable_prime", reference_is_probable_prime)
            want_signing, want_encryption = _eager_node_keys(seed, bits)
        with monkeypatch.context() as m:
            m.setattr(crypto, "generate_keypair", counted)
            made.clear()
            keys = crypto.NodeKeys(seed, bits)
            assert made == [bits]          # the signing pair only
            assert keys.signing == want_signing
            assert keys.encryption == want_encryption
            assert keys.encryption is keys.encryption
            assert len(made) >= 2
            first_read = len(made)
            keys.encryption
            assert len(made) == first_read   # made once, then kept


@pytest.mark.parametrize("seed", [0, 1])
def test_1024_bit_keys_equal_reference_generation(seed, monkeypatch):
    # the widest key the workloads plan for, checked byte for byte against
    # the primality test as it was before the gcd sieve
    seed = crypto.derive_seed("lazy", 1024, seed)
    with monkeypatch.context() as m:
        m.setattr(crypto, "is_probable_prime", reference_is_probable_prime)
        want = _eager_node_keys(seed, 1024)
    keys = crypto.NodeKeys(seed, 1024)
    assert (keys.signing, keys.encryption) == want
    assert keys.signing.n.bit_length() == 1024


# --- modular exponentiation -------------------------------------------------

# moduli on both sides of powmod's width cut, up to the widest key planned
POWMOD_WIDTHS = [8, 64, crypto.POWMOD_MIN_BITS - 1, crypto.POWMOD_MIN_BITS,
                 crypto.POWMOD_MIN_BITS + 1, 128, 256, 512, 1024]


@pytest.mark.parametrize("bits", POWMOD_WIDTHS)
@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.data())
def test_powmod_equals_pow(bits, data):
    m = data.draw(st.integers(2 ** (bits - 1), 2 ** bits - 1)) | 1
    # bases up to twice the modulus' width, as a CRT half passes x mod N to
    # a prime of half N's width
    x = data.draw(st.integers(0, 2 ** (2 * bits) - 1))
    e = data.draw(st.integers(0, 2 ** bits - 1))
    assert crypto.powmod(x, e, m) == pow(x, e, m)


@pytest.mark.parametrize("bits", POWMOD_WIDTHS)
def test_powmod_equals_pow_on_edge_values(bits):
    rng = random.Random(bits)
    m = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
    wide = rng.getrandbits(2 * bits) | (1 << (2 * bits - 1))
    # from the cut up, the first call sets m up and the rest find it prepared
    for x in (0, 1, m - 1, m, m + 1, wide):
        for e in (0, 1, 2, crypto.RSA_PUBLIC_EXPONENT):
            assert crypto.powmod(x, e, m) == pow(x, e, m), (x, e)


def _hashlib_resolves_bn_symbols():
    try:
        import _hashlib
        lib = ctypes.CDLL(_hashlib.__file__)
        for name in ("BN_new", "BN_CTX_new", "BN_bin2bn", "BN_bn2binpad",
                     "BN_MONT_CTX_new", "BN_MONT_CTX_set", "BN_mod_exp_mont"):
            getattr(lib, name)
    except (ImportError, AttributeError, OSError):
        return False
    return True


def test_powmod_runs_on_openssl_from_the_width_cut(monkeypatch):
    if not _hashlib_resolves_bn_symbols():
        pytest.skip("_hashlib does not resolve OpenSSL's BN_* symbols")
    kernel = crypto._bn_mod_exp
    assert kernel is not None
    calls = []

    def counted(x, e, m):
        calls.append(m.bit_length())
        return kernel(x, e, m)

    monkeypatch.setattr(crypto, "_bn_mod_exp", counted)
    for bits in POWMOD_WIDTHS:
        m = (1 << (bits - 1)) | 1
        assert crypto.powmod(3, 10 ** 6, m) == pow(3, 10 ** 6, m)
    assert calls == [bits for bits in POWMOD_WIDTHS
                     if bits >= crypto.POWMOD_MIN_BITS]
    # a wide even modulus runs on pow and never reaches the kernel
    calls.clear()
    m = 1 << 255 | 0x2f5b3e9d6c1a8f46
    assert crypto.powmod(3, 10 ** 6, m) == pow(3, 10 ** 6, m)
    assert calls == []
    # a failed OpenSSL step raises; a zero modulus has no Montgomery context
    with pytest.raises(ArithmeticError, match="BN_MONT_CTX_set"):
        kernel(3, 5, 0)
    # powmod never passes m = 1 to the kernel, which still gets it right
    for x, e in ((0, 0), (5, 0), (0, 3), (7, 65537)):
        assert kernel(x, e, 1) == pow(x, e, 1) == 0


def _odd_moduli(bits, count, seed):
    rng = random.Random(seed)
    return [rng.getrandbits(bits) | (1 << (bits - 1)) | 1
            for _ in range(count)]


def test_powmod_on_one_prepared_modulus_many_times():
    rng = random.Random(3)
    for bits in (crypto.POWMOD_MIN_BITS, 256, 512):
        m = _odd_moduli(bits, 1, bits)[0]
        for _ in range(50):
            x = rng.getrandbits(2 * bits)
            e = rng.choice([crypto.RSA_PUBLIC_EXPONENT, rng.getrandbits(bits)])
            assert crypto.powmod(x, e, m) == pow(x, e, m), (bits, x, e)


def test_powmod_reuses_pool_slots_for_more_moduli_than_it_holds():
    rng = random.Random(4)
    # a modulus set up earlier is evicted and set up again on its return,
    # while other moduli hold every slot in between; the widths cycle with
    # a period that does not divide the pool's size, so each slot passes,
    # in FIFO order, to a modulus narrower or wider than the one before
    widths = (80, 1024, 128, 512, 96, 768, 256)
    moduli = [_odd_moduli(widths[i % len(widths)], 1, 5 + i)[0]
              for i in range(crypto.MONT_POOL_SIZE + 37)]
    for rounds in range(2):
        for i, m in enumerate(moduli):
            # interleave: an early modulus returns between later ones
            for n in (m, moduli[i // 2]):
                x = rng.getrandbits(n.bit_length() + 32)
                e = rng.getrandbits(128)
                assert crypto.powmod(x, e, n) == pow(x, e, n), (rounds, i)


def test_openssl_kernel_reloads_only_what_changed_and_equals_pow():
    kernel = crypto._bn_mod_exp
    if kernel is None:
        pytest.skip("_hashlib does not resolve OpenSSL's BN_* symbols")
    m1, m2 = _odd_moduli(256, 2, 21)
    x = random.Random(22).getrandbits(300)
    calls = [
        (x, 65537, m1),
        (x, 3, m1),                  # the same base with a new exponent
        (x + 1, 3, m1),              # a new base, the slot's exponent held
        (x + 1, 3, m2),              # the base held, a new modulus
        (x, 3, m2),                  # a new base, m2's exponent held
        (x, 5, m1),                  # m1 again with a new exponent
        (int(str(x)), 5, m1),        # the base's value in another int
        (x, 0, m1), (0, 5, m1), (x, 5, m1),
    ]
    assert calls[6][0] is not x
    for i, (b, e, m) in enumerate(calls):
        assert kernel(b, e, m) == pow(b, e, m), i
    # every other slot is taken, so m1 returns to a slot whose register
    # held another modulus' exponent, and must not keep m1's old one
    for m in _odd_moduli(128, crypto.MONT_POOL_SIZE + 1, 23):
        assert kernel(x, 7, m) == pow(x, 7, m)
    for e in (9, 5, 7):
        assert kernel(x, e, m1) == pow(x, e, m1), e
    assert kernel(x, 5, m2) == pow(x, 5, m2)


# --- primality --------------------------------------------------------------

# A copy of is_probable_prime, generate_prime and generate_dh_group as they
# were before the gcd sieve: trial division by the primes up to 251, then
# the same 12 fixed Miller-Rabin bases and, above 78 bits, 8 drawn ones.
# The library must give the same verdicts and outputs and draw the same
# values from the stream.
_REF_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                     53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107,
                     109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167,
                     173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
                     233, 239, 241, 251]
_REF_MR_BASES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def _reference_miller_rabin(n, base):
    if base % n == 0:
        return True
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(base, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = (x * x) % n
        if x == n - 1:
            return True
    return False


def reference_is_probable_prime(n, rng):
    if n < 2:
        return False
    for p in _REF_SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    for base in _REF_MR_BASES:
        if not _reference_miller_rabin(n, base):
            return False
    if n.bit_length() > 78:
        for _ in range(8):
            if not _reference_miller_rabin(n, rng.randrange(2, n - 1)):
                return False
    return True


def reference_generate_prime(bits, rng):
    while True:
        cand = rng.getrandbits(bits)
        cand |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        if reference_is_probable_prime(cand, rng):
            return cand


def reference_generate_dh_group(bits, rng):
    while True:
        q = rng.getrandbits(bits - 1)
        q |= (1 << (bits - 2)) | 1
        p = 2 * q + 1
        if any(p % s == 0 for s in _REF_SMALL_PRIMES if p > s):
            continue
        if (not reference_is_probable_prime(q, rng)
                or not reference_is_probable_prime(p, rng)):
            continue
        for g in (2, 3, 5, 7, 11, 13):
            if pow(g, 2, p) != 1 and pow(g, q, p) != 1:
                return p, g


# The primes up to 2048, by trial division: the pair test's sieve bound.
_REF_SIEVE = [n for n in range(2, 2049)
              if all(n % d for d in range(2, math.isqrt(n) + 1))]


def _reference_pair_passes_base_2(q):
    """Whether q and 2q + 1, both past 2048, have no prime factor up to
    2048 and pass base 2: past this point the pair test runs q's other
    rounds, which draw above 78 bits."""
    p = 2 * q + 1
    return (all(q % s and p % s for s in _REF_SIEVE)
            and _reference_miller_rabin(q, 2)
            and _reference_miller_rabin(p, 2))


def reference_generate_wide_dh_group(bits, rng):
    """generate_dh_group above 78 bits, in the pair test's order: q and
    p = 2q + 1 free of small primes and passing base 2, then 8 bases on q
    drawn from the stream; a prime q and p's base-2 round prove p prime
    (Pocklington), so p runs no other round."""
    while True:
        q = rng.getrandbits(bits - 1)
        q |= (1 << (bits - 2)) | 1
        if not _reference_pair_passes_base_2(q) or not all(
                _reference_miller_rabin(q, rng.randrange(2, q - 1))
                for _ in range(8)):
            continue
        p = 2 * q + 1
        for g in (2, 3, 5, 7, 11, 13):
            if pow(g, 2, p) != 1 and pow(g, q, p) != 1:
                return p, g


def _same_verdict_and_draws(n, seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    assert crypto.is_probable_prime(n, ours) == \
        reference_is_probable_prime(n, theirs), n
    assert ours.getstate() == theirs.getstate(), n


def test_primality_matches_reference_below_2_to_17():
    ours, theirs = random.Random(17), random.Random(17)
    for n in range(-3, 1 << 17):
        assert crypto.is_probable_prime(n, ours) == \
            reference_is_probable_prime(n, theirs), n
    # no width here reaches the drawn bases
    assert ours.getstate() == theirs.getstate() == \
        random.Random(17).getstate()


@pytest.mark.parametrize("bits", [64, 128, 256, 512])
def test_primality_matches_reference_on_seeded_candidates(bits):
    rng = random.Random(bits)
    cands = [rng.getrandbits(bits) | (1 << (bits - 1)) | 1
             for _ in range(300)]
    primes = [reference_generate_prime(bits // 2, rng) for _ in range(6)]
    cands += primes
    # composites with no factor below the sieve bound
    cands += [a * b for a, b in zip(primes, primes[1:])]
    cands += [p * 2039 for p in primes]    # a factor just below the bound
    for i, n in enumerate(cands):
        _same_verdict_and_draws(n, bits * 1000 + i)


def test_primality_matches_reference_by_where_the_small_factor_lies():
    rng = random.Random(11)
    primes = [reference_generate_prime(bits, rng) for bits in (64, 128, 256)]
    word = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    cases = []
    for p in primes:
        # the one-word screen finds these
        cases += [f * p for f in word] + [3 * 47 * p, 45 * p, 47 ** 3 * p]
        # only the full gcd finds these: the factors lie in 53..2039
        cases += [f * p for f in (53, 59, 251, 257, 1021, 2027, 2039)]
        cases += [53 * 2039 * p]
        # even numbers pass the first stage, whose product holds no 2
        cases += [2 * p, 4 * p, 2 * 3 * p, 2 * 2053 * p, 1 << p.bit_length()]
    cases += [crypto.SIEVE_BOUND + 1, 2050, 2052, 2 * 2053, 2039 ** 2]
    # numbers whose smallest factor is the first prime above either screen
    cases += [53 * 53, 2053 * 2063, 2053 * primes[0]]
    for i, n in enumerate(cases):
        _same_verdict_and_draws(n, i)


@pytest.mark.parametrize("bits", [8, 9, 10, 11])
def test_small_dh_groups_match_reference(bits):
    # up to 11 bits p is at most the sieve bound, so a prime p can share
    # itself with the screen's products and pass only as a sieve prime
    for seed in range(200):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert crypto._search_dh_group(bits, ours) == \
            reference_generate_dh_group(bits, theirs), seed
        assert ours.getstate() == theirs.getstate(), seed


@pytest.mark.parametrize("n", [561, 2047, 3215031751,
                               318665857834031151167461,
                               3317044064679887385961981])
def test_primality_matches_reference_on_pseudoprimes(n):
    for seed in range(5):
        _same_verdict_and_draws(n, seed)


def test_79_bit_strong_pseudoprime_to_the_fixed_bases_is_rejected():
    # 399165290221 * 798330580441, a strong pseudoprime to every prime base
    # up to 37 (Sorenson and Webster, 2015): only a drawn base exposes it
    n = 318665857834031151167461
    assert n == 399165290221 * 798330580441 and n.bit_length() == 79
    for seed in range(5):
        assert crypto.is_probable_prime(n, random.Random(seed)) is False


def test_primality_draws_eight_bases_only_for_accepted_wide_primes():
    wide = reference_generate_prime(128, random.Random(5))
    narrow = reference_generate_prime(64, random.Random(6))
    rng = random.Random(9)
    assert crypto.is_probable_prime(wide, rng)
    expected = random.Random(9)
    for _ in range(8):
        expected.randrange(2, wide - 1)
    assert rng.getstate() == expected.getstate()
    # candidates rejected by base 2, and accepted ones of 78 bits or fewer,
    # draw none
    rejected = [wide + 1, wide * 2039, wide * narrow, narrow * narrow,
                3215031751 * wide]
    for n in rejected + [narrow]:
        rng = random.Random(9)
        crypto.is_probable_prime(n, rng)
        assert rng.getstate() == random.Random(9).getstate(), n
    assert not any(crypto.is_probable_prime(n, random.Random(9))
                   for n in rejected)


def test_base_2_strong_pseudoprime_above_78_bits_is_rejected_by_draws():
    # 2^101 - 1 = 7432339208719 * 341117531003194129 has no factor up to
    # the sieve bound, and 2 has order 101 modulo it, so it is a strong
    # pseudoprime to base 2 but not to base 3
    n = (1 << 101) - 1
    assert n == 7432339208719 * 341117531003194129
    assert math.gcd(n, crypto._SIEVE_PRODUCT) == 1
    assert _reference_miller_rabin(n, 2)
    assert not _reference_miller_rabin(n, 3)
    for seed in range(5):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert crypto.is_probable_prime(n, ours) is False
        assert reference_is_probable_prime(n, theirs) is False
        # the one place the stream moves: base 3 stopped the reference
        # before any draw, while here only a drawn base can reject n
        assert theirs.getstate() == random.Random(seed).getstate()
        assert ours.getstate() != theirs.getstate()


def test_primality_round_counts(monkeypatch):
    rounds = []
    miller_rabin = crypto._miller_rabin

    def counted(n, base):
        rounds.append(base)
        return miller_rabin(n, base)

    monkeypatch.setattr(crypto, "_miller_rabin", counted)

    def cost(n):
        rounds.clear()
        verdict = crypto.is_probable_prime(n, random.Random(9))
        return verdict, len(rounds)

    rng = random.Random(4)
    p78, p79, p128 = (reference_generate_prime(bits, rng)
                      for bits in (78, 79, 128))
    assert (p78.bit_length(), p79.bit_length()) == (78, 79)
    # up to 78 bits the 12 fixed bases decide; above, base 2 and 8 draws
    assert cost(p78) == (True, 12)
    assert cost(p79) == (True, 9)
    assert cost(p128) == (True, 9)
    # a composite past the sieve that fails base 2 costs one round
    for n in (p79 * p128, p128 * 2053 * 2063):
        assert math.gcd(n, crypto._SIEVE_PRODUCT) == 1
        assert cost(n) == (False, 1)
        assert rounds == [2]


# up to 78 bits, the fixed-base bound, no test of the group search draws,
# so it finds the groups of the old order; from 79 bits up q draws 8 bases
# once both base-2 rounds pass
@pytest.mark.parametrize("bits,seeds", [(8, 60), (16, 60), (64, 30),
                                        (72, 6), (78, 6), (79, 6), (80, 6),
                                        (96, 4), (128, 8), (256, 2)])
def test_prime_and_group_generation_match_reference(bits, seeds):
    group = (reference_generate_dh_group if bits <= crypto.MR_FIXED_BITS
             else reference_generate_wide_dh_group)
    for seed in range(seeds):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert crypto.generate_prime(bits, ours) == \
            reference_generate_prime(bits, theirs)
        assert ours.getstate() == theirs.getstate()
        assert crypto.generate_dh_group(bits, ours) == group(bits, theirs)
        assert ours.getstate() == theirs.getstate()


def test_a_group_search_under_the_bound_runs_both_base_2_rounds_first(
        monkeypatch):
    # no base is drawn up to crypto.MR_FIXED_BITS, so the search screens
    # q and p and runs both base-2 rounds before any other base, and the
    # other bases on q only; testing q in full before p made 7767 rounds
    # for these 100 groups, and running every fixed base on both 3655
    assert crypto.MR_FIXED_BITS == 78
    rounds = []
    miller_rabin = crypto._miller_rabin

    def counted(n, base):
        rounds.append((n, base))
        return miller_rabin(n, base)

    monkeypatch.setattr(crypto, "_miller_rabin", counted)
    ours, theirs = random.Random(3), random.Random(3)
    for _ in range(100):
        assert crypto._search_dh_group(64, ours) == \
            reference_generate_dh_group(64, theirs)
    assert ours.getstate() == theirs.getstate()
    assert len(rounds) == 2533
    # a q (63 bits) meets a base past 2 only after both numbers of its pair
    # have run base 2, and a p (64 bits) never does
    ran_base_2 = set()
    for n, base in rounds:
        if base == 2:
            ran_base_2.add(n)
        else:
            assert n.bit_length() == 63
            assert {n, 2 * n + 1} <= ran_base_2


def test_the_pair_table_marks_a_factor_from_3_to_13_in_r_or_2r_plus_1():
    assert len(crypto._PAIR_MARKS) == crypto._PAIR_MODULUS == 15015
    for r, mark in enumerate(crypto._PAIR_MARKS):
        assert mark == any(r % ell == 0 or (2 * r + 1) % ell == 0
                           for ell in (3, 5, 7, 11, 13)), r


def test_the_pair_test_equals_two_prime_tests_on_every_odd_q_from_2049():
    # and on every q up to the sieve bound, which the sieve answers
    rng, accepted = random.Random(0), 0
    for q in [*range(crypto.SIEVE_BOUND + 1),
              *range(crypto.SIEVE_BOUND + 1, crypto.SIEVE_BOUND + 1 + 300000,
                     2)]:
        verdict = crypto._is_safe_pair(q, rng)
        assert verdict == (crypto.is_probable_prime(q, rng)
                           and crypto.is_probable_prime(2 * q + 1, rng)), q
        accepted += verdict
    # no width here reaches the drawn bases
    assert rng.getstate() == random.Random(0).getstate()
    assert accepted > 1000


def test_the_pair_test_equals_two_prime_tests_on_screened_63_bit_q():
    # q = k * 30030 + r for an odd r the table leaves, kept when q * (2q + 1)
    # passes the small-prime screen, so each q reaches a Miller-Rabin round
    rng, draws = random.Random(63), random.Random(0)
    residues = [r for r in range(1, 30030, 2)
                if not crypto._PAIR_MARKS[r % 15015]]
    low, high = (1 << 62) // 30030 + 1, (1 << 63) // 30030 - 1
    tested = accepted = 0
    while tested < 100000:
        q = rng.randrange(low, high) * 30030 + rng.choice(residues)
        if crypto._has_factor_in(q * (2 * q + 1), crypto._SIEVE_PRODUCT):
            continue
        verdict = crypto._is_safe_pair(q, draws)
        assert verdict == (crypto.is_probable_prime(q, draws)
                           and crypto.is_probable_prime(2 * q + 1, draws)), q
        assert q.bit_length() == 63
        tested += 1
        accepted += verdict
    assert draws.getstate() == random.Random(0).getstate()
    assert accepted > 10


@pytest.mark.parametrize("bits", [8, 11, 12, 13, 64, 78, 79, 96, 128])
def test_safe_prime_check_matches_reference_verdicts_and_draws(bits):
    # safe primes on both sides of the sieve and of the fixed-base bound,
    # each with composites of the same width beside it; an n past 78 bits
    # draws 8 bases for q once the screens and base 2 on q and on n pass,
    # and any other n draws none
    for seed in range(4):
        p, _ = reference_generate_dh_group(bits, random.Random(seed))
        for n in (p, p + 2, p + 4, p - 2, 3 * p, 2 * p + 1):
            q = n // 2
            ours, theirs = random.Random(seed), random.Random(seed)
            assert crypto.is_safe_prime(n, ours) == (
                reference_is_probable_prime(n, random.Random(seed))
                and reference_is_probable_prime(q, random.Random(seed))), n
            if n.bit_length() > 78 and _reference_pair_passes_base_2(q):
                for _ in range(8):
                    theirs.randrange(2, q - 1)
            assert ours.getstate() == theirs.getstate(), n


# --- session key bootstrap ------------------------------------------------

def test_dh_golden_vector():
    side_a = DhParams(p=23, g=5, r=6)
    side_b = DhParams(p=23, g=5, r=15)
    assert crypto.dh_public(side_a) == 8
    assert crypto.dh_public(side_b) == 19
    k_ab = crypto.dh_shared(19, side_a)
    k_ba = crypto.dh_shared(8, side_b)
    assert k_ab.value == 2
    assert k_ba.value == 2
    assert k_ab.key_bytes == b"\x02"


def test_dh_rejects_out_of_range_peer_values():
    params = DhParams(p=23, g=5, r=6)
    for bad in (0, -4, 23, 24):
        with pytest.raises(ValueError):
            crypto.dh_shared(bad, params)


def test_dh_group_generation_is_deterministic_and_safe():
    p1, g1 = crypto.generate_dh_group(64, random.Random(11))
    p2, g2 = crypto.generate_dh_group(64, random.Random(11))
    assert (p1, g1) == (p2, g2)
    assert p1.bit_length() == 64
    q = (p1 - 1) // 2
    # oracle: Fermat checks with independent bases
    for a in (2, 3, 5, 7):
        assert pow(a, p1 - 1, p1) == 1
        assert pow(a, q - 1, q) == 1 or a == q
    assert pow(g1, 2, p1) != 1
    assert pow(g1, q, p1) != 1


class _CountingRandom(random.Random):
    """A Random that counts randrange draws: the drawn Miller-Rabin bases."""

    randranges = 0

    def randrange(self, *args):
        self.randranges += 1
        return super().randrange(*args)


@pytest.mark.parametrize("bits", [16, 64, 96])
def test_dh_group_memo_hit_equals_a_fresh_search(bits, group_searches):
    for seed in range(5):
        crypto._dh_groups.clear()
        want_rng = random.Random(seed)
        want = crypto._search_dh_group(bits, want_rng)
        group_searches.clear()
        fresh = _CountingRandom(seed)
        assert crypto.generate_dh_group(bits, fresh) == want
        assert fresh.getstate() == want_rng.getstate()
        # at 96 bits the search draws bases; a hit must restore past them
        assert (fresh.randranges > 0) == (bits > 78)
        hit = _CountingRandom(seed)
        assert crypto.generate_dh_group(bits, hit) == want
        assert hit.randranges == 0
        assert hit.getstate() == want_rng.getstate()
        assert group_searches == [bits]   # by the miss, not the hit
        # every later draw is the one a fresh search leaves
        assert crypto.make_dh_params(*want, hit) == \
            crypto.make_dh_params(*want, want_rng)
        assert hit.getrandbits(64) == want_rng.getrandbits(64)


def test_dh_group_memo_keys_on_width_and_the_exact_state(group_searches):
    crypto._dh_groups.clear()
    crypto.generate_dh_group(64, random.Random(3))
    other = random.Random(3)
    assert crypto.generate_dh_group(65, other) == \
        reference_generate_dh_group(65, random.Random(3))
    assert group_searches == [64, 65]
    moved = random.Random(3)
    moved.getrandbits(1)
    crypto.generate_dh_group(64, moved)
    assert group_searches == [64, 65, 64]


def test_dh_group_memo_holds_at_most_its_bound(group_searches):
    crypto._dh_groups.clear()
    bound = crypto.DH_GROUP_MEMO_SIZE
    for seed in range(bound + 10):
        crypto.generate_dh_group(16, random.Random(seed))
        assert len(crypto._dh_groups) <= bound
    assert len(crypto._dh_groups) == bound
    # the oldest entries went first; an evicted state is searched afresh
    crypto.generate_dh_group(16, random.Random(bound + 9))
    assert len(group_searches) == bound + 10
    rng, want_rng = random.Random(0), random.Random(0)
    assert crypto.generate_dh_group(16, rng) == \
        reference_generate_dh_group(16, want_rng)
    assert rng.getstate() == want_rng.getstate()
    assert len(group_searches) == bound + 11


# --- block encryption -----------------------------------------------------

def test_rsa_encrypt_decrypt_round_trip():
    c = crypto.rsa_encrypt(42, TOY1.public)
    assert c == pow(42, 7, 187)
    assert crypto.rsa_decrypt(c, TOY1) == 42


def test_rsa_encrypt_rejects_oversized_block():
    with pytest.raises(ValueError):
        crypto.rsa_encrypt(187, TOY1.public)
    with pytest.raises(ValueError):
        crypto.rsa_encrypt(-1, TOY1.public)


# --- the public-operation memo ----------------------------------------------

def test_rsa_public_equals_pow_before_and_after_eviction():
    rng = random.Random(20)
    keys = [crypto.generate_keypair(128, rng) for _ in range(3)]
    inputs = [(rng.randrange(key.n), key.n, key.e)
              for key in keys for _ in range(100)]
    inputs.append((88, TOY1.n, TOY1.e))
    crypto.rsa_public.cache_clear()
    for x, n, e in inputs:
        assert crypto.rsa_public(x, n, e) == pow(x, e, n)
    info = crypto.rsa_public.cache_info()
    assert (info.misses, info.currsize, info.maxsize) == (301, 256, 256)
    # the first 45 entries were pushed out: computed again, and still equal
    for x, n, e in inputs[:10]:
        assert crypto.rsa_public(x, n, e) == pow(x, e, n)
    assert crypto.rsa_public.cache_info().misses == 311
    assert crypto.rsa_public(88, TOY1.n, TOY1.e) == pow(88, 7, 187)
    assert crypto.rsa_public.cache_info().hits == 1


def _honest_chain(signers):
    """A seeded chain of `signers` 128-bit signers, and one outside key."""
    rng = random.Random(0x5A5)
    keys = [crypto.generate_keypair(128, rng) for _ in range(signers + 1)]
    hashes = [rng.getrandbits(256) for _ in range(signers)]
    agg = crypto.rsa_sign_first(hashes[0], keys[0])
    for h, key in zip(hashes[1:], keys[1:signers]):
        agg = crypto.sas_aggregate_step(agg, h, key)
    chain = [(h, key.public) for h, key in zip(hashes, keys)]
    return agg, chain, keys[signers]


def _tampered(agg, chain, outsider):
    """(what was changed, aggregate, signer list) for every single edit."""
    yield "value + 1", AggregateSignature(agg.value + 1,
                                          agg.overflow_bits), chain
    for i in range(len(agg.overflow_bits)):
        bits = list(agg.overflow_bits)
        bits[i] ^= 1
        yield "bit %d" % i, AggregateSignature(agg.value, tuple(bits)), chain
    for i in range(len(chain)):
        swapped_key = list(chain)
        swapped_key[i] = (chain[i][0], outsider.public)
        yield "key of signer %d" % i, agg, swapped_key
    for i in range(len(chain) - 1):
        swapped = list(chain)
        swapped[i], swapped[i + 1] = chain[i + 1], chain[i]
        yield "signers %d and %d swapped" % (i, i + 1), agg, swapped


def test_warm_public_memo_still_rejects_every_single_tampering():
    agg, chain, outsider = _honest_chain(7)    # an originator and 6 hops
    crypto.rsa_public.cache_clear()
    assert crypto.sas_unwind_verify(agg, chain)
    assert crypto.rsa_public.cache_info().misses == 7
    # a second honest check finds every link in the memo
    assert crypto.sas_unwind_verify(agg, chain)
    assert crypto.rsa_public.cache_info()[:2] == (7, 7)
    cases = list(_tampered(agg, chain, outsider))
    assert len(cases) == 1 + 6 + 7 + 6
    for what, forged, signers in cases:
        assert not crypto.sas_unwind_verify(forged, signers), what
    assert crypto.sas_unwind_verify(agg, chain)


# --- digests and tags -----------------------------------------------------

def test_digest_width_and_int_conversion():
    d = crypto.digest(b"abc")
    assert len(d) == 32
    assert crypto.digest_int(b"\x00" * 31 + b"\x58") == 88


def test_mac_tag_known_answer():
    # oracle: RFC 2104 construction recomputed with hashlib directly
    import hashlib
    key = SessionKey(2)
    block = key.key_bytes + b"\x00" * 63
    inner = hashlib.sha256(bytes(b ^ 0x36 for b in block) + b"msg").digest()
    expect = hashlib.sha256(bytes(b ^ 0x5C for b in block) + inner).digest()
    assert crypto.mac_tag(b"msg", key) == expect
    assert crypto.mac_verify(b"msg", key, expect)
    assert not crypto.mac_verify(b"msh", key, expect)
    assert not crypto.mac_verify(b"msg", SessionKey(3), expect)


def test_mac_tag_rfc4231_case_2():
    key = SessionKey(0x4A656665)   # "Jefe"
    assert crypto.mac_tag(b"what do ya want for nothing?", key).hex() == (
        "5bdcc146bf60754e6a042426089575c7"
        "5a003f089d2739839dec58b964ec3843")


def test_mac_tag_equals_hmac_new_on_random_keys():
    import hashlib
    import hmac
    rng = random.Random(4231)
    for _ in range(200):
        key = SessionKey(rng.getrandbits(rng.randrange(1, 1100)))
        message = rng.randbytes(rng.randrange(0, 300))
        assert crypto.mac_tag(message, key) == \
            hmac.new(key.key_bytes, message, hashlib.sha256).digest()
        assert key.key_bytes is key.key_bytes   # made once per key


def test_mac_tag_equals_hmac_new_on_either_side_of_the_block_width():
    # SHA-256 reads 64-byte blocks: a key up to 64 bytes is zero-padded, a
    # longer one hashed first. Two keys take turns, so a pad state that one
    # tag updated in place would spoil the next tag under the same key.
    import hashlib
    import hmac
    rng = random.Random(2104)
    keys = []
    for width in (63, 64, 65, 129, 200):
        for _ in range(2):
            value = rng.getrandbits(8 * width) | 1 << (8 * width - 1)
            key = SessionKey(value)
            assert len(key.key_bytes) == width
            keys.append(key)
    for first, second in zip(keys[::2], keys[1::2]):
        pads = (first.mac_pads, second.mac_pads)
        for i in range(40):
            key = (first, second)[i % 2]
            message = rng.randbytes(rng.randrange(0, 200))
            expect = hmac.new(key.key_bytes, message, hashlib.sha256).digest()
            assert crypto.mac_tag(message, key) == expect
            assert crypto.mac_verify(message, key, expect)
        # made once per key
        assert first.mac_pads is pads[0] and second.mac_pads is pads[1]
        assert first.mac_pads[0] is pads[0][0]


def test_derive_seed_stable():
    assert crypto.derive_seed(1, "keys", "n0") == crypto.derive_seed(1, "keys", "n0")
    assert crypto.derive_seed(1, "keys", "n0") != crypto.derive_seed(1, "keys", "n1")


# --- properties -----------------------------------------------------------

def _toy_pool():
    rng = random.Random(0xACC)
    return [crypto.generate_keypair(64, rng) for _ in range(6)]


POOL = _toy_pool()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_chain_round_trip_property(data):
    length = data.draw(st.integers(1, 6))
    keys = [POOL[data.draw(st.integers(0, len(POOL) - 1))] for _ in range(length)]
    hashes = [data.draw(st.integers(0, 2**256 - 1)) for _ in range(length)]
    agg = crypto.rsa_sign_first(hashes[0], keys[0])
    for h, key in zip(hashes[1:], keys[1:]):
        agg = crypto.sas_aggregate_step(agg, h, key)
    assert agg.signer_count == length
    assert len(agg.overflow_bits) == length - 1
    chain = [(h, k.public) for h, k in zip(hashes, keys)]
    assert crypto.sas_unwind_verify(agg, chain)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_single_mutation_breaks_chain_property(data):
    length = data.draw(st.integers(1, 5))
    keys = [POOL[data.draw(st.integers(0, len(POOL) - 1))] for _ in range(length)]
    hashes = [data.draw(st.integers(0, 2**256 - 1)) for _ in range(length)]
    agg = crypto.rsa_sign_first(hashes[0], keys[0])
    for h, key in zip(hashes[1:], keys[1:]):
        agg = crypto.sas_aggregate_step(agg, h, key)
    chain = [(h, k.public) for h, k in zip(hashes, keys)]

    idx = data.draw(st.integers(0, length - 1))
    mode = data.draw(st.sampled_from(["hash", "value", "bit"]))
    if mode == "hash":
        mutated = list(chain)
        mutated[idx] = (chain[idx][0] + 1, chain[idx][1])
        assert not crypto.sas_unwind_verify(agg, mutated)
    elif mode == "value":
        forged = AggregateSignature(
            value=(agg.value + 1) % keys[-1].n,
            overflow_bits=agg.overflow_bits,
        )
        assert not crypto.sas_unwind_verify(forged, chain)
    elif length > 1:
        bits = list(agg.overflow_bits)
        bidx = data.draw(st.integers(0, len(bits) - 1))
        bits[bidx] = 1 - bits[bidx]
        forged = AggregateSignature(value=agg.value,
                                    overflow_bits=tuple(bits))
        assert not crypto.sas_unwind_verify(forged, chain)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 2**64), st.integers(2, 2**64))
def test_dh_symmetry_property(ra, rb):
    p, g = 2**61 - 1, 3   # Mersenne prime group is fine for the property
    a = DhParams(p=p, g=g, r=ra)
    b = DhParams(p=p, g=g, r=rb)
    assert crypto.dh_shared(crypto.dh_public(b), a).value == \
        crypto.dh_shared(crypto.dh_public(a), b).value
