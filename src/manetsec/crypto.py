"""Number-theoretic primitives for identity-secured ad hoc networking.

Textbook RSA over bare integers on purpose: the chained aggregate signature
signs across different moduli and needs direct access to (N, e, d), which
padded library RSA does not expose. Key sizes are configurable down to toy
widths so tests can pin hand-checkable values. Every modular exponentiation
goes through powmod, which runs wide moduli on the OpenSSL that CPython's
hashlib links and narrow ones on builtin pow.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import hmac as _hmac
import math
import random
import struct
from dataclasses import dataclass
from typing import Sequence, Tuple

DIGEST_BYTES = 32
RSA_PUBLIC_EXPONENT = 65537


def _primes_to(bound: int) -> list:
    """The primes <= bound, by the sieve of Eratosthenes."""
    flags = bytearray([1]) * (bound + 1)
    flags[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(bound) + 1):
        if flags[i]:
            flags[i * i::i] = bytes(len(range(i * i, bound + 1, i)))
    return [i for i, flag in enumerate(flags) if flag]


# Candidates at or below SIEVE_BOUND are answered from the set. Above it,
# a screen in two stages rejects every candidate with a small factor before
# any Miller-Rabin round (HAC 4.4): one remainder by _WORD_PRODUCT and a gcd
# of two small integers end 72 % of odd candidates, and only the rest pay
# the gcd with the product of these primes (2865 bits here), whose cost
# grows with the product's width. Measured per candidate (Python 3.11.7,
# OpenSSL 3.0.19), at 256 bits the screen costs 1.8 us against 4.7 us for
# the full gcd alone, and a survivor's base-2 round about 30 us. So 2^10
# would save 0.3 us of screen and let 1.3 % more candidates reach a round
# (0.4 us); 2^9 saves 0.6 us for 3.1 % more (0.9 us); 2^13 costs 2.9 us
# more to stop 2.9 % more (0.9 us). A bound that moved could also move a
# draw, for a composite with a factor between the two bounds that is a
# strong pseudoprime to base 2.
SIEVE_BOUND = 2048
_SIEVE_PRIMES = frozenset(_primes_to(SIEVE_BOUND))
_SIEVE_PRODUCT = math.prod(_SIEVE_PRIMES)
# The odd primes 3..47, whose product fits in 59 bits: the first stage of
# both screens, is_probable_prime's and _is_safe_pair's.
_WORD_PRODUCT = math.prod(p for p in _SIEVE_PRIMES if 2 < p <= 47)


def _has_factor_in(n: int) -> bool:
    """Whether n has a prime factor of at most SIEVE_BOUND."""
    return (math.gcd(n % _WORD_PRODUCT, _WORD_PRODUCT) != 1
            or math.gcd(n, _SIEVE_PRODUCT) != 1)


# Deterministic Miller-Rabin bases. Together they decide primality only
# below 3.18 * 10^23, about 2^78 (Sorenson and Webster, 2015), so only
# numbers of at most MR_FIXED_BITS bits run them all. Above 78 bits
# they bound nothing against a crafted composite, which can be a strong
# pseudoprime to every base up to a chosen limit (Arnault, 1995): there
# base 2 is a cheap screen, and the 4^-8 bound comes from 8 bases drawn from
# the caller's stream, as before. Since a prime passes every fixed base, the
# draws differ from those of the full 12-base test only on a composite that
# is a strong pseudoprime to base 2, where this test now draws.
_MR_BASES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
MR_FIXED_BITS = 78


# The safe-pair test's first stage marks each residue r modulo 15015 at
# which 3, 5, 7, 11 or 13 divides r or 2r + 1, and so q or 2q + 1 for every
# q = r. About 90 % of odd q are marked; adding 17 would let 12 % fewer
# through, at 17 times the width.
_PAIR_MODULUS = 3 * 5 * 7 * 11 * 13
_PAIR_MARKS = bytes(math.gcd(r * (2 * r + 1), _PAIR_MODULUS) > 1
                    for r in range(_PAIR_MODULUS))


# --- modular exponentiation -------------------------------------------------

# powmod's width cut. An OpenSSL call pays about 3 us to convert and pass
# its operands, and about 5 us more to set up the Montgomery context of a
# modulus it has not seen, so builtin pow is as fast or faster at 64 bits;
# from 72 bits up OpenSSL wins, by more the wider the modulus, even when
# every call brings a new modulus, as a prime search's base-2 rounds do
# (README, "Modular exponentiation").
POWMOD_MIN_BITS = 80

# powmod keeps the Montgomery contexts of the last MONT_POOL_SIZE odd moduli
# it was given, so a modulus used again (a key's CRT primes and public
# modulus, a candidate's later Miller-Rabin rounds) skips the setup. In a
# full pool a new modulus takes the slot set up longest ago, so a run that
# cycles through more moduli than the pool holds finds none prepared.
# Replayed over three repetitions at seed 1, 256 slots prepare as many calls
# as an unbounded pool would on attack-matrix and line-bulk, and 61 % of
# grid-control's calls against 64 % for an unbounded pool.
MONT_POOL_SIZE = 256


def _bind_bn_mod_exp():
    """x^e mod m on OpenSSL's Montgomery kernel, or None if it cannot be bound.

    The BN_* symbols resolve through CPython's _hashlib module, so they come
    from the libcrypto it already links: nothing is installed and no second
    OpenSSL is loaded. Two registers and the BN_CTX are allocated here, and
    each slot of the pool of prepared moduli when it is first filled; all
    are reused by every call, for the life of the process, and no ctypes
    object is allocated per call. The base register and each slot's
    exponent register keep their last value, so a call loads only the
    operands that changed: a key's dp and dq, the x of both CRT halves and
    a candidate's d over its Miller-Rabin rounds are each loaded once.
    """
    try:
        import _hashlib
        lib = ctypes.CDLL(_hashlib.__file__)
        bn_new, ctx_new = lib.BN_new, lib.BN_CTX_new
        bin2bn, bn2binpad = lib.BN_bin2bn, lib.BN_bn2binpad
        mont_new, mont_set = lib.BN_MONT_CTX_new, lib.BN_MONT_CTX_set
        mont_exp = lib.BN_mod_exp_mont
    except (ImportError, AttributeError, OSError):
        return None
    # every BIGNUM *, BN_CTX * and BN_MONT_CTX * is a c_void_p: the default
    # int restype would truncate a 64-bit pointer
    ptr, c_int, c_bytes = ctypes.c_void_p, ctypes.c_int, ctypes.c_char_p
    bn_new.argtypes, bn_new.restype = [], ptr
    ctx_new.argtypes, ctx_new.restype = [], ptr
    mont_new.argtypes, mont_new.restype = [], ptr
    bin2bn.argtypes, bin2bn.restype = [c_bytes, c_int, ptr], ptr
    bn2binpad.argtypes, bn2binpad.restype = [ptr, c_bytes, c_int], c_int
    mont_set.argtypes, mont_set.restype = [ptr] * 3, c_int
    mont_exp.argtypes, mont_exp.restype = [ptr] * 6, c_int
    ctx = ctx_new()
    regs = [bn_new() for _ in range(2)]
    if ctx is None or None in regs:
        return None
    ctx = ptr(ctx)
    result, base = map(ptr, regs)
    held_base = None   # the value in base, or None if it may hold none
    # each odd modulus held, mapped to its slot [BIGNUM, BN_MONT_CTX, exponent
    # register, the exponent in it or None]; a dict keeps insertion order,
    # so its first key is the modulus set up longest ago
    prepared = {}
    # results are written at the buffer's full width, zero-padded in front,
    # so it serves every modulus no wider than the widest prepared
    out = ctypes.create_string_buffer(1)

    def load(value: int, reg) -> None:
        width = (value.bit_length() + 7) // 8
        if bin2bn(value.to_bytes(width, "big"), width, reg) is None:
            raise MemoryError("BN_bin2bn failed")

    def prepare(m: int):
        """The slot holding odd m; a new m takes the oldest slot or a new one."""
        nonlocal out
        slot = prepared.get(m)
        if slot is None:
            if len(prepared) < MONT_POOL_SIZE:
                slot = [bn_new(), mont_new(), bn_new()]
                if None in slot:
                    raise MemoryError("BN_new or BN_MONT_CTX_new failed")
                slot = [*map(ptr, slot), None]
            else:
                slot = prepared.pop(next(iter(prepared)))
                slot[3] = None
            load(m, slot[0])
            if not mont_set(slot[1], slot[0], ctx):
                raise ArithmeticError("BN_MONT_CTX_set failed")
            prepared[m] = slot
            width = (m.bit_length() + 7) // 8
            if width > len(out):
                out = ctypes.create_string_buffer(width)
        return slot

    def bn_mod_exp(x: int, e: int, m: int) -> int:
        """x^e mod m for odd m: Montgomery reduction needs an odd modulus."""
        nonlocal held_base
        if x != held_base:
            held_base = None
            load(x, base)
            held_base = x
        slot = prepare(m)
        reg, mont, exponent, held = slot
        if e != held:
            slot[3] = None
            load(e, exponent)
            slot[3] = e
        if not mont_exp(result, base, exponent, reg, ctx, mont):
            raise ArithmeticError("BN_mod_exp_mont failed")
        size = len(out)
        if bn2binpad(result, out, size) != size:
            raise ArithmeticError("BN_bn2binpad failed")
        return int.from_bytes(out.raw, "big")

    return bn_mod_exp


_bn_mod_exp = _bind_bn_mod_exp()


def powmod(x: int, e: int, m: int) -> int:
    """x^e mod m for x >= 0, e >= 0 and m > 0: the integer pow(x, e, m) gives.

    An odd modulus of POWMOD_MIN_BITS or more runs on OpenSSL's
    BN_mod_exp_mont with its pooled Montgomery context. An even or narrower
    modulus, or any modulus where the binding could not be made, runs on
    builtin pow; no caller passes an even one. The OpenSSL path reuses one
    set of registers and one pool, so this module must not be called from
    several threads at once.
    """
    if (_bn_mod_exp is None or m.bit_length() < POWMOD_MIN_BITS
            or (m & 1) == 0):
        return pow(x, e, m)
    return _bn_mod_exp(x, e, m)


def digest(data: bytes) -> bytes:
    """Fixed 256-bit hash used for node ids, message hashes, and tag input."""
    return hashlib.sha256(data).digest()


def digest_stream(data: bytes):
    """Incremental digest(): update() with more bytes, then digest()."""
    return hashlib.sha256(data)


def digest_int(data: bytes) -> int:
    return int.from_bytes(data, "big")


def derive_seed(*parts) -> int:
    """Stable 64-bit seed for a named substream of a run's master seed."""
    text = "/".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


@dataclass(frozen=True)
class RsaKeyPair:
    """One RSA pair; a node holds two with distinct moduli (sign + encrypt)."""

    n: int
    e: int
    d: int
    # CRT form of d (RFC 8017 section 3.2): the primes N = p * q,
    # dp = d mod (p - 1), dq = d mod (q - 1) and qinv = q^-1 mod p.
    p: int
    q: int
    dp: int
    dq: int
    qinv: int

    @property
    def public(self) -> Tuple[int, int]:
        return (self.n, self.e)


@dataclass(frozen=True)
class AggregateSignature:
    """Chained signature state: current value plus per-step overflow bits.

    overflow_bits[i] records whether signer i+1 had to subtract its modulus
    from the incoming value before signing; verification cannot re-add the
    modulus without it. Each signer after the first adds one bit.
    """

    value: int
    overflow_bits: Tuple[int, ...]

    @property
    def signer_count(self) -> int:
        return len(self.overflow_bits) + 1


@dataclass(frozen=True)
class DhParams:
    p: int
    g: int
    r: int


_MAC_BLOCK = 64   # SHA-256's block width in bytes, HMAC's B
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


@dataclass(frozen=True)
class SessionKey:
    value: int

    @functools.cached_property
    def key_bytes(self) -> bytes:
        width = max(1, (self.value.bit_length() + 7) // 8)
        return self.value.to_bytes(width, "big")

    @functools.cached_property
    def mac_pads(self) -> Tuple["hashlib._Hash", "hashlib._Hash"]:
        """SHA-256 states after absorbing K xor ipad and K xor opad.

        RFC 2104 section 4: the pads depend on the key alone, so they are
        absorbed once per key and each tag starts from copies of them.
        """
        block = self.key_bytes
        if len(block) > _MAC_BLOCK:
            block = hashlib.sha256(block).digest()
        block = block.ljust(_MAC_BLOCK, b"\x00")
        return (hashlib.sha256(block.translate(_IPAD)),
                hashlib.sha256(block.translate(_OPAD)))


def _miller_rabin(n: int, base: int) -> bool:
    if base % n == 0:
        return True
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = powmod(base, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = (x * x) % n
        if x == n - 1:
            return True
    return False


def is_probable_prime(n: int, rng: random.Random) -> bool:
    if n <= SIEVE_BOUND:
        return n in _SIEVE_PRIMES
    if _has_factor_in(n):
        return False
    if n.bit_length() <= MR_FIXED_BITS:
        for base in _MR_BASES:
            if not _miller_rabin(n, base):
                return False
        return True
    if not _miller_rabin(n, 2):
        return False
    for _ in range(8):
        if not _miller_rabin(n, rng.randrange(2, n - 1)):
            return False
    return True


def _is_safe_pair(q: int, rng: random.Random) -> bool:
    """Whether q and p = 2q + 1 are both prime. Up to the sieve bound q is
    looked up and p, of at most 13 bits, runs is_probable_prime, which
    draws nothing there. Past it: the residue table, the screen of q * p,
    base 2 on q and on p, then q's other rounds, the fixed bases while p
    has at most MR_FIXED_BITS bits and 8 drawn from rng above. Once q is
    prime, Pocklington's criterion (a = 2, p - 1 = 2q, 3 not dividing p)
    makes p prime exactly when 2^(p - 1) = 1 mod p, which p's base-2 round
    implies. So a wrong pair passes only if q's rounds are fooled: never
    up to the bound, with probability at most 4^-8 above it."""
    if q <= SIEVE_BOUND:
        return q in _SIEVE_PRIMES and is_probable_prime(2 * q + 1, rng)
    if _PAIR_MARKS[q % _PAIR_MODULUS]:
        return False
    p = 2 * q + 1
    if (_has_factor_in(q * p)
            or not (_miller_rabin(q, 2) and _miller_rabin(p, 2))):
        return False
    if p.bit_length() <= MR_FIXED_BITS:
        return all(_miller_rabin(q, base) for base in _MR_BASES[1:])
    return all(_miller_rabin(q, rng.randrange(2, q - 1)) for _ in range(8))


def is_safe_prime(p: int, rng: random.Random) -> bool:
    """Whether p and q = (p - 1) / 2 are both prime, by the pair test."""
    return p % 2 == 1 and _is_safe_pair(p // 2, rng)


def generate_prime(bits: int, rng: random.Random) -> int:
    """Random prime with the top two bits set, so products keep exact width."""
    if bits < 8:
        raise ValueError("prime width too small: %d" % bits)
    while True:
        cand = rng.getrandbits(bits)
        cand |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        if is_probable_prime(cand, rng):
            return cand


def generate_keypair(bits: int, rng: random.Random) -> RsaKeyPair:
    while True:
        p = generate_prime(bits // 2, rng)
        q = generate_prime(bits - bits // 2, rng)
        if p == q:
            continue
        # both primes have their top two bits set, so 2^(bits - 1) <
        # 9 * 2^(bits - 4) <= p * q < 2^bits: n is always exactly bits wide
        n = p * q
        phi = (p - 1) * (q - 1)
        if math.gcd(RSA_PUBLIC_EXPONENT, phi) != 1:
            continue
        d = pow(RSA_PUBLIC_EXPONENT, -1, phi)
        return RsaKeyPair(n=n, e=RSA_PUBLIC_EXPONENT, d=d, p=p, q=q,
                          dp=d % (p - 1), dq=d % (q - 1), qinv=pow(q, -1, p))


class NodeKeys:
    """A node's two RSA pairs, drawn in turn from random.Random(seed).

    The signing pair is made at once: every node signs, and its id is the
    hash of the signing key. The encryption pair is made on first read of
    `encryption`, from the same stream where the signing pair left off,
    and then kept, so it is exactly the pair an eager generation makes.
    Only the endpoints of a discovery ever use one.

    Same-width moduli are a correctness requirement, not cosmetics: the
    aggregate step subtracts the local modulus at most once, which is only
    sound when every signature value fits within one modulus width.
    """

    def __init__(self, seed: int, key_bits: int):
        if key_bits < 64 or key_bits % 2 != 0:
            raise ValueError("key_bits must be even and >= 64, got %d"
                             % key_bits)
        self.key_bits = key_bits
        self._rng = random.Random(seed)
        self.signing = generate_keypair(key_bits, self._rng)
        self._encryption: RsaKeyPair | None = None

    @property
    def encryption(self) -> RsaKeyPair:
        if self._encryption is None:
            while True:
                pair = generate_keypair(self.key_bits, self._rng)
                if pair.n != self.signing.n:
                    break
            self._encryption = pair
            self._rng = None
        return self._encryption


def generate_node_keys(seed: int, key_bits: int) -> NodeKeys:
    """Deterministic NodeKeys for one node, memoized by (seed, key_bits)."""
    return _node_keys(seed, key_bits)


# The keys are a pure function of (seed, key_bits), so reruns of a scenario
# share them; a NodeKeys whose encryption pair is made later is made for
# every holder. 256 entries of 512-bit keys hold at most about 1 MB: a
# NodeKeys keeps its 2.5 KB stream until it makes its encryption pair.
@functools.lru_cache(maxsize=256)
def _node_keys(seed: int, key_bits: int) -> NodeKeys:
    return NodeKeys(seed, key_bits)


# --- sequential aggregate signatures ---------------------------------------

def _private_pow(x: int, key: RsaKeyPair) -> int:
    """x^d mod N for 0 <= x < N.

    Two half-width exponentiations recombined by Garner's formula (RFC 8017
    section 5.1.2); the result is exactly the integer pow(x, d, N) gives.
    """
    m1 = powmod(x, key.dp, key.p)
    m2 = powmod(x, key.dq, key.q)
    return m2 + key.q * ((m1 - m2) * key.qinv % key.p)


def rsa_sign_first(h: int, key: RsaKeyPair) -> AggregateSignature:
    """Originator signature: sigma = (h mod N)^d mod N."""
    value = _private_pow(h % key.n, key)
    return AggregateSignature(value=value, overflow_bits=())


def sas_aggregate_step(prev: AggregateSignature, h: int,
                       key: RsaKeyPair) -> AggregateSignature:
    """Fold one more signer over a predecessor signature.

    The incoming value may exceed this signer's modulus by less than one
    modulus width; subtract once and record the overflow bit so the verifier
    can undo it.
    """
    carried = prev.value
    bit = 0
    if carried >= key.n:
        carried -= key.n
        bit = 1
    value = _private_pow((carried + h % key.n) % key.n, key)
    return AggregateSignature(value=value,
                              overflow_bits=prev.overflow_bits + (bit,))


# x^e mod N for every verification, memoized by (x, N, e). In one process a
# level-1 relay unwinds the same links its predecessors have just unwound,
# so most calls repeat; the cache holds this integer function's results, not
# verdicts, and a forged or tampered value is another key, computed fresh.
# 256 entries of 512-bit values hold about 100 KB.
@functools.lru_cache(maxsize=256)
def rsa_public(x: int, n: int, e: int) -> int:
    """x^e mod n: the public-key operation of RSA verification."""
    return powmod(x, e, n)


def sas_unwind_step(sigma: int, h: int, public: Tuple[int, int],
                    bit: int) -> int:
    """Invert one aggregate step, recovering the predecessor value."""
    n, e = public
    sig_hat = (rsa_public(sigma, n, e) - h) % n
    return sig_hat + bit * n


def sas_unwind_verify(agg: AggregateSignature,
                      per_signer: Sequence[Tuple[int, Tuple[int, int]]]) -> bool:
    """Unwind last-to-first and check the originator relation.

    per_signer lists (hash, public key) in signing order, originator first.
    A list of the wrong length is malformed input and raises; a failed
    relation returns False.
    """
    if len(per_signer) != agg.signer_count:
        raise ValueError("signer list length %d != signer_count %d"
                         % (len(per_signer), agg.signer_count))
    sigma = agg.value
    for i in range(len(agg.overflow_bits), 0, -1):
        h, public = per_signer[i]
        n = public[0]
        if not 0 <= sigma < n:
            return False
        sigma = sas_unwind_step(sigma, h, public, agg.overflow_bits[i - 1])
    h0, public0 = per_signer[0]
    n0, e0 = public0
    if not 0 <= sigma < n0:
        return False
    return rsa_public(sigma, n0, e0) == h0 % n0


# --- block encryption of key-exchange values --------------------------------

def rsa_encrypt(m: int, public: Tuple[int, int]) -> int:
    n, e = public
    if not 0 <= m < n:
        raise ValueError("plaintext block out of range for modulus")
    return powmod(m, e, n)


def rsa_decrypt(c: int, key: RsaKeyPair) -> int:
    if not 0 <= c < key.n:
        raise ValueError("ciphertext block out of range for modulus")
    return _private_pow(c, key)


# --- session key exchange ---------------------------------------------------

# Groups already searched, keyed by (bits, the exact stream state the search
# started from), each with its group and the state the search left. The
# search is a pure function of that key, so a hit that returns the group and
# restores the stream leaves every later draw as a fresh search would. Runs
# that share a node's seed (secure mode at both levels, scenarios that share
# node names) search the same groups again. The 625 state words are kept
# packed, 2.5 KB each, instead of as the getstate() tuple of ints (25 KB).
DH_GROUP_MEMO_SIZE = 64
_dh_groups: dict = {}
_STATE_WORDS = struct.Struct("<625I")


def _packed_state(rng: random.Random) -> tuple:
    version, words, gauss_next = rng.getstate()
    return version, _STATE_WORDS.pack(*words), gauss_next


def generate_dh_group(bits: int, rng: random.Random) -> Tuple[int, int]:
    """Safe prime p = 2q + 1 of exact width, with the smallest usable base."""
    if bits < 8:
        raise ValueError("group width too small: %d" % bits)
    key = (bits, _packed_state(rng))
    hit = _dh_groups.get(key)
    if hit is not None:
        p, g, (version, words, gauss_next) = hit
        rng.setstate((version, _STATE_WORDS.unpack(words), gauss_next))
        return p, g
    p, g = _search_dh_group(bits, rng)
    if len(_dh_groups) >= DH_GROUP_MEMO_SIZE:
        del _dh_groups[next(iter(_dh_groups))]
    _dh_groups[key] = (p, g, _packed_state(rng))
    return p, g


def _search_dh_group(bits: int, rng: random.Random) -> Tuple[int, int]:
    """The search generate_dh_group memoizes: random q of bits - 1 bits,
    top two set, until the pair test accepts q and 2q + 1."""
    while True:
        q = rng.getrandbits(bits - 1)
        q |= (1 << (bits - 2)) | 1
        if not _is_safe_pair(q, rng):
            continue
        p = 2 * q + 1
        for g in (2, 3, 5, 7, 11, 13):
            if powmod(g, 2, p) != 1 and powmod(g, q, p) != 1:
                return p, g


def make_dh_params(p: int, g: int, rng: random.Random) -> DhParams:
    return DhParams(p=p, g=g, r=rng.randrange(2, p - 1))


def dh_public(params: DhParams) -> int:
    return powmod(params.g, params.r, params.p)


def dh_shared(peer_public: int, params: DhParams) -> SessionKey:
    if not 0 < peer_public < params.p:
        raise ValueError("peer public value out of range")
    return SessionKey(powmod(peer_public, params.r, params.p))


# --- authentication tags ----------------------------------------------------

def mac_tag(message: bytes, key: SessionKey) -> bytes:
    """HMAC-SHA256 of message under key, from the key's absorbed pads."""
    inner, outer = key.mac_pads
    inner = inner.copy()
    inner.update(message)
    outer = outer.copy()
    outer.update(inner.digest())
    return outer.digest()


def mac_verify(message: bytes, key: SessionKey, tag: bytes) -> bool:
    return _hmac.compare_digest(mac_tag(message, key), tag)
