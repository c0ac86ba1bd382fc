"""Number-theoretic primitives for the from-scratch RSA implementation.

The paper's PVR sketch needs a public-key signature scheme ("such as RSA",
Section 3.8).  No external crypto library is used: modular arithmetic,
extended Euclid, Miller-Rabin primality testing and prime generation are
implemented here.  Key sizes are configurable; benchmarks use 512-2048 bit
moduli to reproduce the "signatures dominate, hashing is cheap" shape of
Section 3.8.
"""

from __future__ import annotations

from typing import Callable, Tuple

# Deterministic Miller-Rabin bases valid for all n < 3.3e24 — more than
# enough to make small-prime unit tests exact; larger candidates addi-
# tionally get randomized rounds.
_DETERMINISTIC_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
)


def egcd(a: int, b: int) -> Tuple[int, int, int]:
    """Extended Euclid: returns (g, x, y) with a*x + b*y == g == gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def modinv(a: int, m: int) -> int:
    """Modular inverse of ``a`` mod ``m``; raises when gcd(a, m) != 1."""
    g, x, _ = egcd(a % m, m)
    if g != 1:
        raise ValueError(f"{a} has no inverse modulo {m}")
    return x % m


def _miller_rabin_witness(n: int, a: int, d: int, r: int) -> bool:
    """True when ``a`` witnesses compositeness of ``n``."""
    x = pow(a, d, n)
    if x in (1, n - 1):
        return False
    for _ in range(r - 1):
        x = (x * x) % n
        if x == n - 1:
            return False
    return True


def is_probable_prime(n: int, random_bytes: Callable[[int], bytes] | None = None,
                      rounds: int = 16) -> bool:
    """Miller-Rabin primality test.

    Uses the deterministic base set (exact below 3.3e24) plus, when a byte
    source is supplied, ``rounds`` random bases for large candidates.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _DETERMINISTIC_BASES:
        if a >= n - 1:
            continue
        if _miller_rabin_witness(n, a, d, r):
            return False
    if random_bytes is not None and n.bit_length() > 81:
        nbytes = (n.bit_length() + 7) // 8
        for _ in range(rounds):
            a = (int.from_bytes(random_bytes(nbytes), "big") % (n - 3)) + 2
            if _miller_rabin_witness(n, a, d, r):
                return False
    return True


def _odd_primes_below(bound: int) -> Tuple[int, ...]:
    """The odd primes below ``bound`` (sieve of Eratosthenes)."""
    flags = bytearray([1]) * bound
    flags[:2] = b"\x00\x00"
    for i in range(2, int(bound ** 0.5) + 1):
        if flags[i]:
            flags[i * i::i] = bytes(len(range(i * i, bound, i)))
    return tuple(i for i in range(3, bound, 2) if flags[i])


#: the primes a prime window is sieved by before any Miller-Rabin test
_SIEVE_PRIMES = _odd_primes_below(1 << 14)


def generate_prime(bits: int, random_bytes: Callable[[int], bytes]) -> int:
    """Generate a ``bits``-bit probable prime using the given byte source.

    The top two bits are forced to 1 so that the product of two such primes
    has exactly ``2 * bits`` bits, and the low bit is forced to 1 so the
    candidate is odd.  From each draw a window of up to 256 odd numbers
    is scanned upward; it is sieved once by the odd primes below 2**14,
    so only candidates with no small factor reach
    :func:`is_probable_prime`.  A struck candidate is one the test's
    trial division or fixed bases reject without drawing on
    ``random_bytes`` — unless it is a strong pseudoprime to all twelve
    fixed bases, which a random draw is astronomically unlikely to be —
    so the sieve changes no prime a seed yields (pinned against the
    unsieved loop in ``tests/test_crypto_keystore.py``).
    """
    if bits < 16:
        raise ValueError("prime size below 16 bits is not supported")
    nbytes = (bits + 7) // 8
    while True:
        candidate = int.from_bytes(random_bytes(nbytes), "big")
        candidate &= (1 << bits) - 1
        candidate |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        # slot k holds candidate + 2k; the window stops short of the
        # first number that outgrows ``bits``
        slots = min(256, ((1 << bits) - candidate + 1) // 2)
        alive = bytearray([1]) * slots
        for p in _SIEVE_PRIMES:
            # p divides candidate + 2k exactly when k = -candidate / 2
            # (mod p); (p + 1) / 2 is the inverse of 2
            first = (-(candidate % p) * ((p + 1) >> 1)) % p
            if first < slots:
                alive[first::p] = bytes(len(range(first, slots, p)))
        for k in range(slots):
            if alive[k] and is_probable_prime(candidate + 2 * k, random_bytes):
                return candidate + 2 * k


def crt_combine(mp: int, mq: int, p: int, q: int, q_inv: int) -> int:
    """Garner's CRT recombination used by RSA private-key operations."""
    h = (q_inv * (mp - mq)) % p
    return mq + h * q
