"""Where vdf's big-integer work runs: libcrypto, libgmp, or Python without them.

vdf calls ``modexp``, ``modexp2`` and ``baillie_psw``; this module alone
picks their backend.

- ``modexp`` and ``modexp2`` run on OpenSSL's BIGNUM where libcrypto
  loaded, and are the built-in pow otherwise.  A 512-bit squaring costs
  about 0.15 us in BN_mod_exp and 1.8 us in CPython's pow, which has no
  Montgomery multiplication.  ``modexp2`` is one BN_mod_exp2_mont, which
  shares the squarings of its two exponents.
- ``baillie_psw`` is libgmp's mpz_probab_prime_p(n, 24) where a GMP of
  6.2 or later loaded, and otherwise this module's strong test to base
  2 and strong Lucas test with Selfridge's parameters.  Since 6.2 that
  call is trial division and the same two tests, with no Miller-Rabin
  round to a random base (Baillie & Wagstaff, *Lucas Pseudoprimes*,
  Math. Comp. 1980), so the backends agree on every integer unless a
  Baillie-PSW pseudoprime exists: none is known, and none lies below 2^64.

Each library loads once, on first use, through ``_load``: only by the
versioned soname find_library reports (libcrypto.so.N, libgmp.so.N),
since macOS aborts a process that loads an unversioned one, and only if
its functions declare and it gives Python's answers on fixed inputs
(``_CHECK``, ``_PRIME_CHECK``).  Otherwise Python gives the same
integers and verdicts, only slower.  Each thread keeps the contexts it
calls with (``_Scratch``, ``_MpzScratch``) until it ends.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import functools
import math
import re
import threading
import weakref
from collections.abc import Callable
from typing import TypeVar

_T = TypeVar("_T")
_P = ctypes.c_void_p
_SIGNATURES = {
    "BN_CTX_new": (_P, []),
    "BN_CTX_free": (None, [_P]),
    "BN_new": (_P, []),
    "BN_free": (None, [_P]),
    "BN_bin2bn": (_P, [ctypes.c_char_p, ctypes.c_int, _P]),
    "BN_bn2binpad": (ctypes.c_int, [_P, ctypes.c_char_p, ctypes.c_int]),
    "BN_mod_exp": (ctypes.c_int, [_P, _P, _P, _P, _P]),
    # (r, a1, p1, a2, p2, m, ctx, in_mont), in_mont the thread's kept context
    "BN_mod_exp2_mont": (ctypes.c_int, [_P, _P, _P, _P, _P, _P, _P, _P]),
    "BN_MONT_CTX_new": (_P, []),
    "BN_MONT_CTX_set": (ctypes.c_int, [_P, _P, _P]),
    "BN_MONT_CTX_free": (None, [_P]),
    "OpenSSL_version": (ctypes.c_char_p, [ctypes.c_int]),
}
# a 508-bit base, a 511-bit odd modulus and a 301-bit exponent; the
# second power of the modexp2 check has a 485-bit base and a 241-bit
# exponent
_CHECK = (3**320, 7**107, 5**220 + 2)
_CHECK2 = (11**140, 13**65)
_MONTS = 4  # Montgomery contexts a thread keeps, the oldest freed first

# libgmp's mpz functions by their linker names (gmp.h maps mpz_x to __gmpz_x)
_GMP_SIGNATURES = {
    "init": ("__gmpz_init", None, [_P]),
    "clear": ("__gmpz_clear", None, [_P]),
    # (rop, count, order, size, endian, nails, op): count bytes, high byte first
    "import_": (
        "__gmpz_import",
        None,
        [_P, ctypes.c_size_t, ctypes.c_int, ctypes.c_size_t, ctypes.c_int, ctypes.c_size_t,
         ctypes.c_char_p],
    ),
    "probab_prime": ("__gmpz_probab_prime_p", ctypes.c_int, [_P, ctypes.c_int]),
}
_GMP_MIN_VERSION = (6, 2)  # the first release whose probab_prime_p is Baillie-PSW
_GMP_REPS = 24  # the most reps that add no Miller-Rabin round to Baillie-PSW
# the verdicts libgmp must give to be used: primes of 89 to 255 bits; the
# base-2 strong pseudoprimes 151*751*28351 and 1093^2 (a Wieferich
# square) and one to every prime base up to 31, which only the Lucas half
# refuses; the strong Lucas pseudoprime 293*3529, which only the base-2
# half refuses; and a product of two Mersenne primes
_PRIME_CHECK = {
    2**89 - 1: True,
    2**127 - 1: True,
    2**255 - 19: True,
    3215031751: False,
    1093**2: False,
    3825123056546413051: False,
    1033997: False,
    (2**89 - 1) * (2**127 - 1): False,
}


class _Scratch:
    """One thread's BN_CTX and BIGNUMs: the result, the modulus, two bases, two exponents.

    ``monts`` maps a modulus to its BN_MONT_CTX.  A finalizer frees all of them
    once nothing refers to the object; for the one a thread keeps in
    ``_local``, that is when the thread ends.  A BIGNUM keeps the widest
    value it has held until then: at most the 2 MiB of the exponent 2^T
    that vdf.eval passes for T = 2^24.
    """

    def __init__(self, lib: ctypes.CDLL) -> None:
        self.lib = lib
        self.ctx = lib.BN_CTX_new()
        self.nums = [lib.BN_new() for _ in range(6)]
        self.monts: dict[int, int] = {}
        self.free = weakref.finalize(self, _free, lib, self.ctx, (self.nums, self.monts))
        if not self.ctx or not all(self.nums):
            self.free()
            raise MemoryError("BN_CTX or BIGNUM allocation failed")

    def mont(self, mod: int, m) -> int:
        """The BN_MONT_CTX of ``mod``, set from the BIGNUM ``m`` on first use.

        A full cache frees its oldest entry first.
        """
        mont = self.monts.get(mod)
        if mont is None:
            mont = self.lib.BN_MONT_CTX_new()
            if not mont:
                raise MemoryError("BN_MONT_CTX allocation failed")
            if not self.lib.BN_MONT_CTX_set(mont, m, self.ctx):
                self.lib.BN_MONT_CTX_free(mont)
                raise ArithmeticError("BN_MONT_CTX_set failed")
            if len(self.monts) == _MONTS:
                self.lib.BN_MONT_CTX_free(self.monts.pop(next(iter(self.monts))))
            self.monts[mod] = mont
        return mont

    def load(self, *values: int) -> list:
        """The result BIGNUM, then one BIGNUM holding each of ``values``."""
        for bn, value in zip(self.nums[1:], values):
            raw = value.to_bytes((value.bit_length() + 7) // 8, "big")
            if not self.lib.BN_bin2bn(raw, len(raw), bn):
                raise MemoryError("BIGNUM allocation failed")
        return self.nums[: len(values) + 1]

    def result(self, mod: int) -> int:
        """The result BIGNUM as an int, which must fit the width of ``mod``."""
        size = (mod.bit_length() + 7) // 8
        out = ctypes.create_string_buffer(size)
        if self.lib.BN_bn2binpad(self.nums[0], out, size) != size:
            raise ArithmeticError("BIGNUM result wider than its modulus")
        return int.from_bytes(out.raw, "big")


def _free(lib: ctypes.CDLL, ctx: int | None, held: tuple[list, dict]) -> None:
    nums, monts = held
    for mont in monts.values():
        lib.BN_MONT_CTX_free(mont)
    for bn in nums:
        lib.BN_free(bn)  # every free is a no-op on a failed (NULL) allocation
    lib.BN_CTX_free(ctx)


_local = threading.local()


def _scratch(lib: ctypes.CDLL) -> _Scratch:
    """This thread's scratch for ``lib``, made on first use.

    The BIGNUMs and BN_CTX are the calling thread's own and ctypes drops
    the GIL during each call, so threads may exponentiate at once.
    """
    scratch = getattr(_local, "scratch", None)
    if scratch is None or scratch.lib is not lib:
        scratch = _local.scratch = _Scratch(lib)
    return scratch


def _bn_mod_exp(lib: ctypes.CDLL, base: int, exp: int, mod: int) -> int:
    """base^exp mod mod through BN_mod_exp."""
    scratch = _scratch(lib)
    r, m, a, e = scratch.load(mod, base, exp)
    if not lib.BN_mod_exp(r, a, e, m, scratch.ctx):
        raise ArithmeticError("BN_mod_exp failed")
    return scratch.result(mod)


def _bn_mod_exp2(lib: ctypes.CDLL, a1: int, e1: int, a2: int, e2: int, mod: int) -> int:
    """a1^e1 * a2^e2 mod mod through BN_mod_exp2_mont.

    BN_mod_exp2_mont reads a base that is 0 mod m as a zero product even
    when its exponent is 0, so a power to 0 is left out instead.  It is
    passed the thread's Montgomery context of ``mod`` (``_Scratch.mont``).
    """
    if not e1 or not e2:
        return _bn_mod_exp(lib, a2, e2, mod) if not e1 else _bn_mod_exp(lib, a1, e1, mod)
    scratch = _scratch(lib)
    r, m, b1, p1, b2, p2 = scratch.load(mod, a1, e1, a2, e2)
    mont = scratch.mont(mod, m)
    if not lib.BN_mod_exp2_mont(r, b1, p1, b2, p2, m, scratch.ctx, mont):
        raise ArithmeticError("BN_mod_exp2_mont failed")
    return scratch.result(mod)


def _load(stem: str, setup: Callable[[ctypes.CDLL], _T | None]) -> _T | None:
    """What ``setup`` makes of the versioned lib``stem``.so.N, or None where it cannot be used.

    ``setup`` declares the functions it uses and returns None unless the
    library agrees with Python; a failure to load, declare or agree is None too.
    """
    name = ctypes.util.find_library(stem)
    if name is None or not re.fullmatch(rf"lib{stem}\.so\.\d+", name):
        return None
    try:
        return setup(ctypes.CDLL(name))
    except (OSError, AttributeError, ValueError, MemoryError, ArithmeticError):
        return None


def _declare(lib: ctypes.CDLL, symbol: str, restype, argtypes: list):
    function = getattr(lib, symbol)
    function.restype, function.argtypes = restype, argtypes
    return function


def _crypto_setup(lib: ctypes.CDLL) -> ctypes.CDLL | None:
    for symbol, (restype, argtypes) in _SIGNATURES.items():
        _declare(lib, symbol, restype, argtypes)
    base, exp, mod = _CHECK
    expected = pow(base, exp, mod)
    agrees = _bn_mod_exp(lib, base, exp, mod) == expected and (
        _bn_mod_exp2(lib, base, exp, *_CHECK2, mod) == expected * pow(*_CHECK2, mod) % mod
    )
    return lib if agrees else None


@functools.cache
def _libcrypto() -> ctypes.CDLL | None:
    """libcrypto with every function used declared, or None where it cannot be used."""
    return _load("crypto", _crypto_setup)


def modexp(base: int, exp: int, mod: int) -> int:
    """pow(base, exp, mod) for base, exp >= 0 and odd mod >= 3; in libcrypto if it loaded."""
    lib = _libcrypto()
    return pow(base, exp, mod) if lib is None else _bn_mod_exp(lib, base, exp, mod)


def modexp2(a1: int, e1: int, a2: int, e2: int, mod: int) -> int:
    """pow(a1, e1, mod) * pow(a2, e2, mod) % mod for a1, a2, e1, e2 >= 0 and odd mod >= 3."""
    lib = _libcrypto()
    if lib is None:
        return pow(a1, e1, mod) * pow(a2, e2, mod) % mod
    return _bn_mod_exp2(lib, a1, e1, a2, e2, mod)


def backend() -> str:
    """The OpenSSL version string modexp and modexp2 run on, or "builtin pow"."""
    lib = _libcrypto()
    return "builtin pow" if lib is None else lib.OpenSSL_version(0).decode()


class _Mpz(ctypes.Structure):
    """gmp.h's __mpz_struct, the one element of an mpz_t."""

    _fields_ = [("alloc", ctypes.c_int), ("size", ctypes.c_int), ("limbs", ctypes.c_void_p)]


class _Gmp:
    """libgmp's version, and its ``_GMP_SIGNATURES`` functions declared under their short names."""

    def __init__(self, lib: ctypes.CDLL, version: str) -> None:
        self.version = version
        for name, signature in _GMP_SIGNATURES.items():
            setattr(self, name, _declare(lib, *signature))

    def probable_prime(self, n: int) -> bool:
        """mpz_probab_prime_p(n, 24) > 0 on this thread's mpz_t, for n > 0."""
        mpz = getattr(_local, "mpz", None)
        if mpz is None or mpz.gmp is not self:
            mpz = _local.mpz = _MpzScratch(self)
        raw = n.to_bytes((n.bit_length() + 7) // 8, "big")
        self.import_(mpz.address, len(raw), 1, 1, 0, 0, raw)
        return self.probab_prime(mpz.address, _GMP_REPS) > 0


class _MpzScratch:
    """One thread's mpz_t; a finalizer clears it once nothing refers to the object.

    For the one a thread keeps in ``_local`` that is when the thread ends.
    """

    def __init__(self, gmp: _Gmp) -> None:
        self.gmp = gmp
        mpz = _Mpz()
        self.address = ctypes.addressof(mpz)
        gmp.init(self.address)
        # the finalizer holds the structure, so it outlives this object
        self.free = weakref.finalize(self, _clear, gmp, mpz)


def _clear(gmp: _Gmp, mpz: _Mpz) -> None:
    gmp.clear(ctypes.addressof(mpz))


def _gmp_version(lib: ctypes.CDLL) -> str:
    return ctypes.c_char_p.in_dll(lib, "__gmp_version").value.decode()


def _gmp_setup(lib: ctypes.CDLL) -> _Gmp | None:
    version = _gmp_version(lib)
    release = re.match(r"(\d+)\.(\d+)", version)
    if release is None or tuple(map(int, release.groups())) < _GMP_MIN_VERSION:
        return None
    gmp = _Gmp(lib, version)
    agrees = all(gmp.probable_prime(n) == verdict for n, verdict in _PRIME_CHECK.items())
    return gmp if agrees else None


@functools.cache
def _libgmp() -> _Gmp | None:
    """libgmp 6.2 or later, declared; None where it cannot be used."""
    return _load("gmp", _gmp_setup)


def _strong_probable_prime_base_2(n: int) -> bool:
    """Strong Fermat (Miller-Rabin) test to base 2 for odd n > 2."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = modexp(2, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                result = -result
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters for odd n > 2.

    D is the first of 5, -7, 9, -11, ... with Jacobi symbol (D/n) = -1,
    P = 1 and Q = (1 - D) / 4.  With n + 1 = d * 2^s, n passes when
    U_d = 0 or V_(d 2^r) = 0 (mod n) for some 0 <= r < s.  A ladder over
    the bits of d keeps only (V_m, V_(m+1), Q^m), and U_d = 0 is read as
    2 V_(d+1) - V_d = D U_d = 0: (D/n) = -1 makes D invertible mod n.
    """
    if math.isqrt(n) ** 2 == n:
        return False  # no D with (D/n) = -1 exists for a square
    d_param = 5
    while (symbol := _jacobi(d_param, n)) != -1:
        if symbol == 0:
            return False  # gcd(D, n) > 1; a prime n meets a -1 long before |D| = n
        d_param = -d_param - 2 if d_param > 0 else -d_param + 2
    q_param = (1 - d_param) // 4
    k = n + 1
    s = (k & -k).bit_length() - 1
    k >>= s
    # (V_1, V_2, Q^1); each bit takes m to 2m or 2m + 1 by
    # V_2m = V_m^2 - 2Q^m, V_(2m+1) = V_m V_(m+1) - P Q^m and
    # V_(2m+2) = V_(m+1)^2 - 2Q^(m+1)
    v, w, qm = 1, (1 - 2 * q_param) % n, q_param % n
    for bit in bin(k)[3:]:
        if bit == "1":
            qw = qm * q_param  # Q^(m+1), reduced in the two uses below
            v, w = (v * w - qm) % n, (w * w - 2 * qw) % n
            qm = qm * qw % n
        else:
            v, w = (v * v - 2 * qm) % n, (v * w - qm) % n
            qm = qm * qm % n
    if v == 0 or (2 * w - v) % n == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qm) % n
        if v == 0:
            return True
        qm = qm * qm % n
    return False


def baillie_psw(*values: int) -> bool:
    """Baillie-PSW on each of ``values``, odd integers above 2048: do all pass?

    Each verdict is libgmp's mpz_probab_prime_p(n, 24) > 0 where libgmp
    loaded.  Otherwise the base-2 strong test runs on every value before
    the strong Lucas test runs on any, so a pair of the safe-prime search
    pays for a Lucas test only once both halves pass base 2.
    """
    gmp = _libgmp()
    if gmp is not None:
        return all(map(gmp.probable_prime, values))
    return all(map(_strong_probable_prime_base_2, values)) and all(
        map(_strong_lucas_probable_prime, values)
    )


def prime_backend() -> str:
    """The GMP version ``baillie_psw`` runs on, or "python strong tests"."""
    gmp = _libgmp()
    return "python strong tests" if gmp is None else f"GMP {gmp.version}"
