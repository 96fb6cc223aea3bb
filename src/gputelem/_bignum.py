"""Modular exponentiation on OpenSSL's BIGNUM and Baillie-PSW on libgmp, or Python without them.

A 512-bit modular squaring costs about 1.8 us in CPython's pow, which
has no Montgomery multiplication, and 0.15 us in libcrypto's BN_mod_exp.
libcrypto loads once, on first use, by the versioned soname find_library
reports (libcrypto.so.N): macOS aborts a process that loads an
unversioned one.  If a symbol is missing or the library disagrees with
pow on a fixed input, modexp and modexp2 are pow: the same integers,
only slower.

Each thread keeps one BN_CTX and six scratch BIGNUMs, made on its first
call and freed when the thread ends, so a call pays only for its
operands and the exponentiation, not for allocating its context (about
17 us per call when every call built its own).  ``modexp2`` runs a
product of two powers as one BN_mod_exp2_mont, which shares the
squarings of the two exponents.  The thread also keeps a BN_MONT_CTX
for each of the last ``_MONTS`` moduli ``modexp2`` met, so the vdf
relations of a batch, and of every round after it, build their
Montgomery state for N once (about 73 us to 64 us a relation at 512
bits).

Since GMP 6.2, mpz_probab_prime_p(n, reps) with reps <= 24 is the
Baillie-PSW test alone: trial division, a strong test to base 2 and a
strong Lucas test with Selfridge's parameters, with no Miller-Rabin
rounds to random bases (Baillie & Wagstaff, *Lucas Pseudoprimes*, Math.
Comp. 1980).  libgmp loads the way libcrypto does, by its versioned
soname (libgmp.so.N) and only at version 6.2 or later, and is used only
if it gives the verdicts of ``_PRIME_CHECK``; where it is not,
``prime_test`` is None and the caller runs its own strong tests.  Each
thread keeps one mpz_t, cleared when the thread ends.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import functools
import re
import threading
import weakref
from collections.abc import Callable

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


@functools.cache
def _libcrypto() -> ctypes.CDLL | None:
    """libcrypto with every function used declared, or None where it cannot be used."""
    name = ctypes.util.find_library("crypto")
    if name is None or not re.fullmatch(r"libcrypto\.so\.\d+", name):
        return None
    base, exp, mod = _CHECK
    try:
        lib = ctypes.CDLL(name)
        for symbol, (restype, argtypes) in _SIGNATURES.items():
            function = getattr(lib, symbol)
            function.restype, function.argtypes = restype, argtypes
        expected = pow(base, exp, mod)
        agrees = _bn_mod_exp(lib, base, exp, mod) == expected and (
            _bn_mod_exp2(lib, base, exp, *_CHECK2, mod) == expected * pow(*_CHECK2, mod) % mod
        )
    except (OSError, AttributeError, MemoryError, ArithmeticError):
        return None
    return lib if agrees else None


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
        for name, (symbol, restype, argtypes) in _GMP_SIGNATURES.items():
            function = getattr(lib, symbol)
            function.restype, function.argtypes = restype, argtypes
            setattr(self, name, function)

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


@functools.cache
def _libgmp() -> _Gmp | None:
    """libgmp 6.2 or later, declared; None where it cannot be used."""
    name = ctypes.util.find_library("gmp")
    if name is None or not re.fullmatch(r"libgmp\.so\.\d+", name):
        return None
    try:
        lib = ctypes.CDLL(name)
        version = _gmp_version(lib)
        release = re.match(r"(\d+)\.(\d+)", version)
        if release is None or tuple(map(int, release.groups())) < _GMP_MIN_VERSION:
            return None
        gmp = _Gmp(lib, version)
        agrees = all(gmp.probable_prime(n) == verdict for n, verdict in _PRIME_CHECK.items())
    except (OSError, AttributeError, ValueError):
        return None
    return gmp if agrees else None


def prime_test() -> Callable[[int], bool] | None:
    """libgmp's Baillie-PSW verdict on an integer n > 0, or None where libgmp is not used.

    It agrees with a base-2 strong test and a Selfridge strong Lucas test
    on every n unless n is a Baillie-PSW pseudoprime: no such n is known,
    and none lies below 2^64.
    """
    gmp = _libgmp()
    return None if gmp is None else gmp.probable_prime


def prime_backend() -> str:
    """The GMP version ``prime_test`` runs on, or "python strong tests"."""
    gmp = _libgmp()
    return "python strong tests" if gmp is None else f"GMP {gmp.version}"
