"""Modular exponentiation on OpenSSL's BIGNUM, or the built-in pow without it.

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
"""

from __future__ import annotations

import ctypes
import ctypes.util
import functools
import re
import threading
import weakref

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
