"""Modular exponentiation on OpenSSL's BIGNUM, or the built-in pow without it.

A 512-bit modular squaring costs about 1.8 us in CPython's pow, which
has no Montgomery multiplication, and 0.15 us in libcrypto's BN_mod_exp.
libcrypto loads once, on first use, by the versioned soname find_library
reports (libcrypto.so.N): macOS aborts a process that loads an
unversioned one.  If a symbol is missing or the library disagrees with
pow on a fixed input, modexp is pow: the same integers, only slower.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import functools
import re

_P = ctypes.c_void_p
_SIGNATURES = {
    "BN_CTX_new": (_P, []),
    "BN_CTX_free": (None, [_P]),
    "BN_new": (_P, []),
    "BN_free": (None, [_P]),
    "BN_bin2bn": (_P, [ctypes.c_char_p, ctypes.c_int, _P]),
    "BN_bn2binpad": (ctypes.c_int, [_P, ctypes.c_char_p, ctypes.c_int]),
    "BN_mod_exp": (ctypes.c_int, [_P, _P, _P, _P, _P]),
    "OpenSSL_version": (ctypes.c_char_p, [ctypes.c_int]),
}
# a 508-bit base, a 511-bit odd modulus and a 301-bit exponent
_CHECK = (3**320, 5**220 + 2, 7**107)


def _bn_mod_exp(lib: ctypes.CDLL, base: int, exp: int, mod: int) -> int:
    """base^exp mod mod through BN_mod_exp, on BIGNUMs and a BN_CTX of this call's own.

    Threads may therefore call it at once; ctypes drops the GIL meanwhile.
    """
    size = (mod.bit_length() + 7) // 8
    ctx = lib.BN_CTX_new()
    nums = []
    try:
        for value in (base, exp, mod):
            raw = value.to_bytes((value.bit_length() + 7) // 8, "big")
            nums.append(lib.BN_bin2bn(raw, len(raw), None))
        nums.append(lib.BN_new())
        if not ctx or not all(nums):
            raise MemoryError("BN_CTX or BIGNUM allocation failed")
        if not lib.BN_mod_exp(nums[3], *nums[:3], ctx):
            raise ArithmeticError("BN_mod_exp failed")
        out = ctypes.create_string_buffer(size)
        if lib.BN_bn2binpad(nums[3], out, size) != size:
            raise ArithmeticError("BN_mod_exp result wider than its modulus")
        return int.from_bytes(out.raw, "big")
    finally:
        for bn in nums:
            lib.BN_free(bn)  # both frees are no-ops on a failed (NULL) allocation
        lib.BN_CTX_free(ctx)


@functools.cache
def _libcrypto() -> ctypes.CDLL | None:
    """libcrypto with every function used declared, or None where it cannot be used."""
    name = ctypes.util.find_library("crypto")
    if name is None or not re.fullmatch(r"libcrypto\.so\.\d+", name):
        return None
    try:
        lib = ctypes.CDLL(name)
        for symbol, (restype, argtypes) in _SIGNATURES.items():
            function = getattr(lib, symbol)
            function.restype, function.argtypes = restype, argtypes
        agrees = _bn_mod_exp(lib, *_CHECK) == pow(*_CHECK)
    except (OSError, AttributeError, MemoryError, ArithmeticError):
        return None
    return lib if agrees else None


def modexp(base: int, exp: int, mod: int) -> int:
    """pow(base, exp, mod) for base, exp >= 0 and odd mod >= 3; in libcrypto if it loaded."""
    lib = _libcrypto()
    return pow(base, exp, mod) if lib is None else _bn_mod_exp(lib, base, exp, mod)


def backend() -> str:
    """The OpenSSL version string modexp runs on, or "builtin pow"."""
    lib = _libcrypto()
    return "builtin pow" if lib is None else lib.OpenSSL_version(0).decode()
