"""Shared fixtures (RSA groups are expensive, so build them once) and the report header."""

import random

import pytest

from gputelem import _bignum, vdf


@pytest.fixture(scope="session")
def rsa_group():
    """512-bit trapdoor group; one honest setup reused across the suite."""
    return vdf.setup_group(512, random.Random(0xBEEF), keep_trapdoor=True)


@pytest.fixture(scope="session")
def tiny_group():
    """N = 1081 = 23 * 47, both safe primes (11, 23 Sophie Germain)."""
    return vdf.GroupParams(
        modulus_N=1081, trapdoor=(23, 47, 11 * 23)
    )


def pytest_report_header(config):
    """Name the backends the vdf exponentiations and primality tests of this run execute on."""
    return [
        f"vdf modexp backend: {_bignum.backend()}",
        f"vdf primality backend: {_bignum.prime_backend()}",
    ]
