"""Device-class fingerprints woven into the probe data.

Computes the deterministic rounding-drift vector for two simulated
device classes, masks a challenge dataset with each fingerprint, and
shows that a worker masking with the wrong class cannot produce the
digest the challenger expects.
"""

import random

from gputelem.fingerprint import (
    builtin_profiles,
    device_error_vector,
    fingerprint_digest,
    masked_chal_from_seed,
    verify_fingerprint,
)
from gputelem.residency import residency_probe


def main() -> None:
    profiles = builtin_profiles()
    vectors = {}
    for name, profile in sorted(profiles.items()):
        vec = device_error_vector(profile)
        vectors[name] = fingerprint_digest(vec)
        entries = vec.entries
        print(
            f"{name}: {len(entries)} drift entries, "
            f"first three {entries[:3]}, digest {vectors[name].hex()[:16]}..."
        )

    print()
    print("Registry check: each digest verifies only against its own class:")
    for claimed in sorted(vectors):
        row = " ".join(
            f"{expected}={verify_fingerprint(vectors[claimed], profiles[expected])!s:<5}"
            for expected in sorted(vectors)
        )
        print(f"  claimed {claimed:<11} -> {row}")

    rng = random.Random(9)
    seed, nonce = rng.randbytes(16), rng.randbytes(16)
    size, block = 64 << 10, 16 << 10
    print()
    print(f"Probe digests over a {size >> 10} KiB dataset masked per class:")
    digests = {}
    for name, r_gpu in sorted(vectors.items()):
        chal = masked_chal_from_seed(seed, size, block, r_gpu)
        digests[name] = residency_probe(chal, nonce).response_digest
        print(f"  {name:<11} {digests[name].hex()[:32]}...")
    names = sorted(digests)
    match = digests[names[0]] == digests[names[1]]
    print(f"Digests agree across classes: {match}")
    print("The challenger masks with the registered class, so a worker on the")
    print("wrong hardware class fails every probe digest, not just a lookup.")


if __name__ == "__main__":
    main()
