"""Sequential squaring with succinct proofs, on a toy group and a real one.

First walks the squaring chain in a modulus small enough to print, then
moves to a 512-bit group: how long its safe-prime setup takes, evaluation
versus the trapdoor shortcut, proof verification, tamper rejection, and
batching under one shared prime.  Exits 1 if any printed verdict is not
the expected one.
"""

import random
import sys
import time
from dataclasses import replace

from gputelem import vdf


def verdict(label: str, value, expected=True) -> bool:
    """Print a verdict; True when it is the expected one."""
    print(f"  {label}: {value}")
    return value == expected


def toy_walkthrough() -> bool:
    n, g, t = 1081, 9, 4
    print(f"Toy group N={n}: start at g={g}, square {t} times")
    y = g
    for step in range(1, t + 1):
        y = y * y % n
        print(f"  step {step}: {y}")
    right = verdict(f"eval(g={g}, T={t})", vdf.eval(g, t, n), expected=y)
    print()
    return right


def main() -> int:
    right = [toy_walkthrough()]

    rng = random.Random(21)
    started = time.perf_counter()
    group = vdf.setup_group(512, rng, keep_trapdoor=True)
    setup = time.perf_counter() - started
    n = group.modulus_N
    sid = b"vdf-demo-session"
    delay = 1 << 12

    g = vdf.hash_to_qr(sid, 0, n)
    started = time.perf_counter()
    y = vdf.eval(g, delay, n)
    sequential = time.perf_counter() - started
    started = time.perf_counter()
    y_trap = vdf.trapdoor_eval(g, delay, group)
    shortcut = time.perf_counter() - started
    print(f"512-bit group, T={delay}:")
    print(f"  group setup       {setup * 1e3:8.2f}ms  (two 256-bit safe primes)")
    print(f"  sequential eval   {sequential * 1e3:8.2f}ms")
    print(f"  trapdoor shortcut {shortcut * 1e3:8.2f}ms")
    right.append(verdict("same result", y == y_trap))

    proof = vdf.prove(g, delay, y, n, sid)
    right.append(verdict("proof verifies", vdf.verify(g, delay, proof, n, sid)))
    forged = replace(proof, output_y=(proof.output_y + 1) % n)
    right.append(verdict("forged output rejected", not vdf.verify(g, delay, forged, n, sid)))

    count = 8
    instances = [vdf.derive_instance(sid, i, n, 256, 1024) for i in range(count)]
    outputs = [vdf.trapdoor_eval(inst.generator_g, inst.delay_T, group) for inst in instances]
    batch = vdf.prove_batch(instances, outputs, n, sid)
    primes = {p.challenge_prime for p in batch}
    print()
    print(f"Batch of {count} instances, delays {[i.delay_T for i in instances]}:")
    shared = "shared challenge primes (one transcript binds them all)"
    right.append(verdict(shared, len(primes), expected=1))
    right.append(verdict("batch_verify", vdf.batch_verify(instances, batch, n, sid)))
    tampered = list(batch)
    tampered[3] = replace(batch[3], output_y=(batch[3].output_y + 1) % n)
    after = vdf.batch_verify(instances, tampered, n, sid)
    right.append(verdict("batch_verify after one tampered output", after, expected=False))
    if not all(right):
        print("a verdict above is not the expected one")
    return 0 if all(right) else 1


if __name__ == "__main__":
    sys.exit(main())
