"""Hash-chained matrix puzzle: solve, verify cheaply, catch a cheat.

The solver walks a hash chain where each step costs one full matrix
product; the verifier replays only the chain hashes and spot-checks the
shipped product with random 0/1 vectors instead of redoing the GEMM.
Exits 1 if a verdict is not the expected one.
"""

import random
import sys
import time

from gputelem.core import hash_bytes
from gputelem.gemm import (
    FIELD_MODULUS,
    GemmParams,
    GemmProof,
    derive_matrices,
    field_matmul,
    freivalds_check,
    solve_gemm_puzzle,
    verify_gemm_puzzle,
)


def main() -> int:
    rng = random.Random(33)
    params = GemmParams(dimension_n=64, difficulty_d=4, freivalds_k=5)
    sid = rng.randbytes(32)

    started = time.perf_counter()
    proof = solve_gemm_puzzle(sid, params)
    solve_ms = (time.perf_counter() - started) * 1e3
    started = time.perf_counter()
    ok = verify_gemm_puzzle(sid, params, proof)
    verify_ms = (time.perf_counter() - started) * 1e3
    print(f"Puzzle n={params.dimension_n}, d={params.difficulty_d}:")
    print(f"  winning chain index j* = {proof.index_jstar}")
    print(f"  solve  {solve_ms:8.1f}ms  (one matmul per chain step)")
    print(f"  verify {verify_ms:8.1f}ms  ({ok}; hashes plus a {params.freivalds_k}-vector Freivalds check)")
    # at d = 0 every digest clears the target, so only the Freivalds
    # check stands between a wrong product and acceptance
    easy = GemmParams(dimension_n=64, difficulty_d=0, freivalds_k=5)
    honest = solve_gemm_puzzle(sid, easy)
    wrong = (honest.product_C + 1) % FIELD_MODULUS
    forged_ok = verify_gemm_puzzle(sid, easy, GemmProof(0, wrong, honest.chain_state_sigma))
    print(f"  wrong product at d=0 rejected: {not forged_ok}")

    print()
    print("Freivalds spot-check against a single corrupted entry (n=32):")
    a, b = derive_matrices(hash_bytes(b"gemm-demo"), 32)
    good = field_matmul(a, b)
    trials = 400
    for k in (1, 2, 5):
        caught = 0
        for t in range(trials):
            bad = good.copy()
            r, c = rng.randrange(32), rng.randrange(32)
            bad[r, c] = (int(bad[r, c]) + 1 + rng.randrange(FIELD_MODULUS - 1)) % FIELD_MODULUS
            if not freivalds_check(a, b, bad, k, random.Random(f"demo:{k}:{t}")):
                caught += 1
        print(
            f"  k={k}: caught {caught}/{trials} "
            f"(escape bound 2^-{k} = {2 ** -k:.4f})"
        )
    print("Each extra round halves the escape probability; k=5 leaves ~3%.")
    return 0 if ok and not forged_ok else 1


if __name__ == "__main__":
    sys.exit(main())
