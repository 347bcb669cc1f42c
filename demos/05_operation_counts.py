"""Profile the decoder in field operations rather than wall time.

Every extension-field multiplication and inversion performed inside an
active OpCount context is tallied.  For q = 2 and a received dimension
d >= 5 a pair step is a linearized Koetter interpolation over the d
rows, about d^2 ext ops; with d about k a pair costs about k^2 ext ops,
two factors of k below the paper's O((n-k)k^3) bound per decode.  For
odd q, or d <= 4, it is one Welch-Berlekamp solve, forward elimination
of a d-by-(2t+2) system with t = floor((d-1)/2), about d^3/3 ext ops.
The r-block decode adds one pair step per nonzero block, linear in
n - k.
"""

from spreadcodes import OpCount, SpreadCode, decode
from spreadcodes.channel import ChannelSpec, corrupt, random_codeword, trial_rng


def mean_ops(q, k, r, trials=10, seed=1, erasures=1, errors=0):
    code = SpreadCode(q, k, r)
    total = 0
    for t in range(trials):
        rng = trial_rng(seed, k, r, t)
        cw = random_codeword(code, rng)
        received = corrupt(cw, ChannelSpec(erasures=erasures, errors=errors),
                           code, rng)
        with OpCount() as counter:
            assert decode(received, code).codeword == cw
        total += counter.ext_total
    return total / trials


print("pairwise decode, one erasure, q = 2:")
print("k    ext ops   ratio to previous")
prev = None
for k in (3, 5, 7, 9):
    ops = mean_ops(2, k, 2)
    ratio = "" if prev is None else f"{ops / prev:.2f}"
    print(f"{k:<4} {ops:<9.0f} {ratio}")
    prev = ops

print("\nnear the radius, (k-1)//2 erasures and as many errors (one fewer"
      " for odd k), q = 2, r = 2;")
print("the paper bounds a decode by O((n-k)k^3), here k^3 for one pair;")
print("the interpolation stays near k^2 per pair:")
print("k    ext ops   ext ops / k^2   ext ops / k^3")
for k in (9, 16, 24, 32):
    eps = (k - 1) // 2
    ops = mean_ops(2, k, 2, trials=4, erasures=eps, errors=eps - k % 2)
    print(f"{k:<4} {ops:<9.0f} {ops / k ** 2:<15.2f} {ops / k ** 3:.3f}")

print("\nfixed k = 3, growing block count:")
print("r    n-k   ext ops")
for r in (2, 4, 8):
    print(f"{r:<4} {(r - 1) * 3:<5} {mean_ops(2, 3, r):.0f}")

print("\nbase-field and extension-field work are tallied separately:")
code = SpreadCode(2, 5, 2)
rng = trial_rng(3)
cw = random_codeword(code, rng)
received = corrupt(cw, ChannelSpec(erasures=1, errors=1), code, rng)
with OpCount() as counter:
    decode(received, code)
print(f"    {counter!r}")
