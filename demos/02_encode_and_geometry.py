"""Encode projective points and explore the subspace geometry.

Codewords are indexed by points of the projective line over F_(q^k)
(for r = 2).  Distinct codewords intersect trivially, so together they
partition the nonzero vectors of the ambient space, and any two sit at
the maximum possible subspace distance 2k.
"""

import itertools

from spreadcodes import SpreadCode, subspace_distance

code = SpreadCode(q=2, k=2, r=2)
ext = code.ext

print("the", code.size, "codewords of the smallest spread code:")
for cw in code.codeword_list():
    coords = " : ".join(ext.to_str(v) for v in cw.point)
    rows = ["".join(str(x) for x in row) for row in cw.subspace.basis.data]
    print(f"    [{coords}]  basis rows {rows}")

print("\npairwise distances (always 2k = 4):")
for a, b in itertools.combinations(code.codeword_list(), 2):
    d = subspace_distance(a.subspace, b.subspace)
    assert d == 4
print("    checked", code.size * (code.size - 1) // 2, "pairs")

print("\nevery nonzero vector of F_2^4 lies in exactly one codeword:")
counts = {}
for v in itertools.product(range(2), repeat=code.n):
    if any(v):
        owners = [i for i, cw in enumerate(code.codeword_list())
                  if cw.subspace.contains(v)]
        assert len(owners) == 1
        counts[owners[0]] = counts.get(owners[0], 0) + 1
print("    vectors per codeword:", counts, "(q^k - 1 = 3 each)")

print("\nmembership testing works on arbitrary subspaces:")
member = code.encode((ext.one, code.alpha)).subspace
print("    encoded point is a codeword:", code.is_codeword(member))
