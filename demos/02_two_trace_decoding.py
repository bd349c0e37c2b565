"""Decode a word from two noisy deletion-channel copies.

The decoder walks the DAG of the shortest common supersequences of the
two traces, pruning branches that cannot win, and returns the one
maximizing the product of embedding numbers: the likelihood-maximizing
choice over that candidate set.  The demo lists the first candidates.  The
dominant residual errors are same-run double deletions (the lost symbol is
unrecoverable) and alternating-segment ambiguities (two words explain the
traces equally well).
"""

import numpy as np

from indelkit import (enumerate_scs, embedding_number, format_word,
                      indel_distance, mld_two_del_detailed, transmit_del)
from indelkit.analysis import two_del_formulas

rng = np.random.default_rng(7)
n, p = 60, 0.06
c = tuple(int(s) for s in rng.integers(0, 2, n))
y1 = transmit_del(c, p, np.random.default_rng(1))
y2 = transmit_del(c, p, np.random.default_rng(2))

print(f"sent     {format_word(c)}")
print(f"trace 1  {format_word(y1)}   ({n - len(y1)} deletions)")
print(f"trace 2  {format_word(y2)}   ({n - len(y2)} deletions)")

res = enumerate_scs(y1, y2)
print(f"\n{len(res.candidates)} shortest common supersequences of length "
      f"{res.length}:")
for x in res.candidates[:6]:
    print(f"  {format_word(x)}  product = "
          f"{embedding_number(x, y1) * embedding_number(x, y2)}")

out, _ = mld_two_del_detailed(y1, y2)
print(f"\ndecoded  {format_word(out)}")
print(f"indel distance to the sent word: {indel_distance(out, c)}")

f = two_del_formulas(2, p, n)
print(f"\nclosed-form per-symbol rates at q=2, p={p}: "
      f"run {f.p_run:.2e}, alternating {f.p_alt:.2e}, "
      f"total {f.p_err_approx:.2e}")

# A canonical alternating ambiguity: the two traces below are explained
# equally well by 01 and 10, so half of such events decode wrongly.
print(f"\nalternating tie: traces 0 and 1 decode to "
      f"{format_word(mld_two_del_detailed((0,), (1,))[0])} "
      f"(tie broken to the lexicographically smallest)")
