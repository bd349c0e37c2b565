"""Optimal decoding for channels that delete exactly one or two symbols.

For one deletion over the whole binary space, returning the output
unchanged already minimizes the expected normalized indel distance: any
attempt to reinsert the symbol risks distance 2 instead of a guaranteed 1.
For two deletions the optimal rule stays lazy unless the longest run is
long enough (about (2 - sqrt(2)) n) that prolonging it by one symbol pays.

The closed-form sign condition deciding that branch is checked here
against the exact integer objective; it is right on the bulk of outputs
but provably misses some near-alternating ones (run the acceptance suite
for the full account).
"""

from fractions import Fraction

from indelkit import format_word, parse_word
from indelkit.decoders import (brute_force_ml_star, ml_star_2del,
                               two_del_condition_poly, two_del_lazy_en_gap)
from indelkit.sweeps import exact_expected_distance
from indelkit.words import runs

# Exact expected normalized distances over every codeword and output:
for n in (10, 17, 18):
    lazy = exact_expected_distance("lazy", n, 1)
    en = exact_expected_distance("en:1", n, 1)
    rel = "beats" if en > lazy else "loses to"
    print(f"n={n:>2}: lazy = {lazy} = 1/n, run-prolonging = {en} "
          f"({float(en):.5f}) -> lazy {rel} it")

# The 2-deletion rule in action:
for s in ("010101", "000000", "0011100"):
    y = parse_word(s)
    prof = runs(y)
    poly = two_del_condition_poly(len(y) + 2, prof.r_max, prof.r)
    print(f"\ny = {s}: condition polynomial = {poly} -> "
          f"decode to {format_word(ml_star_2del(y))}")

# Exact objective vs the closed form on a word where they disagree:
y = parse_word("001110")
gap = two_del_lazy_en_gap(y)
prof = runs(y)
poly = two_del_condition_poly(8, prof.r_max, prof.r)
print(f"\ncounterexample y = 001110: polynomial {poly} (keep unchanged) "
      f"but exact gap {gap} (prolonging is strictly better)")
print(f"brute-force optimum: {format_word(brute_force_ml_star(y, 2))}")

# And the alternating outputs where the optimum even leaves the claimed
# length window, extending the alternation to full length:
y = parse_word("010101")
print(f"brute-force optimum for alternating {format_word(y)}: "
      f"{format_word(brute_force_ml_star(y, 2))} "
      f"(length n, not n-2 or n-1)")
