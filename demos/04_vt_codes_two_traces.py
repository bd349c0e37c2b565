"""VT and shifted-VT codes under the two-trace decoder.

A VT codeword survives any single deletion; under two deletion traces the
code-aware decoder additionally resolves every alternating ambiguity
(only one candidate has the right checksum) and every same-run double
deletion (the merged trace is a single-deletion output, which VT decodes
algebraically).  The shifted variant only keeps the checksum modulo a
small window modulus, enough for alternating ambiguities but not for run
errors.
"""

import numpy as np

from indelkit import format_word, parse_word
from indelkit.codes import SvtCode, VtCode
from indelkit.combinatorics import deletion_ball
from indelkit.decoders import mld_two_del_detailed

code = VtCode(8, 0)
words = code.enumerate_words()
print(f"VT_0(8) has {len(words)} codewords, e.g. "
      f"{', '.join(format_word(w) for w in words[:5])} ...")

c = parse_word("01100110")
assert code.is_member(c)
y = c[:3] + c[4:]  # delete position 3
print(f"\nsent {format_word(c)}, received {format_word(y)}, "
      f"decoded {format_word(code.decode_1del(y))}")

# Two traces, deletions in different runs (an alternating ambiguity):
y1, y2 = c[1:], c[:7]
plain, _ = mld_two_del_detailed(y1, y2)
coded, _ = mld_two_del_detailed(y1, y2, code=code)
print(f"\ntraces {format_word(y1)} / {format_word(y2)}:")
print(f"  unrestricted decoder: {format_word(plain)} "
      f"({'ok' if plain == c else 'wrong'})")
print(f"  VT-aware decoder:     {format_word(coded)} "
      f"({'ok' if coded == c else 'wrong'})")

# Exhaustive check at this size: the VT-aware decoder corrects every
# (single deletion, single deletion) trace pair.
bad = sum(mld_two_del_detailed(u, v, code=code)[0] != w
          for w in words for u in deletion_ball(w, 1) for v in deletion_ball(w, 1))
print(f"\nexhaustive n=8 sweep: {bad} failures over all single-deletion "
      f"trace pairs of all codewords")

svt = SvtCode(8, a=0, b=0)
print(f"\nSVT(8, P={svt.P}) has {len(svt.enumerate_words())} codewords; "
      f"it recovers a deletion whose position is known within "
      f"{svt.P - 1} places:")
c = next(w for w in svt.enumerate_words() if len(set(w)) > 1)
y = c[1:]
print(f"  sent {format_word(c)}, deleted position 0, window [0, {svt.P - 1}) "
      f"-> {format_word(svt.decode_1del(y, 0))}")
