"""Toolkit for deletion/insertion channels: exact combinatorics, decoders,
VT/SVT codes, closed-form error analysis, and a reproducible Monte Carlo
harness."""

from .words import (Word, RunProfile, runs, reconstruct, indel_distance,
                    is_subsequence, is_alternating, is_two_symbol_alternating,
                    parse_word, format_word, check_word)
from .combinatorics import (embedding_number, deletion_ball, insertion_ball,
                            insertion_ball_size, tau_of_space)
from .supersequences import (ScsResult, lcs_length, scs_length,
                             enumerate_scs, enumerate_lcs)
from .channels import (ChannelSpec, ProbTerm, transmit_del, transmit_ins,
                       transmit_kdel, cond_prob_del, cond_prob_ins,
                       cond_prob_kdel, ins_channel_law)
from .decoders import (decode_lazy, decode_en, decode_ml_code,
                       mld_two_del_detailed, mld_two_ins_detailed,
                       objective_f, brute_force_ml_star, ml_star_1del,
                       ml_star_2del, two_del_condition_poly)
from .codes import AllWordsCode, VtCode, SvtCode, DecodeFailure, make_code
from .analysis import (TwoChannelFormulas, two_del_formulas, two_ins_formulas,
                       coded_success_bounds, lazy_and_en_1del_analysis,
                       lazy_1del_law, en1_1del_law)

__version__ = "0.1.0"
