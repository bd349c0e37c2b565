"""Command-line interface.

Subcommands: simulate (run an experiment config), reproduce-figure,
oracle-check (exhaustive exact verifications), analyze (closed-form grid),
decode (run one decoder on explicit traces).
"""

from __future__ import annotations

import argparse
import csv
import sys
import warnings
from dataclasses import replace
from itertools import product

from .analysis import coded_success_bounds, two_del_formulas, two_ins_formulas
from .codes import AllWordsCode
from .decoders import DECODERS, get_decoder
from .harness import (CSV_FIELDS, FIGURES, ExperimentConfig, reproduce_figure,
                      run_experiment, write_figure_csv, write_figure_svg,
                      write_rows_csv)
from .sweeps import (ENUM_N, WINDOW_N, exact_expected_distance,
                     sweep_brute_force_window, sweep_two_del_condition)
from .words import format_word, parse_word

# the --n each oracle check accepts; a step of n costs emb, scs and mld2
# 6-8x, and at their bounds they took 301, 29 and 143 s on 2 CPUs; 1del
# doubles per step, took 22 s at n = 21 and starts at the laws' n = 2
ORACLE_N = {"1del": range(2, ENUM_N.stop), "2del": WINDOW_N, "emb": range(1, 11),
            "scs": range(1, 8), "mld2": range(1, 9)}
WORKERS_HELP = ("processes per grid point (default: the INDELKIT_WORKERS env "
                "var, else the CPUs this process may use, at most 8)")


def _cmd_simulate(args) -> int:
    with open(args.config) as fh:
        cfg = ExperimentConfig.from_json(fh.read())
    if args.seed is not None:
        cfg = replace(cfg, master_seed=args.seed)
    result = run_experiment(cfg, workers=args.workers)
    write_rows_csv(result.rows(), args.out, CSV_FIELDS)
    for pt in result.points:
        print(f"p={pt.p:<7g} ler={pt.levenshtein_rate:.6g} "
              f"fail={pt.failure_rate:.6g} trials={pt.trials} "
              f"({pt.wall_time:.1f}s)")
    print(f"wrote {args.out}")
    return 0


def _cmd_reproduce(args) -> int:
    rows = reproduce_figure(args.figure, scale=args.scale,
                            workers=args.workers, master_seed=args.seed)
    out = args.out or f"{args.figure}_{args.scale}.csv"
    write_figure_csv(rows, out)
    print(f"wrote {out} ({len(rows)} rows)")
    if args.plot:
        svg = out.rsplit(".", 1)[0] + ".svg"
        write_figure_svg(rows, svg, title=args.figure)
        print(f"wrote {svg}")
    return 0


def _cmd_oracle_check(args) -> int:
    n, sizes = args.n, ORACLE_N[args.which]
    if n not in sizes:  # refused before any work
        raise ValueError(f"oracle-check {args.which} needs {sizes[0]} <= --n "
                         f"<= {sizes[-1]}, not {n}")
    ok = True
    if args.which == "1del":
        for name, dec in DECODERS.items():
            if dec.fast_1del is not None:
                law = dec.fast_1del(n)
                with warnings.catch_warnings():
                    # mlstar1 warns below its proven range n >= 17, once
                    # per output word; the enumeration checks it anyway
                    warnings.filterwarnings(
                        "ignore", "lazy decoding is only proven optimal",
                        UserWarning)
                    enum = exact_expected_distance(name, n, 1,
                                                   method="enumerate")
                print(f"{name} at n={n}: law {law}, enumeration {enum}"
                      f"{'' if law == enum else '  <- MISMATCH'}")
                ok &= law == enum
    elif args.which == "2del":
        res = sweep_two_del_condition(n)
        print(f"n={n}: {len(res['violations'])} closed-form sign violations "
              f"over {res['words']} outputs")
        for v in res["violations"][:12]:
            print(f"  y={format_word(v['y'])} exact_gap={v['gap']} "
                  f"poly={v['poly']}")
        ok &= not res["violations"]
        win = sweep_brute_force_window(n)
        print(f"n={n}: {len(win['length_violations'])} window-length "
              f"violations, {len(win['mismatches'])} unique-minimizer "
              f"mismatches")
        ok &= not win["length_violations"] and not win["mismatches"]
    elif args.which == "emb":
        from . import combinatorics as cb
        bad, lanes_bad = 0, [0, 0]  # lanes mismatches by number of traces
        balls = {}  # (y, t) -> {c: Emb(c; y)} over the c that contain y
        E = cb.embedding_number
        for m in range(0, n + 1):
            for x in product((0, 1), repeat=m):
                for k in range(0, m + 1):
                    for y in product((0, 1), repeat=k):
                        e = cb.embedding_number_bruteforce(x, y)
                        emb = E(x, y)
                        bad += emb != e
                        if e:
                            balls.setdefault((y, m - k), {})[x] = e
                        # pairs beside a trace one symbol shorter: bands
                        # d + 1 and d (band 0 beside 1 where d = 0)
                        cases = [((y,), m, True, x, emb), ((x,), k, False, y, emb),
                                 ((y[1:], y), m, True, x, E(x, y[1:]) * emb),
                                 ((x, x[1:]), k, False, y, emb * E(x[1:], y))]
                        for traces, length, deletion, path, want in cases[:3 + (k < m)]:
                            lanes = cb.EmbeddingLanes(traces, length, deletion, 2)
                            rows = [lanes.first]
                            lanes.extend(rows, path, 0)
                            lanes_bad[len(traces) - 1] += lanes.count(rows[-1]) != want
        print(f"embedding-number DP vs subset enumeration, |x| <= {n}: "
              f"{bad} mismatches")
        print(f"packed embedding lanes (both forms) vs DP, |x| <= {n}: "
              f"{lanes_bad[0]} mismatches")
        print(f"packed embedding lane pairs (both forms) vs DP products, "
              f"|x| <= {n}: {lanes_bad[1]} mismatches")
        ok &= bad == 0 and lanes_bad == [0, 0]
        bad = sum(cb.insertion_ball_weights(y, t, 2) != ball
                  for (y, t), ball in balls.items())
        print(f"weighted insertion ball vs subset enumeration, |y| + t <= {n}: "
              f"{bad} mismatches")
        ok &= bad == 0
        bad = sum(dict(zip(map(tuple, c), w)) != balls[tuple(y), t]
                  for k, t in {(len(y), t) for y, t in balls}  # k + t <= n
                  for lo, cs, ws in cb.insertion_ball_blocks(k, t, range(2 ** k))
                  for y, c, w in zip(cb.binary_words(range(lo, lo + len(cs)), k)
                                     .tolist(), cb.binary_words(cs, k + t).tolist(),
                                     ws.tolist()))
        print(f"insertion ball stream vs subset enumeration, |y| + t <= {n}: "
              f"{bad} mismatches")
        ok &= bad == 0
    elif args.which == "scs":
        from .supersequences import enumerate_scs, scs_length
        from .words import is_subsequence
        bad = pairs = 0
        for m1 in range(0, n + 1):
            for y1 in product((0, 1), repeat=m1):
                for y2 in product((0, 1), repeat=min(n, m1 + 2)):
                    res = enumerate_scs(y1, y2)
                    s = scs_length(y1, y2)
                    brute = {x for x in product((0, 1), repeat=s)
                             if is_subsequence(y1, x) and is_subsequence(y2, x)}
                    pairs += 1
                    if set(res.candidates) != brute:
                        bad += 1
        print(f"SCS enumeration vs brute filter, {pairs} binary pairs with "
              f"|y1| <= {n} and |y2| = min({n}, |y1| + 2): {bad} mismatches")
        ok &= bad == 0
    elif args.which == "mld2":
        from .decoders import (mld_two_del_detailed, mld_two_ins_detailed,
                               mld_two_oracle)
        words = [w for m in range(n + 1) for w in product((0, 1), repeat=m)]
        bad = 0
        for y1 in words:
            for y2 in words:
                for deletion, decode in ((True, mld_two_del_detailed),
                                         (False, mld_two_ins_detailed)):
                    want = mld_two_oracle(y1, y2, deletion)[0], False
                    got = decode(y1, y2)
                    if got != want:
                        bad += 1
                        print(f"  {decode.__name__} y1='{format_word(y1)}' "
                              f"y2='{format_word(y2)}': {got} != {want}")
        print(f"two-trace decoders vs enumerate-then-argmax, "
              f"{len(words) ** 2} binary pairs with |y1|, |y2| <= {n}: "
              f"{bad} mismatches")
        ok &= bad == 0
    print("OK" if ok else "VIOLATIONS FOUND")
    return 0 if ok else 1


def _cmd_analyze(args) -> int:
    rows = []
    for q in args.q:
        for n in args.n:
            for p in args.p:
                d = two_del_formulas(q, p, n)
                i = two_ins_formulas(q, p, n)
                row = {"q": q, "n": n, "p": p,
                       "del_p_run": d.p_run, "del_p_alt": d.p_alt,
                       "del_p_err": d.p_err_approx,
                       "del_success_bound": d.p_fail_bound,
                       "ins_p_run": i.p_run, "ins_p_alt": i.p_alt,
                       "ins_p_err": i.p_err_approx}
                if q == 2:
                    bounds = coded_success_bounds(q, p, n)
                    row.update(vt_success_bound=bounds["vt"],
                               svt_success_bound=bounds["svt"])
                rows.append(row)
    if args.out:
        write_rows_csv(rows, args.out, list(rows[0]))
        print(f"wrote {args.out}")
    else:
        w = csv.DictWriter(sys.stdout, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)
    return 0


def _cmd_decode(args) -> int:
    traces = [parse_word(t) for t in args.traces]
    # the whole space Sigma_q^(|y|+k) of the smallest alphabet (at least
    # binary) holding the traces' symbols: the one a coded decoder searches
    q = max(2, 1 + max(max(y, default=0) for y in traces))
    code = AllWordsCode(len(traces[0]) + args.k, q)
    out, truncated = get_decoder(args.decoder, len(traces)).decode(
        traces, args.k, code)
    if truncated:
        print("warning: the cap on scored candidates was hit with unpruned "
              "candidates left; the output is the best of those scored",
              file=sys.stderr)
    print(format_word(out))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="indelkit",
        description="deletion/insertion channel decoders and experiments")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("simulate", help="run an experiment config JSON")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=None, help=WORKERS_HELP)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("reproduce-figure", help="rebuild one figure's data")
    p.add_argument("figure", choices=list(FIGURES))
    p.add_argument("--scale", choices=["desk", "paper"], default="desk")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--workers", type=int, default=None, help=WORKERS_HELP)
    p.add_argument("--plot", action="store_true", help="also emit an SVG")
    p.set_defaults(fn=_cmd_reproduce)

    p = sub.add_parser("oracle-check", help="exhaustive exact verification")
    p.add_argument("which", choices=list(ORACLE_N))
    p.add_argument("--n", type=int, required=True,
                   help="word length; " + ", ".join(
                       f"{k} {r[0]}..{r[-1]}" for k, r in ORACLE_N.items()))
    p.set_defaults(fn=_cmd_oracle_check)

    p = sub.add_parser("analyze", help="closed-form formula grid to CSV")
    p.add_argument("--q", type=int, nargs="+", default=[2, 4])
    p.add_argument("--n", type=int, nargs="+", default=[150, 450])
    p.add_argument("--p", type=float, nargs="+",
                   default=[0.005, 0.01, 0.02, 0.03, 0.05])
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("decode", help="decode explicit traces")
    p.add_argument("--decoder", required=True,
                   help=" | ".join(DECODERS) + "; en:d grows the output to "
                   "length |y|+d; the mld2* decoders read two traces")
    p.add_argument("--k", type=int, default=2, help="deletions for brute")
    p.add_argument("traces", nargs="+")
    p.set_defaults(fn=_cmd_decode)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:  # bad input or a refusal: one line, exit code 1
        raise SystemExit(str(exc))


if __name__ == "__main__":
    sys.exit(main())
