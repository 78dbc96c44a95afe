#!/usr/bin/env python3
"""SLO regression smoke for the CAKE serving scheduler.

Runs the gen_workload acceptance shape twice over the same seed --
once under `sched=fifo`, once under `sched=cake` -- and asserts the
properties the scheduler exists to provide:

  1. both runs satisfy the serving accounting identities
     (offered == completed + shed, etc.);
  2. cake's p99 latency is no worse than fifo's (at acceptance scale
     it is >= 2x better; this smoke only guards the direction so a
     scaled-down CI run stays robust);
  3. cake sheds no more than fifo;
  4. cake's deficit ledger conserves exactly:
     charged == refunded + executed (mod 2^64);
  5. a cake rerun is bit-identical, and invariant under
     HYDRA_THREADS=1 vs 4 (virtual time never depends on host
     parallelism);
  6. the cake leg records starvation kicks, so the shape keeps
     exercising the kick sweep under a deep queue (about 7k kicks at
     --duration 2000).

It then runs the DESIGN.md 16 compile-level A/B: the BERT-heavy cake
mix (two under-provisioned bert groups under closed-loop pressure)
served once with the default Safe per-step plans and once with
`opt=aggressive` ExecPlans, asserting that the aggressive leg's p99
is no worse than safe's, that its deficit ledger still conserves
exactly, and that the aggressive run is bit-identical across reruns
and HYDRA_THREADS=1 vs 4.

Usage: slo_bench.py PATH/TO/serve_cluster [--duration N]
                    [--per-block N] [--machine M] [--json OUT]

The default --duration 2000 keeps the full 10k-tenant overload shape
(so the p99 comparison is exercised under real queueing pressure) at
about a second of wall time per leg; pass --duration 140000 for the
full >=1M-request acceptance comparison.  Both legs replay fault-free
jobs from the JobCache, so neither executes every job for real.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from gen_workload import make_spec  # noqa: E402


def run_once(binary, machine, serve, threads=4):
    cmd = [binary, "--machine", machine, "--serve", serve, "--json"]
    env = dict(os.environ, HYDRA_THREADS=str(threads))
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise SystemExit("CRASH (exit %d):\n%s"
                         % (proc.returncode, proc.stderr))
    return json.loads(proc.stdout)


def check_accounting(st, label):
    if st["offered"] != st["completed"] + st["shed"]["total"]:
        raise SystemExit("%s: offered %d != completed %d + shed %d"
                         % (label, st["offered"], st["completed"],
                            st["shed"]["total"]))
    fed = st["federation"]
    if st["admitted"] != st["completed"] + fed["shed_after_admit"]:
        raise SystemExit("%s: admitted %d != completed %d "
                         "+ shed_after_admit %d"
                         % (label, st["admitted"], st["completed"],
                            fed["shed_after_admit"]))


def check_ledger(st, label):
    k = st["cake"]
    if k["charged_ticks"] != (k["refunded_ticks"] +
                              k["executed_ticks"]) % (1 << 64):
        raise SystemExit("%s: deficit ledger broken: charged %d != "
                         "refunded %d + executed %d (mod 2^64)"
                         % (label, k["charged_ticks"],
                            k["refunded_ticks"], k["executed_ticks"]))


def bert_spec(duration):
    """The BERT-heavy cake mix, duration-scaled: two 4-card bert groups
    serving one closed-loop client (60 s think time) and an open-loop
    tenant at 0.012 requests/s."""
    return ("seed=11,duration=%d,sched=cake,queue=256,"
            "group=bert:4,group=bert:4,"
            "tenant=nlp:closed:bert:1:60,"
            "tenant=burst:open:bert:0.012" % duration)


def aggressive_ab(binary, machine, duration):
    """Safe vs opt=aggressive over the BERT-heavy mix."""
    base = bert_spec(duration)
    safe = run_once(binary, machine, base)
    aggr = run_once(binary, machine, "opt=aggressive," + base)
    check_accounting(safe, "bert-safe")
    check_accounting(aggr, "bert-aggressive")
    check_ledger(safe, "bert-safe")
    check_ledger(aggr, "bert-aggressive")

    s99 = safe["latency_ms"]["p99"]
    a99 = aggr["latency_ms"]["p99"]
    if a99 > s99:
        raise SystemExit("compile regression: aggressive p99 %.1f ms "
                         "> safe p99 %.1f ms" % (a99, s99))

    rerun = run_once(binary, machine, "opt=aggressive," + base)
    if aggr["hash"] != rerun["hash"]:
        raise SystemExit("aggressive rerun hash diverged: %s vs %s"
                         % (aggr["hash"], rerun["hash"]))
    serial = run_once(binary, machine, "opt=aggressive," + base,
                      threads=1)
    if aggr["hash"] != serial["hash"]:
        raise SystemExit("aggressive HYDRA_THREADS=1 vs 4 hash "
                         "diverged: %s vs %s"
                         % (aggr["hash"], serial["hash"]))
    return {
        "safe": {"completed": safe["completed"],
                 "p99_ms": s99,
                 "hash": safe["hash"]},
        "aggressive": {"completed": aggr["completed"],
                       "p99_ms": a99,
                       "hash": aggr["hash"]},
        "p99_improvement": s99 / a99 if a99 > 0 else 0.0,
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("binary", help="path to the serve_cluster binary")
    ap.add_argument("--machine", default="hydra-m")
    ap.add_argument("--duration", type=int, default=2000)
    ap.add_argument("--per-block", type=int, default=400)
    ap.add_argument("--json", default=None,
                    help="write the A/B summary to this path")
    ap.add_argument("--bert-duration", type=int, default=4000,
                    help="duration of the opt=aggressive BERT-heavy "
                         "A/B legs (0 skips them)")
    args = ap.parse_args()

    base = make_spec(duration=args.duration,
                     per_block=args.per_block)
    fifo = run_once(args.binary, args.machine, "sched=fifo," + base)
    cake = run_once(args.binary, args.machine, "sched=cake," + base)
    check_accounting(fifo, "fifo")
    check_accounting(cake, "cake")

    f99 = fifo["latency_ms"]["p99"]
    c99 = cake["latency_ms"]["p99"]
    if c99 > f99:
        raise SystemExit("SLO regression: cake p99 %.1f ms > fifo "
                         "p99 %.1f ms" % (c99, f99))
    if cake["shed"]["total"] > fifo["shed"]["total"]:
        raise SystemExit("SLO regression: cake shed %d > fifo shed %d"
                         % (cake["shed"]["total"],
                            fifo["shed"]["total"]))

    check_ledger(cake, "cake")
    k = cake["cake"]
    if k["kicks"] == 0:
        raise SystemExit("cake recorded no starvation kicks: the shape "
                         "no longer exercises the kick sweep")

    rerun = run_once(args.binary, args.machine, "sched=cake," + base)
    if cake["hash"] != rerun["hash"]:
        raise SystemExit("cake rerun hash diverged: %s vs %s"
                         % (cake["hash"], rerun["hash"]))
    serial = run_once(args.binary, args.machine, "sched=cake," + base,
                      threads=1)
    if cake["hash"] != serial["hash"]:
        raise SystemExit("HYDRA_THREADS=1 vs 4 hash diverged: %s vs %s"
                         % (cake["hash"], serial["hash"]))

    summary = {
        "duration_s": args.duration,
        "tenants": 25 * args.per_block + 8,
        "fifo": {"offered": fifo["offered"],
                 "completed": fifo["completed"],
                 "shed": fifo["shed"]["total"],
                 "p50_ms": fifo["latency_ms"]["p50"],
                 "p99_ms": f99,
                 "hash": fifo["hash"]},
        "cake": {"offered": cake["offered"],
                 "completed": cake["completed"],
                 "shed": cake["shed"]["total"],
                 "p50_ms": cake["latency_ms"]["p50"],
                 "p99_ms": c99,
                 "preemptions": k["preemptions"],
                 "steals": k["steals"],
                 "kicks": k["kicks"],
                 "hash": cake["hash"]},
        "p99_improvement": f99 / c99 if c99 > 0 else 0.0,
    }
    print("slo bench ok: fifo p99 %.1f ms -> cake p99 %.1f ms "
          "(%.2fx), shed %d -> %d, cake hash %s stable"
          % (f99, c99, summary["p99_improvement"],
             fifo["shed"]["total"], cake["shed"]["total"],
             cake["hash"]))

    if args.bert_duration > 0:
        bert = aggressive_ab(args.binary, args.machine,
                             args.bert_duration)
        summary["bert_heavy"] = bert
        print("aggressive ok: safe p99 %.1f ms -> aggressive p99 "
              "%.1f ms (%.2fx), aggressive hash %s stable"
              % (bert["safe"]["p99_ms"],
                 bert["aggressive"]["p99_ms"],
                 bert["p99_improvement"],
                 bert["aggressive"]["hash"]))

    if args.json:
        with open(args.json, "w") as out:
            json.dump(summary, out, indent=1)


if __name__ == "__main__":
    main()
