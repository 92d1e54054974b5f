#!/usr/bin/env python3
"""Compare a fresh ``fuse_bench --smoke`` run against the committed baseline.

Usage: compare_bench.py BASELINE_JSON FRESH_SMOKE_JSON

Reads the committed ``BENCH_sim_core.json`` (whose ``smoke_baseline``
section records the same-container ``--smoke`` sweep of the commit that
last touched the perf baseline) and the smoke JSON just produced by CI,
and compares ``runs_per_sec``. CI runners are not the baseline container
and drift run to run, so a deviation beyond the +/-25% band emits a
GitHub Actions ``::warning::`` annotation rather than failing the job —
the point is that a silent core-simulator regression surfaces in the
workflow log on the very push that introduced it.

When the baseline carries a ``profile_baseline`` section and the fresh
run was produced by a ``FUSE_PROF=ON`` build with ``--profile``, the
tracked per-component consult counts are compared too. Smoke counts are
deterministic (single thread, fixed FUSE_FAST budgets), so any drift
means the push changed how often a hot path runs — which is frequently
intentional (that is the point of an optimisation) but should never be
silent. Drift therefore warns, and the fix is to recommit the baseline
with the new counts, stating the delta in the commit message.

Exit status is 0 unless a file is unreadable or structurally wrong
(those are CI configuration bugs and should fail loudly).

``compare_bench.py --self-test`` runs the comparator against synthetic
in-memory reports (count drift, sites missing from the baseline, sites
missing from the fresh run) and exits non-zero on any wrong verdict; CI
invokes it before trusting the real comparison.
"""

import json
import sys

BAND = 0.25


def compare_profile(baseline, fresh):
    """Warn on tracked consult-count drift; return the number of drifts.

    Silently a no-op when the baseline has no profile_baseline section or
    the fresh run has no enabled profile (the default FUSE_PROF=OFF leg).
    """
    base_section = baseline.get("profile_baseline")
    profile = fresh.get("profile")
    if not base_section or not profile or not profile.get("enabled"):
        return 0

    tracked = base_section["counts"]
    # Timer-only sites carry count 0; a tracked counter falling to zero
    # still drifts via the .get(key, 0) default below.
    fresh_counts = {
        f"{site['component']}/{site['name']}": int(site["count"])
        for site in profile["report"]["sites"]
        if int(site["count"]) > 0
    }
    drifted = 0
    for key in sorted(tracked):
        want = int(tracked[key])
        got = fresh_counts.get(key, 0)
        if got == want:
            continue
        drifted += 1
        delta = got - want
        print(f"::warning title=profile consult-count drift::{key}: "
              f"{got} vs committed {want} ({delta:+d}); smoke counts are "
              "deterministic, so this push changed how often the path "
              "runs — if intended, recommit profile_baseline in "
              "BENCH_sim_core.json (fuse_bench --profile --smoke on a "
              "FUSE_PROF=ON build)")
    # The baseline historically only drove the loop above, so a site
    # that existed in the fresh report but not in profile_baseline was
    # mentioned in passing and never escalated. For a component the
    # baseline already tracks, such a site is exactly the kind of silent
    # behaviour change this comparison exists to catch (a new hot path
    # in instrumented code), so it now warns like a drift. Sites of
    # entirely untracked components stay informational: they mean new
    # instrumentation, not changed behaviour of tracked code.
    tracked_components = {key.split("/", 1)[0] for key in tracked}
    new_instrumentation = []
    for key in sorted(set(fresh_counts) - set(tracked)):
        if key.split("/", 1)[0] in tracked_components:
            drifted += 1
            print(f"::warning title=profile site missing from baseline::"
                  f"{key}: {fresh_counts[key]} consults in the fresh run "
                  "but no committed count, although its component is "
                  "tracked — recommit profile_baseline in "
                  "BENCH_sim_core.json (fuse_bench --profile --smoke on "
                  "a FUSE_PROF=ON build)")
        else:
            new_instrumentation.append(key)
    if new_instrumentation:
        print(f"profile: {len(new_instrumentation)} site(s) of untracked "
              "components (new instrumentation?): "
              f"{', '.join(new_instrumentation)}")
    if not drifted:
        print(f"profile: all {len(tracked)} tracked consult counts match "
              "the committed baseline exactly")
    return drifted


def self_test():
    """Exercise compare_profile on synthetic reports; exit 1 on any
    wrong verdict. Keeps CI from trusting a broken comparator."""

    def fresh_with(sites):
        return {"profile": {"enabled": True, "report": {"sites": [
            {"component": c, "name": n, "count": count}
            for (c, n, count) in sites]}}}

    baseline = {"profile_baseline": {"counts": {
        "workload/instructions": 100,
        "workload/batch_generate": 25,
        "l1d/access": 40,
        "mshr/filter_skips": 30,
    }}}
    checks = [
        # (label, fresh sites, expected number of warnings)
        ("exact match is silent",
         [("workload", "instructions", 100),
          ("workload", "batch_generate", 25), ("l1d", "access", 40),
          ("mshr", "filter_skips", 30)], 0),
        ("count drift warns",
         [("workload", "instructions", 101),
          ("workload", "batch_generate", 25), ("l1d", "access", 40),
          ("mshr", "filter_skips", 30)], 1),
        ("tracked site missing from fresh run warns",
         [("workload", "instructions", 100),
          ("workload", "batch_generate", 25),
          ("mshr", "filter_skips", 30)], 1),
        ("fresh site of tracked component missing from baseline warns",
         [("workload", "instructions", 100),
          ("workload", "batch_generate", 25), ("l1d", "access", 40),
          ("mshr", "filter_skips", 30),
          ("workload", "prefetch_refill", 7)], 1),
        ("fresh site of untracked component is informational",
         [("workload", "instructions", 100),
          ("workload", "batch_generate", 25), ("l1d", "access", 40),
          ("mshr", "filter_skips", 30),
          ("noc", "hop", 9)], 0),
        # Presence-filter elision rates are tracked counts like any
        # other: a changed skip count means the gate's behaviour changed
        # and must be recommitted, never silent.
        ("filter-gate skip-count drift warns",
         [("workload", "instructions", 100),
          ("workload", "batch_generate", 25), ("l1d", "access", 40),
          ("mshr", "filter_skips", 29)], 1),
        ("disabled profile is a no-op",
         None, 0),
    ]
    failures = 0
    for label, sites, want in checks:
        fresh = {"profile": {"enabled": False}} if sites is None \
            else fresh_with(sites)
        got = compare_profile(baseline, fresh)
        status = "ok" if got == want else "FAIL"
        if got != want:
            failures += 1
        print(f"self-test [{status}]: {label} "
              f"(warnings: got {got}, want {want})")

    if failures:
        sys.exit(f"compare_bench.py --self-test: {failures} check(s) "
                 "failed")
    print("self-test: all checks passed")
    return 0


def main(argv):
    if len(argv) == 2 and argv[1] == "--self-test":
        return self_test()
    if len(argv) != 3:
        sys.exit(f"usage: {argv[0]} BASELINE_JSON FRESH_SMOKE_JSON "
                 f"| {argv[0]} --self-test")

    with open(argv[1]) as f:
        baseline = json.load(f)
    with open(argv[2]) as f:
        fresh = json.load(f)

    base_section = baseline.get("smoke_baseline")
    if not base_section:
        sys.exit(f"{argv[1]}: no smoke_baseline section — regenerate the "
                 "committed baseline (see README 'Performance')")
    base = float(base_section["runs_per_sec"])
    if not fresh.get("smoke"):
        sys.exit(f"{argv[2]}: not a --smoke run; smoke numbers are only "
                 "comparable to smoke numbers")
    current = float(fresh["sweep"]["runs_per_sec"])
    if base <= 0:
        sys.exit(f"{argv[1]}: non-positive baseline runs_per_sec {base}")

    ratio = current / base
    line = (f"bench smoke: {current:.2f} runs/s vs committed baseline "
            f"{base:.2f} runs/s ({ratio:.2f}x)")
    if fresh.get("profile", {}).get("enabled"):
        # A FUSE_PROF=ON build pays for its counters; its wall time is
        # not comparable to the unprofiled baseline. The profile leg is
        # judged on counts below; the release leg owns the speed band.
        print(f"{line} — speed band skipped (profiled build)")
    elif abs(ratio - 1.0) > BAND:
        direction = "slower" if ratio < 1.0 else "faster"
        print(f"::warning title=fuse_bench smoke outside ±{BAND:.0%} "
              f"band::{line} — {direction} than the committed baseline; "
              "if this push touched the simulation core, re-run "
              "fuse_bench on the baseline container and recommit "
              "BENCH_sim_core.json")
    else:
        print(f"{line} — within the ±{BAND:.0%} band")

    compare_profile(baseline, fresh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
