#!/usr/bin/env python3
"""Compare a fresh ``fuse_sweep --profile-out`` document against the
committed consult counts in ``tools/ci/profile_baseline.json``.

Usage: compare_profile.py BASELINE_JSON FRESH_PROFILE_JSON
       compare_profile.py --self-test

The fresh document comes from ``FUSE_FAST=1 fuse_sweep --figure fig13
--benchmarks ATAX,BICG --quiet --profile-out F`` on a ``FUSE_PROF=ON``
build. Its counts are deterministic at any ``--threads`` value, so any
drift means the push changed how often a hot path runs. That is often
the point of an optimisation, but it should never be silent: drift emits
a GitHub Actions ``::warning::``, and the fix is to recommit the
baseline with the new counts, stating the delta in the commit message.

Exit status is 0 unless a file is unreadable or structurally wrong, or
the document profiles another grid (CI configuration bugs, which fail
loudly). A ``FUSE_PROF=OFF`` document has no counts to compare.
``--self-test`` checks the verdicts on synthetic documents and exits
non-zero on any wrong one; CI runs it before the real comparison.
"""

import json
import sys

RECOMMIT = ("recommit tools/ci/profile_baseline.json (fuse_sweep "
            "--profile-out on a FUSE_PROF=ON build; see its note)")


def compare_profile(baseline, fresh):
    """Warn on tracked consult-count drift; return the number of drifts.

    Silently a no-op when the fresh document comes from a FUSE_PROF=OFF
    build (no counts to compare).
    """
    if not fresh.get("prof_enabled"):
        return 0

    tracked = baseline["counts"]
    # A tracked count that vanished from the fresh run drifts via the
    # .get(key, 0) default below.
    fresh_counts = {
        f"{site['component']}/{site['name']}": int(site["count"])
        for site in fresh["profile"]["sites"]
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
              f"{got} vs committed {want} ({delta:+d}); the counts are "
              "deterministic, so this push changed how often the path "
              f"runs — if intended, {RECOMMIT}")
    # A fresh site of a component the baseline already tracks is exactly
    # the kind of silent behaviour change this comparison exists to
    # catch (a new hot path in instrumented code), so it warns like a
    # drift. Sites of entirely untracked components stay informational:
    # they mean new instrumentation, not changed behaviour of tracked
    # code.
    tracked_components = {key.split("/", 1)[0] for key in tracked}
    new_instrumentation = []
    for key in sorted(set(fresh_counts) - set(tracked)):
        if key.split("/", 1)[0] in tracked_components:
            drifted += 1
            print(f"::warning title=profile site missing from baseline::"
                  f"{key}: {fresh_counts[key]} consults in the fresh run "
                  "but no committed count, although its component is "
                  f"tracked — {RECOMMIT}")
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
    """Exercise compare_profile on synthetic documents; exit 1 on any
    wrong verdict. Keeps CI from trusting a broken comparator."""

    def fresh_with(sites):
        return {"prof_enabled": True, "profile": {"sites": [
            {"component": c, "name": n, "count": count}
            for (c, n, count) in sites]}}

    baseline = {"counts": {
        "workload/instructions": 100,
        "workload/batch_generate": 25,
        "l1d/access": 40,
        "mshr/filter_skips": 30,
    }}
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
        fresh = {"prof_enabled": False, "profile": {"sites": []}} \
            if sites is None else fresh_with(sites)
        got = compare_profile(baseline, fresh)
        status = "ok" if got == want else "FAIL"
        if got != want:
            failures += 1
        print(f"self-test [{status}]: {label} "
              f"(warnings: got {got}, want {want})")

    if failures:
        sys.exit(f"compare_profile.py --self-test: {failures} check(s) "
                 "failed")
    print("self-test: all checks passed")
    return 0


def main(argv):
    if len(argv) == 2 and argv[1] == "--self-test":
        return self_test()
    if len(argv) != 3:
        sys.exit(f"usage: {argv[0]} BASELINE_JSON FRESH_PROFILE_JSON "
                 f"| {argv[0]} --self-test")

    with open(argv[1]) as f:
        baseline = json.load(f)
    with open(argv[2]) as f:
        fresh = json.load(f)

    if not baseline.get("counts"):
        sys.exit(f"{argv[1]}: no counts section")
    if "prof_enabled" not in fresh or "sites" not in fresh.get("profile",
                                                               {}):
        sys.exit(f"{argv[2]}: not a fuse_sweep --profile-out document")
    # Counts are only comparable over the same grid: a different figure,
    # or cells served from a --store, simulate a different run count.
    grid = (fresh.get("experiment"), fresh["profile"].get("runs"))
    want = (baseline.get("figure"), baseline.get("runs"))
    if grid != want:
        sys.exit(f"{argv[2]}: profiles {grid[1]} simulated {grid[0]} "
                 f"runs; the baseline tracks {want[1]} {want[0]} runs")

    if not fresh["prof_enabled"]:
        print("profile: FUSE_PROF=OFF build, no counts to compare")
    compare_profile(baseline, fresh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
