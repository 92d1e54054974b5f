/**
 * @file
 * fuse_bench: the simulation-core performance harness. Times (a) single
 * Simulator::run calls over a representative (benchmark, organisation)
 * matrix and (b) a full SweepRunner sweep of a paper figure's grid, then
 * emits BENCH_sim_core.json so the repository's perf trajectory is
 * measured on every PR instead of assumed.
 *
 * Usage:
 *   fuse_bench [--figure NAME] [--threads N] [--repeat N]
 *              [--out FILE] [--smoke] [--profile]
 *
 *   --figure NAME  sweep grid to time (default: fig13, the headline IPC
 *                  grid — every organisation x every workload)
 *   --threads N    sweep worker threads (default: 1 so runs/sec measures
 *                  the core, not the pool; FUSE_THREADS still wins)
 *   --repeat N     best-of-N for the single-run section (default: 3)
 *   --out FILE     output path (default: BENCH_sim_core.json)
 *   --smoke        CI mode: FUSE_FAST budgets and a two-benchmark grid,
 *                  so the step costs seconds while still tracking the
 *                  same code paths
 *   --profile      append the sweep's exact per-component profiling
 *                  attribution (src/prof) as a "profile" section: event
 *                  counts, exclusive wall time, derived per-run rates.
 *                  Needs a FUSE_PROF=ON build for non-empty counts.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/log.hh"
#include "exp/figures.hh"
#include "exp/sweep_runner.hh"
#include "prof/prof.hh"
#include "sim/simulator.hh"

namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

struct SingleRun
{
    std::string benchmark;
    fuse::L1DKind kind;
    double wallMs = 0.0;
    double cycles = 0.0;
    double cyclesPerSec = 0.0;
};

void
usage()
{
    std::printf(
        "usage: fuse_bench [options]\n"
        "  --figure NAME  figure grid to sweep (default: fig13)\n"
        "  --threads N    sweep worker threads, N >= 1 (default: 1)\n"
        "  --repeat N     best-of-N single-run timing (default: 3)\n"
        "  --out FILE     output JSON path (default: BENCH_sim_core.json)\n"
        "  --smoke        small CI grid with FUSE_FAST budgets\n"
        "  --profile      emit the sweep's exact profiling attribution\n"
        "                 (counts are non-zero only in FUSE_PROF=ON "
        "builds)\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string figure = "fig13";
    std::string out_path = "BENCH_sim_core.json";
    bool threads_set = false;
    unsigned threads = 1;
    int repeat = 3;
    bool smoke = false;
    bool profile = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fuse_fatal("%s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--figure") {
            figure = value();
        } else if (arg == "--threads") {
            // Strict: 0, negatives, and garbage are user errors, not
            // silent clamps (strtoul would wrap "-1" into a huge pool).
            threads = fuse::parseThreadCount("--threads", value().c_str());
            threads_set = true;
        } else if (arg == "--repeat") {
            repeat = static_cast<int>(
                fuse::parseCount("--repeat", value().c_str()));
        } else if (arg == "--out") {
            out_path = value();
        } else if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--profile") {
            profile = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            usage();
            fuse_fatal("unknown option '%s'", arg.c_str());
        }
    }

    if (smoke) {
        // Must precede the first SimConfig preset: budgets read the
        // environment lazily.
        setenv("FUSE_FAST", "1", /*overwrite=*/1);
    }
    // Without an explicit --threads, FUSE_THREADS wins over the 1-thread
    // default: pass 0 so SweepRunner resolves the environment.
    if (!threads_set && std::getenv("FUSE_THREADS"))
        threads = 0;

    const fuse::Figure *fig = fuse::findFigure(figure);
    if (!fig)
        fuse_fatal("unknown figure '%s'", figure.c_str());
    fuse::ExperimentSpec spec = fig->makeSpec();
    if (smoke) {
        spec.benchmarks.clear();
        for (const char *b : {"ATAX", "BICG"})
            spec.benchmarks.push_back(b);
    }

    // ---- Section 1: single Simulator::run calls (the inner loop one
    // orchestrated experiment pays thousands of times). Representative
    // corners: the SRAM baseline, the blocking hybrid, and the full
    // Dy-FUSE stack, on the spec's first two workloads.
    std::vector<SingleRun> singles;
    {
        const fuse::SimConfig config = spec.configFor(0);
        std::vector<std::string> benchmarks(
            spec.benchmarks.begin(),
            spec.benchmarks.begin()
                + std::min<std::size_t>(2, spec.benchmarks.size()));
        const fuse::L1DKind kinds[] = {fuse::L1DKind::L1Sram,
                                       fuse::L1DKind::Hybrid,
                                       fuse::L1DKind::DyFuse};
        fuse::Simulator sim(config);
        for (const auto &benchmark : benchmarks) {
            for (fuse::L1DKind kind : kinds) {
                SingleRun s;
                s.benchmark = benchmark;
                s.kind = kind;
                s.wallMs = -1.0;
                for (int r = 0; r < repeat; ++r) {
                    const auto start = Clock::now();
                    fuse::Metrics m = sim.run(benchmark, kind);
                    const double ms = msSince(start);
                    if (s.wallMs < 0.0 || ms < s.wallMs) {
                        s.wallMs = ms;
                        s.cycles = static_cast<double>(m.cycles);
                    }
                }
                s.cyclesPerSec =
                    s.wallMs > 0.0 ? s.cycles / (s.wallMs / 1000.0) : 0.0;
                std::fprintf(stderr,
                             "single %-6s %-9s %8.1f ms  %.3g cycles/s\n",
                             s.benchmark.c_str(), toString(s.kind),
                             s.wallMs, s.cyclesPerSec);
                singles.push_back(s);
            }
        }
    }

    // ---- Section 2: the full sweep grid through SweepRunner (what a
    // perf regression would slow down for every figure reproduction).
    fuse::SweepRunner runner(threads);
    std::fprintf(stderr, "sweep %s: %zu runs on %u threads...\n",
                 spec.name.c_str(), spec.runCount(), runner.threads());
    if (profile && !fuse::prof::enabled())
        std::fprintf(stderr,
                     "warning: --profile on a FUSE_PROF=OFF build — "
                     "counts will be zero (rebuild with -DFUSE_PROF=ON)\n");
    // Attribute the profile to the sweep alone: diff against a snapshot
    // taken after the single-run section has already polluted the
    // counters.
    const fuse::prof::ProfileReport prof_before = fuse::prof::snapshot();
    const auto sweep_start = Clock::now();
    fuse::ResultSet results = runner.run(spec);
    const double sweep_ms = msSince(sweep_start);
    const fuse::prof::ProfileReport prof_report =
        fuse::prof::snapshot().diffSince(prof_before);

    double total_cycles = 0.0;
    std::size_t valid_runs = 0;
    for (const auto &run : results.runs()) {
        if (!run.valid)
            continue;
        ++valid_runs;
        total_cycles += static_cast<double>(run.metrics.cycles);
    }
    const double sweep_s = sweep_ms / 1000.0;
    const double runs_per_sec =
        sweep_s > 0.0 ? static_cast<double>(valid_runs) / sweep_s : 0.0;
    const double cycles_per_sec =
        sweep_s > 0.0 ? total_cycles / sweep_s : 0.0;

    std::fprintf(stderr,
                 "sweep %s: %zu runs, %.1f ms, %.3f runs/s, %.3g cycles/s\n",
                 spec.name.c_str(), valid_runs, sweep_ms, runs_per_sec,
                 cycles_per_sec);

    // Residency resolutions: one TagArray::lookup per bank consult, the
    // exact count the single-probe pipeline was validated against with a
    // hand-inserted temporary counter (209.3M on the full fig13 grid).
    // The per-level split — L1D demand/fill vs L2 — is in the site list.
    const std::uint64_t resolutions =
        prof_report.count("tag_array", "lookups");
    if (profile) {
        std::fprintf(stderr,
                     "profile: %.1fM residency resolutions over %zu runs "
                     "(L1D demand %.1fM + L1D fill %.1fM + L2 %.1fM)\n",
                     static_cast<double>(resolutions) / 1e6, valid_runs,
                     static_cast<double>(prof_report.count(
                         "l1d_bank", "demand_resolutions")) / 1e6,
                     static_cast<double>(prof_report.count(
                         "l1d_bank", "fill_resolutions")) / 1e6,
                     static_cast<double>(prof_report.count(
                         "l2", "bank_accesses")) / 1e6);
        // Heaviest first: exclusive wall time, then event count, then
        // name as the deterministic tiebreak (counter-only sites have no
        // timed scopes and sort below every timed one).
        std::vector<const fuse::prof::SiteSample *> ordered;
        ordered.reserve(prof_report.sites.size());
        for (const auto &s : prof_report.sites)
            ordered.push_back(&s);
        std::sort(ordered.begin(), ordered.end(),
                  [](const fuse::prof::SiteSample *a,
                     const fuse::prof::SiteSample *b) {
                      if (a->exclusiveNs != b->exclusiveNs)
                          return a->exclusiveNs > b->exclusiveNs;
                      if (a->count != b->count)
                          return a->count > b->count;
                      if (a->component != b->component)
                          return a->component < b->component;
                      return a->name < b->name;
                  });
        for (const auto *s : ordered) {
            std::fprintf(stderr, "profile: %-24s %12llu",
                         (s->component + "/" + s->name).c_str(),
                         static_cast<unsigned long long>(s->count));
            if (s->timedScopes)
                std::fprintf(stderr, "  %10.1f ms excl",
                             static_cast<double>(s->exclusiveNs) / 1e6);
            std::fprintf(stderr, "\n");
        }
        // Elision rate of each presence-filter-gated consult site:
        // skipped = answered "definitely absent" without touching the
        // gated structure; the remainder are actual consults.
        const struct
        {
            const char *label;
            const char *component;
            const char *total;
            const char *skips;
            const char *consulted;
        } gates[] = {
            {"mshr entry file", "mshr", "probes", "filter_skips",
             "map consults"},
            {"sram tag array", "l1d_sram", "lookups", "filter_skips",
             "tag consults"},
        };
        for (const auto &g : gates) {
            const std::uint64_t total =
                prof_report.count(g.component, g.total);
            if (!total)
                continue;
            const std::uint64_t skips =
                prof_report.count(g.component, g.skips);
            std::fprintf(stderr,
                         "profile: filter %-17s %.1fM gated, %.1fM skipped "
                         "(%.1f%%), %.1fM %s\n",
                         g.label, static_cast<double>(total) / 1e6,
                         static_cast<double>(skips) / 1e6,
                         100.0 * static_cast<double>(skips) /
                             static_cast<double>(total),
                         static_cast<double>(total - skips) / 1e6,
                         g.consulted);
        }
    }

    std::ofstream os(out_path);
    if (!os)
        fuse_fatal("cannot open '%s' for writing", out_path.c_str());
    os << "{\n";
    os << "  \"bench\": \"sim_core\",\n";
    os << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
    os << "  \"single_runs\": [\n";
    for (std::size_t i = 0; i < singles.size(); ++i) {
        const SingleRun &s = singles[i];
        os << "    {\"benchmark\": \"" << s.benchmark << "\", "
           << "\"kind\": \"" << toString(s.kind) << "\", "
           << "\"wall_ms\": " << s.wallMs << ", "
           << "\"cycles\": " << s.cycles << ", "
           << "\"cycles_per_sec\": " << s.cyclesPerSec << "}"
           << (i + 1 < singles.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
    os << "  \"sweep\": {\n";
    os << "    \"figure\": \"" << figure << "\",\n";
    os << "    \"runs\": " << valid_runs << ",\n";
    os << "    \"threads\": " << runner.threads() << ",\n";
    os << "    \"wall_ms\": " << sweep_ms << ",\n";
    os << "    \"runs_per_sec\": " << runs_per_sec << ",\n";
    os << "    \"sim_cycles_total\": " << total_cycles << ",\n";
    os << "    \"cycles_per_sec\": " << cycles_per_sec << "\n";
    os << "  }";
    if (profile) {
        os << ",\n";
        os << "  \"profile\": {\n";
        os << "    \"enabled\": "
           << (fuse::prof::enabled() ? "true" : "false") << ",\n";
        os << "    \"residency_resolutions\": " << resolutions << ",\n";
        os << "    \"report\":\n";
        prof_report.writeJson(os, valid_runs, 4);
        os << "\n  }";
    }
    os << "\n}\n";
    os.close();
    std::fprintf(stderr, "wrote %s\n", out_path.c_str());
    return 0;
}
