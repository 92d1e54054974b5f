#include "layers.hh"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>

#include "energy/energy_model.hh"
#include "exp/export.hh"
#include "exp/figures.hh"
#include "exp/sweep_runner.hh"
#include "fuse/l1d_factory.hh"
#include "gpu/coalescer.hh"
#include "gpu/gpu.hh"
#include "sim/simulator.hh"
#include "workload/generator.hh"

namespace perfbench
{

namespace
{

using fuse::L1DKind;

/** Summed event counts of one or more runs, keyed by stat name. */
using Counts = std::map<std::string, double>;

/** A presented access that gives up after this many Stall results is a
 *  replay failure (the synthetic clock always advances on a Stall, so a
 *  healthy organisation accepts it long before). */
constexpr std::uint64_t kMaxAttempts = 100000;

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

Clock::time_point
after(Clock::time_point start, double ms)
{
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(ms));
}

/** The organisations the L1D replay drives on every workload: fig13's. */
const std::vector<L1DKind> &
replayKinds()
{
    static const std::vector<L1DKind> kinds =
        fuse::findFigure("fig13")->makeSpec().kinds;
    return kinds;
}

/** The public StatGroup counts of a finished run. */
Counts
collect(fuse::Gpu &gpu)
{
    Counts c;
    const double cycles = static_cast<double>(gpu.cycles());
    c["cycles"] = cycles;
    c["instructions"] = static_cast<double>(gpu.totalInstructions());
    c["sm_cycles"] = cycles * static_cast<double>(gpu.sms().size());
    c["sm0_transactions"] =
        gpu.sms().front()->stats().get("l1d_transactions");
    for (const char *name :
         {"idle_cycles", "mem_wait_cycles", "l1d_stall_cycles",
          "coalesce_instructions", "coalesce_transactions",
          "coalesce_lanes_merged"})
        c[name] = gpu.sumSmStat(name);
    for (const char *name :
         {"hits", "misses", "bypasses", "swap_buffer_hits",
          "migrations_sram_to_stt", "migrations_stt_to_sram",
          "tag_queue_full", "stall_stt", "stall_tag_search",
          "mshr_secondary", "stall_mshr_full"})
        c[name] = gpu.sumL1dStat(name);
    for (const auto &sm : gpu.sms()) {
        if (const fuse::StatGroup *ps = sm->l1d().predictorStats()) {
            c["pred_true"] += ps->get("pred_true");
            c["pred_scored"] += ps->get("pred_true") + ps->get("pred_false")
                                + ps->get("pred_neutral");
        }
    }
    fuse::MemoryHierarchy &hier = gpu.hierarchy();
    c["offchip_requests"] = hier.stats().get("requests");
    c["writebacks"] = hier.stats().get("writebacks");
    if (const auto *rt = hier.stats().findAverage("round_trip")) {
        c["round_trip_sum"] = rt->sum();
        c["round_trip_count"] = static_cast<double>(rt->count());
    }
    c["dram_requests"] = hier.dram().stats().get("requests");
    c["dram_row_hits"] = hier.dram().stats().get("row_hits");
    hier.l2().finalizeStats();
    c["l2_hits"] = hier.l2().stats().get("hits");
    c["l2_misses"] = hier.l2().stats().get("misses");
    return c;
}

/** SM 0's decoded, coalesced transaction stream of one benchmark. */
struct Frontend
{
    std::vector<fuse::MemRequest> stream;
    std::uint64_t instructions = 0;
};

/**
 * Decode every warp of SM 0 through nextBatch and coalesceBatch until
 * the SM's instruction budget is decoded, one batch per warp per round
 * (one span per round and call, so the clock reads stay off the
 * per-instruction path).
 */
Frontend
driveFrontend(const Grid &grid, const fuse::BenchmarkSpec &spec,
              Tracer &tracer, std::uint64_t run)
{
    const fuse::GpuConfig &g = grid.config.gpu;
    fuse::KernelGenerator generator(spec, 0, g.numSms, g.warpsPerSm,
                                    g.traceSeed);
    fuse::Coalescer coalescer;
    std::vector<fuse::InstructionBatch> batches(g.warpsPerSm);
    const std::uint64_t budget = g.instructionBudgetPerSm;
    Frontend fe;
    while (fe.instructions < budget) {
        std::uint32_t warps = 0;
        {
            ScopedSpan span(tracer, "workload.next_batch", run);
            for (; warps < g.warpsPerSm && fe.instructions < budget;
                 ++warps) {
                generator.nextBatch(warps, batches[warps],
                                    budget - fe.instructions);
                fe.instructions += batches[warps].size;
            }
        }
        {
            ScopedSpan span(tracer, "coalescer.coalesce_batch", run);
            for (std::uint32_t w = 0; w < warps; ++w)
                coalescer.coalesceBatch(batches[w]);
        }
        for (std::uint32_t w = 0; w < warps; ++w) {
            const fuse::InstructionBatch &batch = batches[w];
            for (std::uint32_t i = 0; i < batch.size; ++i) {
                const fuse::InstructionBatch::Decoded &d = batch.instr[i];
                if (!d.isMem)
                    continue;
                for (std::uint32_t t = d.txBegin; t < d.txEnd; ++t) {
                    fuse::MemRequest req;
                    req.addr = batch.addrs[t];
                    req.pc = d.pc;
                    req.warpId = w;
                    req.type = d.type;
                    fe.stream.push_back(req);
                }
            }
        }
    }
    return fe;
}

/** One call the L1D made into its MemoryHierarchy. */
struct MemEvent
{
    fuse::MemRequest req;
    fuse::Cycle now = 0;
    bool writeback = false;
};

struct Replay
{
    L1DKind kind = L1DKind::L1Sram;
    std::uint64_t run = 0;
    std::uint64_t attempts = 0;   ///< access() calls.
    std::uint64_t accepted = 0;   ///< Non-Stall results.
    std::uint64_t memEvents = 0;  ///< Hierarchy calls replayed.
    bool ok = true;
};

/**
 * Present @p stream to a makeL1D-built @p kind over its own
 * MemoryHierarchy under a synthetic clock: one access every @p pace
 * cycles, a Stall retried at max(now + 1, readyAt) with the L1D ticked
 * while it has deferred work. Every hierarchy call it makes is noted
 * (from the hierarchy's request and writeback counters; a writeback's
 * victim address is not visible, so the triggering access's line stands
 * in) and then replayed into a fresh MemoryHierarchy to time the mem
 * layer's share.
 */
Replay
replay(const Grid &grid, L1DKind kind,
       const std::vector<fuse::MemRequest> &stream, double pace,
       Tracer &tracer, std::uint64_t run)
{
    const fuse::GpuConfig &g = grid.config.gpu;
    fuse::NocConfig noc = g.noc;
    noc.numSmPorts = g.numSms;
    fuse::MemoryHierarchy hier(noc, g.l2, g.dram);
    std::unique_ptr<fuse::L1DCache> l1d =
        fuse::makeL1D(kind, grid.config.l1d, hier);
    const fuse::StatGroup::Scalar &requests = hier.stats().scalar("requests");
    const fuse::StatGroup::Scalar &writebacks =
        hier.stats().scalar("writebacks");
    std::vector<MemEvent> events;
    events.reserve(stream.size());

    Replay r;
    r.kind = kind;
    r.run = run;
    {
        ScopedSpan span(tracer, "l1d.replay", run);
        double seen_requests = 0.0;
        double seen_writebacks = 0.0;
        const auto note = [&](const fuse::MemRequest &req, fuse::Cycle now) {
            for (; seen_requests < requests.value(); seen_requests += 1.0)
                events.push_back({req, now, false});
            for (; seen_writebacks < writebacks.value();
                 seen_writebacks += 1.0)
                events.push_back({req, now, true});
        };
        double clock = 0.0;
        fuse::Cycle now = 0;
        for (const fuse::MemRequest &presented : stream) {
            fuse::MemRequest req = presented;
            std::uint64_t tries = 0;
            for (;;) {
                if (!l1d->tickIdle()) {
                    l1d->tick(now);
                    note(req, now);
                }
                const fuse::L1DResult res = l1d->access(req, now);
                ++r.attempts;
                note(req, now);
                if (res.kind != fuse::L1DResult::Kind::Stall)
                    break;
                if (++tries >= kMaxAttempts) {
                    r.ok = false;
                    break;
                }
                req.retry = true;
                now = std::max(now + 1, res.readyAt);
            }
            if (!r.ok)
                break;
            ++r.accepted;
            clock = std::max(clock, static_cast<double>(now)) + pace;
            now = static_cast<fuse::Cycle>(clock);
        }
    }
    fuse::MemoryHierarchy fresh(noc, g.l2, g.dram);
    {
        ScopedSpan span(tracer, "mem.replay", run);
        for (const MemEvent &e : events) {
            if (e.writeback)
                fresh.writeback(e.req, e.now);
            else
                fresh.access(e.req, e.now);
        }
    }
    r.memEvents = events.size();
    return r;
}

fuse::ResultSet
toResultSet(const Grid &grid, const std::vector<fuse::Metrics> &metrics)
{
    const std::vector<std::string> labels = grid.spec.variantLabels();
    fuse::ResultSet results(grid.spec.name, grid.spec.benchmarks,
                            grid.spec.kinds, labels);
    for (std::size_t i = 0; i < grid.cells(); ++i) {
        fuse::RunResult &run = results.at(i);
        run.benchmark = grid.benchmark(i);
        run.kind = grid.kind(i);
        run.variant = 0;
        run.variantLabel = labels.front();
        run.metrics = metrics[i];
        run.valid = true;
    }
    return results;
}

} // namespace

LayerReport
tracedLayers(const Workload &workload, const Grid &grid, Tracer &tracer)
{
    LayerReport report;
    Pass &untraced = report.untraced;
    const std::size_t n = grid.cells();
    const unsigned workers = workload.sweep ? sweepWorkers() : 1;
    // Run ids: 0 is pass-level work, 1..n the grid's cells, and n + 1
    // onward the standalone drives.
    const auto cell_run = [](std::size_t cell) {
        return static_cast<std::uint64_t>(cell) + 1;
    };

    // One cell of the traced pass: Simulator::run's steps, a span each.
    std::vector<Counts> counts(n);
    std::vector<double> energy(n, 0.0);
    const auto decompose = [&](std::size_t cell, std::uint64_t parent) {
        const std::uint64_t run = cell_run(cell);
        ScopedSpan cell_span(tracer, "bench.cell", run, parent);
        const fuse::BenchmarkSpec &spec =
            fuse::benchmarkByName(grid.benchmark(cell));
        std::unique_ptr<fuse::Gpu> gpu;
        {
            ScopedSpan span(tracer, "gpu.construct", run);
            gpu = std::make_unique<fuse::Gpu>(grid.config.gpu,
                                              grid.kind(cell),
                                              grid.config.l1d, spec);
        }
        {
            ScopedSpan span(tracer, "gpu.run", run);
            gpu->run();
        }
        {
            ScopedSpan span(tracer, "energy.evaluate", run);
            energy[cell] =
                fuse::EnergyModel(grid.config.energy).evaluate(*gpu).total();
        }
        counts[cell] = collect(*gpu);
    };

    // The untraced and traced passes do the same simulations, so their
    // wall-time difference is the tracing overhead.
    double traced_wall_ms = 0.0;
    double tail_ms = 0.0;
    if (workload.sweep) {
        untraced = runPass(workload, grid);
        const Pass traced = runPass(workload, grid);
        traced_wall_ms = traced.wallMs;
        tail_ms = sweepTailMs(traced, workers);
        const std::uint64_t sweep_id = tracer.nextId();
        tracer.record(sweep_id, 0, 0, "exp.sweep", traced.start,
                      after(traced.start, traced.wallMs));
        for (std::size_t i = 0; i < n; ++i) {
            const Clock::time_point end = after(traced.start,
                                                traced.endMs[i]);
            tracer.record(tracer.nextId(), sweep_id, cell_run(i),
                          "exp.cell", after(end, -traced.runMs[i]), end);
            if (!bitIdentical(traced.metrics[i], untraced.metrics[i]))
                report.failures.push_back("sweep cell " + std::to_string(i)
                                          + " differs between passes");
        }
        report.runs += 2 * n;
        ScopedSpan pass_span(tracer, "bench.decompose", 0);
        const std::uint64_t parent = pass_span.id();
        fuse::parallelFor(n, workers, [&](std::size_t cell) {
            decompose(cell, parent);
        });
    } else {
        // Cell by cell, alternating which side runs first, so host-speed
        // drift lands on both sides alike.
        untraced.metrics.resize(n);
        untraced.runMs.resize(n);
        fuse::Simulator sim(grid.config);
        for (std::size_t i = 0; i < n; ++i) {
            for (int side = 0; side < 2; ++side) {
                const Clock::time_point t0 = Clock::now();
                if ((side == 0) == (i % 2 == 0)) {
                    untraced.metrics[i] =
                        sim.run(grid.benchmark(i), grid.kind(i));
                    untraced.runMs[i] = msSince(t0);
                    untraced.wallMs += untraced.runMs[i];
                } else {
                    decompose(i, 0);
                    traced_wall_ms += msSince(t0);
                }
            }
        }
        report.runs += n;
    }
    for (std::size_t i = 0; i < n; ++i) {
        const fuse::Metrics &m = untraced.metrics[i];
        if (counts[i]["cycles"] != static_cast<double>(m.cycles)
            || counts[i]["instructions"]
                   != static_cast<double>(m.instructions)
            || energy[i] != m.energy.total())
            report.failures.push_back("decomposed cell " + std::to_string(i)
                                      + " differs from Simulator::run");
    }

    {
        const fuse::ResultSet results = toResultSet(grid, untraced.metrics);
        std::ostringstream json;
        ScopedSpan span(tracer, "exp.export", 0);
        fuse::writeJson(json, results);
    }

    // Standalone drives, one frontend drive and one replay per fig13
    // organisation for every benchmark, paced at the benchmark's in-run
    // L1-SRAM rate (SM 0's cycles per accepted transaction).
    const std::vector<L1DKind> &kinds = replayKinds();
    std::vector<Replay> replays;
    std::uint64_t decoded = 0;
    std::uint64_t run = n + 1;
    for (const std::string &name : grid.spec.benchmarks) {
        const Frontend fe = driveFrontend(
            grid, fuse::benchmarkByName(name), tracer, run++);
        decoded += fe.instructions;
        const Counts &sram = counts[grid.cellOf(name, L1DKind::L1Sram)];
        const double pace = std::max(
            1.0, ratio(sram.at("cycles"), sram.at("sm0_transactions")));
        for (L1DKind kind : kinds) {
            replays.push_back(replay(grid, kind, fe.stream, pace, tracer,
                                     run++));
            if (!replays.back().ok)
                report.failures.push_back(
                    std::string("L1D replay stuck: ") + name + " on "
                    + fuse::toString(kind));
        }
    }

    // Everything below reads the finished trace.
    std::map<std::string, std::map<std::uint64_t, double>> ms;
    for (const Span &s : tracer.spans())
        ms[s.name][s.run] += s.ms();
    const auto total_ms = [&](const char *name) {
        double sum = 0.0;
        for (const auto &[r, v] : ms[name])
            sum += v;
        return sum;
    };

    Counts sum;
    for (const Counts &c : counts) {
        for (const auto &[k, v] : c)
            sum[k] += v;
    }
    std::vector<double> construct_ms;
    std::vector<double> run_ms;
    std::vector<double> energy_ms;
    std::vector<double> self_ms;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t r = cell_run(i);
        construct_ms.push_back(ms["gpu.construct"][r]);
        run_ms.push_back(ms["gpu.run"][r]);
        energy_ms.push_back(ms["energy.evaluate"][r]);
        self_ms.push_back(untraced.runMs[i] - construct_ms.back()
                          - run_ms.back() - energy_ms.back());
    }
    double gpu_run_ms = 0.0;
    for (double v : run_ms)
        gpu_run_ms += v;

    struct KindTotals
    {
        double l1dMs = 0.0;
        double memMs = 0.0;
        double attempts = 0.0;
        double accepted = 0.0;
        double memEvents = 0.0;
    };
    std::map<L1DKind, KindTotals> per_kind;
    for (const Replay &r : replays) {
        KindTotals &t = per_kind[r.kind];
        t.l1dMs += ms["l1d.replay"][r.run];
        t.memMs += ms["mem.replay"][r.run];
        t.attempts += static_cast<double>(r.attempts);
        t.accepted += static_cast<double>(r.accepted);
        t.memEvents += static_cast<double>(r.memEvents);
    }
    KindTotals own;  // Over the organisations this workload runs.
    for (L1DKind kind : grid.spec.kinds) {
        const KindTotals &t = per_kind[kind];
        own.l1dMs += t.l1dMs;
        own.memMs += t.memMs;
        own.attempts += t.attempts;
        own.accepted += t.accepted;
        own.memEvents += t.memEvents;
    }

    const double accesses = sum["hits"] + sum["misses"] + sum["bypasses"];
    const double lanes =
        sum["coalesce_transactions"] + sum["coalesce_lanes_merged"];
    auto &out = report.metrics;
    const auto add = [&](std::string name, double value, const char *unit) {
        out.push_back({std::move(name), value, unit});
    };
    add("workload.ns_per_instr",
        ratio(total_ms("workload.next_batch") * 1e6,
              static_cast<double>(decoded)),
        "ns");
    add("workload.tx_per_mem_instr",
        ratio(lanes, sum["coalesce_instructions"]), "tx/instr");
    add("gpu.construct_ms", median(construct_ms), "ms");
    add("gpu.run_ms", median(run_ms), "ms");
    add("gpu.ns_per_sim_cycle", ratio(gpu_run_ms * 1e6, sum["cycles"]),
        "ns");
    add("gpu.ns_per_instr", ratio(gpu_run_ms * 1e6, sum["instructions"]),
        "ns");
    add("coalescer.ns_per_instr",
        ratio(total_ms("coalescer.coalesce_batch") * 1e6,
              static_cast<double>(decoded)),
        "ns");
    add("coalescer.merge_frac", ratio(sum["coalesce_lanes_merged"], lanes),
        "frac");
    add("gpu.idle_frac", ratio(sum["idle_cycles"], sum["sm_cycles"]),
        "frac");
    add("gpu.mem_wait_frac", ratio(sum["mem_wait_cycles"], sum["sm_cycles"]),
        "frac");
    add("gpu.l1d_stall_per_instr",
        ratio(sum["l1d_stall_cycles"], sum["instructions"]), "cycles/instr");
    add("l1d.ns_per_access", ratio(own.l1dMs * 1e6, own.accepted), "ns");
    add("l1d.self_ns_per_access",
        ratio((own.l1dMs - own.memMs) * 1e6, own.accepted), "ns");
    add("l1d.accept_frac", ratio(own.accepted, own.attempts), "frac");
    add("l1d.accesses", accesses, "count");
    add("l1d.hit_frac", ratio(sum["hits"], accesses), "frac");
    add("l1d.bypass_frac", ratio(sum["bypasses"], accesses), "frac");
    add("l1d.swap_buffer_hits", sum["swap_buffer_hits"], "count");
    add("l1d.migrations",
        sum["migrations_sram_to_stt"] + sum["migrations_stt_to_sram"],
        "count");
    add("l1d.tag_queue_full", sum["tag_queue_full"], "count");
    add("l1d.stt_stall_cycles", sum["stall_stt"], "cycles");
    add("l1d.tag_search_stall_cycles", sum["stall_tag_search"], "cycles");
    add("predictor.true_frac", ratio(sum["pred_true"], sum["pred_scored"]),
        "frac");
    add("mshr.merge_frac", ratio(sum["mshr_secondary"], sum["misses"]),
        "frac");
    add("mshr.full_stalls", sum["stall_mshr_full"], "count");
    add("mem.ns_per_request", ratio(own.memMs * 1e6, own.memEvents), "ns");
    add("mem.offchip_requests", sum["offchip_requests"], "count");
    add("mem.writebacks", sum["writebacks"], "count");
    add("mem.l2_hit_frac",
        ratio(sum["l2_hits"], sum["l2_hits"] + sum["l2_misses"]), "frac");
    add("mem.round_trip_cycles",
        ratio(sum["round_trip_sum"], sum["round_trip_count"]), "cycles");
    add("mem.dram_row_hit_frac",
        ratio(sum["dram_row_hits"], sum["dram_requests"]), "frac");
    add("energy.evaluate_us", median(energy_ms) * 1e3, "us");
    add("sim.self_ms", median(self_ms), "ms");
    add("exp.tail_s", tail_ms / 1e3, "s");
    add("exp.export_ms", total_ms("exp.export"), "ms");
    add("trace.overhead_ms", traced_wall_ms - untraced.wallMs, "ms");
    for (L1DKind kind : kinds) {
        const KindTotals &t = per_kind[kind];
        add(std::string("l1d.ns_per_access.") + fuse::toString(kind),
            ratio(t.l1dMs * 1e6, t.accepted), "ns");
    }
    for (L1DKind kind : kinds) {
        const KindTotals &t = per_kind[kind];
        add(std::string("l1d.self_ns_per_access.") + fuse::toString(kind),
            ratio((t.l1dMs - t.memMs) * 1e6, t.accepted), "ns");
    }
    report.layerTimes = tracer.layerTimes();
    return report;
}

} // namespace perfbench
