#include "sim/simulator.hh"

#include "common/log.hh"

namespace fuse
{

Metrics
Simulator::run(const std::string &benchmark, L1DKind kind) const
{
    return run(benchmarkByName(benchmark), kind);
}

Metrics
Simulator::run(const BenchmarkSpec &benchmark, L1DKind kind) const
{
    config_.validate();
    Gpu gpu(config_.gpu, kind, config_.l1d, benchmark);
    gpu.run();
    // Metrics of a run the cycle cap cut off describe a partial kernel.
    const std::uint64_t budget =
        std::uint64_t(config_.gpu.numSms) * config_.gpu.instructionBudgetPerSm;
    if (gpu.totalInstructions() < budget)
        fuse_fatal("%s on %s retired %llu of %llu instructions before "
                   "gpu.maxCycles = %llu cut the run off",
                   benchmark.name.c_str(), toString(kind),
                   static_cast<unsigned long long>(gpu.totalInstructions()),
                   static_cast<unsigned long long>(budget),
                   static_cast<unsigned long long>(config_.gpu.maxCycles));

    Metrics m;
    m.benchmark = benchmark.name;
    m.l1dKind = kind;
    m.cycles = gpu.cycles();
    m.instructions = gpu.totalInstructions();
    m.ipc = gpu.ipc();
    m.l1dMissRate = gpu.l1dMissRate();

    const double transactions = gpu.sumSmStat("l1d_transactions");
    m.apki = m.instructions
                 ? 1000.0 * transactions
                       / static_cast<double>(m.instructions)
                 : 0.0;

    m.offchipRequests = gpu.hierarchy().offchipRequests();
    const double hits = gpu.sumL1dStat("hits");
    const double misses = gpu.sumL1dStat("misses");
    const double bypasses = gpu.sumL1dStat("bypasses");
    const double total_accesses = hits + misses + bypasses;
    m.bypassRatio = total_accesses > 0 ? bypasses / total_accesses : 0.0;

    m.sttStallCycles = gpu.sumL1dStat("stall_stt");
    m.tagSearchStallCycles = gpu.sumL1dStat("stall_tag_search");
    m.l1dStallCycles = gpu.sumSmStat("l1d_stall_cycles");

    // Predictor accuracy (Fig. 16): summed across each SM's read-level
    // predictor through the predictorStats() hook — organisations
    // without one report nullptr.
    double pred_true = 0.0;
    double pred_false = 0.0;
    double pred_neutral = 0.0;
    double pred_outcomes = 0.0;
    for (const auto &sm : gpu.sms()) {
        if (const StatGroup *ps = sm->l1d().predictorStats()) {
            pred_true += ps->get("pred_true");
            pred_false += ps->get("pred_false");
            pred_neutral += ps->get("pred_neutral");
            pred_outcomes += ps->get("outcomes");
        }
    }
    m.predOutcomes = pred_outcomes;
    const double pred_total = pred_true + pred_false + pred_neutral;
    if (pred_total > 0) {
        m.predTrue = pred_true / pred_total;
        m.predFalse = pred_false / pred_total;
        m.predNeutral = pred_neutral / pred_total;
    }

    // mem_wait_cycles counts SM cycles with every warp blocked on memory
    // (bounded by the cycle count); l1d_stall_cycles are per-warp wait
    // durations and must not be mixed in.
    const double cycles_total =
        static_cast<double>(m.cycles) * static_cast<double>(
            gpu.sms().size());
    const double mem_wait = gpu.sumSmStat("mem_wait_cycles");
    m.memWaitFraction = cycles_total > 0 ? mem_wait / cycles_total : 0.0;

    // Split the off-chip round trip between network and DRAM using the
    // hierarchy's accumulated per-request attributions.
    const MemoryHierarchy &hier = gpu.hierarchy();
    const StatGroup::Average *rt_avg =
        hier.stats().findAverage("round_trip");
    const StatGroup::Average *dram_avg =
        hier.dram().stats().findAverage("service_latency");
    const double rt = rt_avg ? rt_avg->mean() : 0.0;
    const double dram_lat = dram_avg ? dram_avg->mean() : 0.0;
    const double dram_reqs = hier.dram().stats().get("requests");
    const double all_reqs = hier.stats().get("requests");
    if (rt > 0 && all_reqs > 0) {
        const double dram_part =
            dram_lat * (dram_reqs / all_reqs) / rt;
        m.dramShare = std::min(1.0, dram_part);
        m.networkShare = 1.0 - m.dramShare;
    }

    EnergyModel energy(config_.energy);
    m.energy = energy.evaluate(gpu);
    return m;
}

} // namespace fuse
