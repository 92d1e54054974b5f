#include "exp/figures.hh"

#include <cstdio>
#include <map>
#include <memory>

#include "cache/cache_bank.hh"
#include "device/area_model.hh"
#include "energy/energy_model.hh"
#include "exp/sweep_runner.hh"
#include "exp/trace_studies.hh"
#include "fuse/l1d_factory.hh"
#include "mem/hierarchy.hh"
#include "sim/report.hh"
#include "workload/benchmarks.hh"

namespace fuse
{

namespace
{

/** Spec over every Table II workload with the given kind list. */
ExperimentSpec
gridSpec(const char *name, std::vector<L1DKind> kinds,
         const char *benchmarks = "all", const char *base = "fermi")
{
    ExperimentSpec spec;
    spec.name = name;
    spec.base = base;
    spec.benchmarks = ExperimentSpec::resolveBenchmarks(benchmarks);
    spec.kinds = std::move(kinds);
    return spec;
}

/** A spec with no simulation grid (static tables, trace studies). */
ExperimentSpec
staticSpec(const char *name, const char *benchmarks = "")
{
    ExperimentSpec spec;
    spec.name = name;
    if (benchmarks[0] != '\0')
        spec.benchmarks = ExperimentSpec::resolveBenchmarks(benchmarks);
    return spec;
}

/** Each kind's IPC normalised to L1-SRAM, one row per workload, then a
 *  GMEAN row (Figs. 13 and 19). */
void
printNormalisedIpc(const ResultSet &results, std::string title,
                   const std::vector<L1DKind> &kinds)
{
    Report report(std::move(title));
    std::vector<std::string> header = {"workload"};
    for (L1DKind k : kinds)
        header.push_back(toString(k));
    report.header(header);

    std::vector<std::vector<double>> norms(kinds.size());
    for (const auto &name : results.benchmarks()) {
        const Metrics &base = results.metrics(name, L1DKind::L1Sram);
        std::vector<std::string> row = {name};
        for (std::size_t k = 0; k < kinds.size(); ++k) {
            const Metrics &m = results.metrics(name, kinds[k]);
            const double norm = base.ipc > 0 ? m.ipc / base.ipc : 0.0;
            norms[k].push_back(norm);
            row.push_back(fmt(norm, 2));
        }
        report.row(row);
    }
    std::vector<std::string> gmean = {"GMEAN"};
    for (const auto &v : norms)
        gmean.push_back(fmt(geomean(v), 2));
    report.row(gmean);
    report.print();
}

// ------------------------------------------------------------- Fig. 1

ExperimentSpec
fig01Spec()
{
    return gridSpec("fig01", {L1DKind::L1Sram});
}

void
fig01Render(const ResultSet &results, unsigned)
{
    Report time_report(
        "Fig. 1a — execution-time decomposition (L1-SRAM)");
    time_report.header({"workload", "off-chip frac", "network", "DRAM",
                        "on-chip"});
    Report energy_report(
        "Fig. 1b — GPU energy decomposition (L1-SRAM)");
    energy_report.header({"workload", "off-chip frac", "L2+NoC+DRAM (uJ)",
                          "L1D (uJ)", "SM compute (uJ)"});

    double time_sum = 0.0;
    double energy_sum = 0.0;
    int n = 0;
    for (const auto &name : results.benchmarks()) {
        const Metrics &m = results.metrics(name, L1DKind::L1Sram);
        const double off = m.memWaitFraction;
        time_report.row({name, fmt(off, 3),
                         fmt(off * m.networkShare, 3),
                         fmt(off * m.dramShare, 3), fmt(1.0 - off, 3)});
        const double eoff = m.energy.offchipFraction();
        energy_report.row({name, fmt(eoff, 3),
                           fmt(m.energy.offchip() / 1000.0, 1),
                           fmt(m.energy.l1dTotal() / 1000.0, 1),
                           fmt((m.energy.compute + m.energy.smLeakage)
                                   / 1000.0, 1)});
        time_sum += off;
        energy_sum += eoff;
        ++n;
    }
    time_report.row({"MEAN", fmt(time_sum / n, 3), "", "", ""});
    energy_report.row({"MEAN", fmt(energy_sum / n, 3), "", "", ""});

    time_report.print();
    energy_report.print();
    std::printf("\npaper reference: off-chip ~75%% of execution time and "
                "~71%% of energy on average\n");
}

// ------------------------------------------------------------- Fig. 3

ExperimentSpec
fig03Spec()
{
    return gridSpec("fig03",
                    {L1DKind::L1Sram, L1DKind::PureNvm, L1DKind::Oracle},
                    "motivation");
}

void
fig03Render(const ResultSet &results, unsigned)
{
    Report miss("Fig. 3a — L1D miss rate");
    miss.header({"workload", "Vanilla", "STT-MRAM", "Oracle"});
    Report ipc("Fig. 3b — IPC normalised to Vanilla");
    ipc.header({"workload", "Vanilla", "STT-MRAM", "Oracle"});

    std::vector<double> stt_norm;
    std::vector<double> oracle_norm;
    std::vector<double> vanilla_miss;
    std::vector<double> oracle_miss;
    for (const auto &name : results.benchmarks()) {
        const Metrics &v = results.metrics(name, L1DKind::L1Sram);
        const Metrics &s = results.metrics(name, L1DKind::PureNvm);
        const Metrics &o = results.metrics(name, L1DKind::Oracle);
        miss.row({name, fmt(v.l1dMissRate, 3), fmt(s.l1dMissRate, 3),
                  fmt(o.l1dMissRate, 3)});
        ipc.row({name, "1.00", fmt(s.ipc / v.ipc, 2),
                 fmt(o.ipc / v.ipc, 2)});
        stt_norm.push_back(s.ipc / v.ipc);
        oracle_norm.push_back(o.ipc / v.ipc);
        vanilla_miss.push_back(v.l1dMissRate);
        oracle_miss.push_back(o.l1dMissRate);
    }
    ipc.row({"GMEAN", "1.00", fmt(geomean(stt_norm), 2),
             fmt(geomean(oracle_norm), 2)});
    miss.print();
    ipc.print();

    std::printf("\nmeasured: Oracle cuts the average miss rate from %.2f "
                "to %.2f; paper reference: -58%% miss rate, ~6x IPC\n",
                mean(vanilla_miss), mean(oracle_miss));
}

// ------------------------------------------------------------- Fig. 6

ExperimentSpec
fig06Spec()
{
    return staticSpec("fig06", "all");
}

void
fig06Render(const ResultSet &results, unsigned threads)
{
    const std::vector<std::string> &names = results.benchmarks();
    std::vector<ReadLevelMix> mixes(names.size());
    parallelFor(names.size(), threads, [&](std::size_t i) {
        mixes[i] = readLevelMix(benchmarkByName(names[i]));
    });

    Report report("Fig. 6 — read-level analysis (block fractions)");
    report.header({"workload", "WM", "read-intensive", "WORM", "WORO"});

    ReadLevelMix avg;
    int n = 0;
    for (std::size_t i = 0; i < names.size(); ++i) {
        const ReadLevelMix &mix = mixes[i];
        report.row({names[i], fmt(mix.wm, 3), fmt(mix.readIntensive, 3),
                    fmt(mix.worm, 3), fmt(mix.woro, 3)});
        avg.wm += mix.wm;
        avg.readIntensive += mix.readIntensive;
        avg.worm += mix.worm;
        avg.woro += mix.woro;
        ++n;
    }
    report.row({"MEAN", fmt(avg.wm / n, 3), fmt(avg.readIntensive / n, 3),
                fmt(avg.worm / n, 3), fmt(avg.woro / n, 3)});
    report.print();
    std::printf("\npaper reference: WORM dominates (~80%% of blocks on "
                "average); PVC/PVR/SS carry large WM populations\n");
}

// ------------------------------------------------------------- Fig. 7

ExperimentSpec
fig07Spec()
{
    ExperimentSpec spec = gridSpec("fig07", {L1DKind::FaFuse});
    spec.variants = {
        {"approx", {{"l1d.approx.comparators", 4}}},
        {"ideal", {{"l1d.approx.comparators", 4096}}},
    };
    return spec;
}

void
fig07Render(const ResultSet &results, unsigned)
{
    std::map<std::string, std::vector<double>> per_suite;
    Report detail("Fig. 7b detail — per-workload IPC ratio "
                  "(approximate / ideal fully-associative)");
    detail.header({"workload", "suite", "approx IPC", "ideal IPC",
                   "ratio"});

    for (const auto &name : results.benchmarks()) {
        const Metrics &approx =
            results.metrics(name, L1DKind::FaFuse, /*variant=*/0);
        const Metrics &ideal =
            results.metrics(name, L1DKind::FaFuse, /*variant=*/1);
        const double ratio =
            ideal.ipc > 0 ? approx.ipc / ideal.ipc : 0.0;
        const Suite suite = benchmarkByName(name).suite;
        detail.row({name, toString(suite), fmt(approx.ipc, 3),
                    fmt(ideal.ipc, 3), fmt(ratio, 3)});
        per_suite[toString(suite)].push_back(ratio);
    }
    detail.print();

    Report report("Fig. 7b — normalised IPC per suite");
    report.header({"suite", "approximate / fully-assoc"});
    for (const auto &[suite, ratios] : per_suite)
        report.row({suite, fmt(geomean(ratios), 3)});
    report.print();

    std::printf("\npaper reference: approximation within 2%% of a true "
                "fully-associative cache on every suite\n");
}

// ------------------------------------------------------------ Fig. 13

ExperimentSpec
fig13Spec()
{
    return gridSpec("fig13",
                    {L1DKind::L1Sram, L1DKind::ByNvm, L1DKind::FaSram,
                     L1DKind::Hybrid, L1DKind::BaseFuse, L1DKind::FaFuse,
                     L1DKind::DyFuse});
}

void
fig13Render(const ResultSet &results, unsigned)
{
    printNormalisedIpc(results, "Fig. 13 — IPC normalised to L1-SRAM",
                       {L1DKind::ByNvm, L1DKind::FaSram, L1DKind::Hybrid,
                        L1DKind::BaseFuse, L1DKind::FaFuse,
                        L1DKind::DyFuse});
    std::printf("\npaper reference (GMEAN vs L1-SRAM): Dy-FUSE ~3.17x, "
                "FA-FUSE ~2.6x, Base-FUSE ~0.86x, Hybrid ~0.77x, "
                "By-NVM ~1.6x\n");
}

// ------------------------------------------------------------ Fig. 14

ExperimentSpec
fig14Spec()
{
    return gridSpec("fig14",
                    {L1DKind::L1Sram, L1DKind::ByNvm, L1DKind::FaSram,
                     L1DKind::Hybrid, L1DKind::BaseFuse, L1DKind::FaFuse,
                     L1DKind::DyFuse});
}

void
fig14Render(const ResultSet &results, unsigned)
{
    const std::vector<L1DKind> kinds = {
        L1DKind::L1Sram, L1DKind::ByNvm,    L1DKind::FaSram,
        L1DKind::Hybrid, L1DKind::BaseFuse, L1DKind::FaFuse,
        L1DKind::DyFuse,
    };

    Report report("Fig. 14 — L1D miss rate");
    std::vector<std::string> header = {"workload"};
    for (L1DKind k : kinds)
        header.push_back(toString(k));
    report.header(header);

    std::vector<double> sums(kinds.size(), 0.0);
    for (const auto &name : results.benchmarks()) {
        std::vector<std::string> row = {name};
        for (std::size_t k = 0; k < kinds.size(); ++k) {
            const Metrics &m = results.metrics(name, kinds[k]);
            sums[k] += m.l1dMissRate;
            row.push_back(fmt(m.l1dMissRate, 3));
        }
        report.row(row);
    }
    std::vector<std::string> mean_row = {"MEAN"};
    for (double s : sums)
        mean_row.push_back(
            fmt(s / static_cast<double>(results.benchmarks().size()), 3));
    report.row(mean_row);
    report.print();

    std::printf("\npaper reference: hybrid organisations ~21.6%% lower "
                "miss rate than L1-SRAM; FA-FUSE ~= Dy-FUSE\n");
}

// ------------------------------------------------------------ Fig. 15

ExperimentSpec
fig15Spec()
{
    return gridSpec("fig15", {L1DKind::Hybrid, L1DKind::BaseFuse,
                              L1DKind::FaFuse});
}

void
fig15Render(const ResultSet &results, unsigned)
{
    Report report(
        "Fig. 15 — L1D stalls normalised to Hybrid's STT-MRAM stalls");
    report.header({"workload", "Hybrid stt", "Base-FUSE stt",
                   "Base tag", "FA-FUSE stt", "FA tag"});

    double base_sum = 0.0;
    double fa_sum = 0.0;
    double fa_tag_sum = 0.0;
    int n = 0;
    for (const auto &name : results.benchmarks()) {
        const Metrics &hybrid = results.metrics(name, L1DKind::Hybrid);
        const Metrics &base = results.metrics(name, L1DKind::BaseFuse);
        const Metrics &fa = results.metrics(name, L1DKind::FaFuse);
        const double norm =
            hybrid.sttStallCycles > 0 ? hybrid.sttStallCycles : 1.0;
        report.row({name, fmt(1.0, 2),
                    fmt(base.sttStallCycles / norm, 3),
                    fmt(base.tagSearchStallCycles / norm, 3),
                    fmt(fa.sttStallCycles / norm, 3),
                    fmt(fa.tagSearchStallCycles / norm, 3)});
        base_sum += base.sttStallCycles / norm;
        fa_sum += fa.sttStallCycles / norm;
        fa_tag_sum += fa.tagSearchStallCycles / norm;
        ++n;
    }
    report.row({"MEAN", "1.00", fmt(base_sum / n, 3), "",
                fmt(fa_sum / n, 3), fmt(fa_tag_sum / n, 3)});
    report.print();

    std::printf("\npaper reference: Base-FUSE -78%% stalls vs Hybrid; "
                "FA-FUSE a further -18%%; tag-search overhead ~3%% of "
                "Hybrid's STT stalls\n");
}

// ------------------------------------------------------------ Fig. 16

ExperimentSpec
fig16Spec()
{
    return gridSpec("fig16", {L1DKind::DyFuse});
}

void
fig16Render(const ResultSet &results, unsigned)
{
    Report report("Fig. 16 — read-level predictor accuracy");
    report.header({"workload", "true", "neutral", "false"});

    double true_sum = 0.0;
    double worst_true = 1.0;
    int n = 0;
    for (const auto &name : results.benchmarks()) {
        const Metrics &m = results.metrics(name, L1DKind::DyFuse);
        report.row({name, fmt(m.predTrue, 3), fmt(m.predNeutral, 3),
                    fmt(m.predFalse, 3)});
        true_sum += m.predTrue;
        if (m.predTrue < worst_true && m.predTrue > 0)
            worst_true = m.predTrue;
        ++n;
    }
    report.row({"MEAN", fmt(true_sum / n, 3), "", ""});
    report.print();

    std::printf("\nmeasured: mean true-rate %.1f%%, worst %.1f%%; paper "
                "reference: ~95%% average, 85%% worst case\n",
                100.0 * true_sum / n, 100.0 * worst_true);
}

// ------------------------------------------------------------ Fig. 17

ExperimentSpec
fig17Spec()
{
    return gridSpec("fig17",
                    {L1DKind::L1Sram, L1DKind::ByNvm, L1DKind::BaseFuse,
                     L1DKind::FaFuse, L1DKind::DyFuse});
}

void
fig17Render(const ResultSet &results, unsigned)
{
    const std::vector<L1DKind> kinds = {
        L1DKind::ByNvm, L1DKind::BaseFuse, L1DKind::FaFuse,
        L1DKind::DyFuse,
    };

    Report report("Fig. 17 — L1D energy normalised to L1-SRAM");
    std::vector<std::string> header = {"workload", "L1-SRAM"};
    for (L1DKind k : kinds)
        header.push_back(toString(k));
    report.header(header);

    std::vector<std::vector<double>> norms(kinds.size());
    for (const auto &name : results.benchmarks()) {
        const Metrics &base = results.metrics(name, L1DKind::L1Sram);
        const double ref =
            base.energy.l1dTotal() > 0 ? base.energy.l1dTotal() : 1.0;
        std::vector<std::string> row = {name, "1.00"};
        for (std::size_t k = 0; k < kinds.size(); ++k) {
            const Metrics &m = results.metrics(name, kinds[k]);
            const double norm = m.energy.l1dTotal() / ref;
            norms[k].push_back(norm);
            row.push_back(fmt(norm, 2));
        }
        report.row(row);
    }
    std::vector<std::string> gmean = {"GMEAN", "1.00"};
    for (const auto &v : norms)
        gmean.push_back(fmt(geomean(v), 2));
    report.row(gmean);
    report.print();

    std::printf("\npaper reference: Dy-FUSE saves ~24%% L1D energy vs "
                "By-NVM and ~7%% vs FA-FUSE; overall FUSE saves ~53%% "
                "total energy vs the SRAM baseline\n");
}

// ------------------------------------------------------------ Fig. 18

ExperimentSpec
fig18Spec()
{
    ExperimentSpec spec =
        gridSpec("fig18", {L1DKind::DyFuse}, "sensitivity");
    spec.variants = {
        {"1/16", {{"l1d.sramAreaFraction", 1.0 / 16}}},
        {"1/8", {{"l1d.sramAreaFraction", 1.0 / 8}}},
        {"1/4", {{"l1d.sramAreaFraction", 1.0 / 4}}},
        {"1/2", {{"l1d.sramAreaFraction", 1.0 / 2}}},
        {"3/4", {{"l1d.sramAreaFraction", 3.0 / 4}}},
    };
    return spec;
}

void
fig18Render(const ResultSet &results, unsigned)
{
    const std::vector<std::string> &ratios = results.variantLabels();

    Report ipc_report(
        "Fig. 18a — Dy-FUSE IPC normalised to the 1/16 split");
    Report miss_report("Fig. 18b — Dy-FUSE L1D miss rate");
    std::vector<std::string> header = {"workload"};
    for (const auto &label : ratios)
        header.push_back(label);
    ipc_report.header(header);
    miss_report.header(header);

    std::vector<std::vector<double>> ipc_norm(ratios.size());
    for (const auto &name : results.benchmarks()) {
        std::vector<double> ipcs;
        std::vector<double> misses;
        for (std::size_t r = 0; r < ratios.size(); ++r) {
            const Metrics &m = results.metrics(name, L1DKind::DyFuse, r);
            ipcs.push_back(m.ipc);
            misses.push_back(m.l1dMissRate);
        }
        std::vector<std::string> ipc_row = {name};
        std::vector<std::string> miss_row = {name};
        for (std::size_t r = 0; r < ratios.size(); ++r) {
            const double norm = ipcs[0] > 0 ? ipcs[r] / ipcs[0] : 0.0;
            ipc_norm[r].push_back(norm);
            ipc_row.push_back(fmt(norm, 2));
            miss_row.push_back(fmt(misses[r], 3));
        }
        ipc_report.row(ipc_row);
        miss_report.row(miss_row);
    }
    std::vector<std::string> gmean = {"GMEAN"};
    for (const auto &v : ipc_norm)
        gmean.push_back(fmt(geomean(v), 2));
    ipc_report.row(gmean);

    ipc_report.print();
    miss_report.print();
    std::printf("\npaper reference: 1/2 SRAM fraction is optimal across "
                "the sweep\n");
}

// ------------------------------------------------------------ Fig. 19

ExperimentSpec
fig19Spec()
{
    return gridSpec("fig19",
                    {L1DKind::L1Sram, L1DKind::ByNvm, L1DKind::Hybrid,
                     L1DKind::BaseFuse, L1DKind::FaFuse, L1DKind::DyFuse},
                    "all", "volta");
}

void
fig19Render(const ResultSet &results, unsigned)
{
    printNormalisedIpc(results,
                       "Fig. 19 — Volta-class GPU, IPC normalised to "
                       "L1-SRAM",
                       {L1DKind::ByNvm, L1DKind::Hybrid, L1DKind::BaseFuse,
                        L1DKind::FaFuse, L1DKind::DyFuse});
    std::printf("\npaper reference (vs L1-SRAM): Base-FUSE +35%%, "
                "FA-FUSE +82%%, Dy-FUSE +96%%\n");
}

// ------------------------------------------------------------ Fig. 20

ExperimentSpec
fig20Spec()
{
    return staticSpec("fig20", "sensitivity");
}

void
fig20Render(const ResultSet &results, unsigned threads)
{
    const std::vector<std::string> &workloads = results.benchmarks();

    // One row per workload; the per-row configuration sweeps run
    // serially inside the rows' worker threads.
    std::vector<std::vector<double>> hash_rates(workloads.size());
    std::vector<std::vector<double>> slot_rates(workloads.size());
    parallelFor(workloads.size(), threads,
                [&](std::size_t i) {
                    const BenchmarkSpec &spec =
                        benchmarkByName(workloads[i]);
                    for (std::uint32_t h = 1; h <= 5; ++h)
                        hash_rates[i].push_back(
                            cbfFalsePositiveRate(spec, 16, h));
                    for (std::uint32_t s : {32u, 64u, 128u})
                        slot_rates[i].push_back(
                            cbfFalsePositiveRate(spec, s, 3));
                });

    Report hash_report(
        "Fig. 20a — CBF false-positive rate vs hash functions (16 slots)");
    hash_report.header({"workload", "1 func", "2 func", "3 func",
                        "4 func", "5 func"});
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        std::vector<std::string> row = {workloads[i]};
        for (double rate : hash_rates[i])
            row.push_back(fmt(rate, 4));
        hash_report.row(row);
    }
    hash_report.print();

    Report slot_report(
        "Fig. 20b — CBF false-positive rate vs slots (3 hash functions)");
    slot_report.header({"workload", "32 slots", "64 slots", "128 slots"});
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        std::vector<std::string> row = {workloads[i]};
        for (double rate : slot_rates[i])
            row.push_back(fmt(rate, 5));
        slot_report.row(row);
    }
    slot_report.print();

    std::printf("\npaper reference: 3 hash functions cut false positives "
                "~98%% vs 1; 128 slots ~99%% vs 32\n");
}

// ------------------------------------------------------------ Table I

ExperimentSpec
table1Spec()
{
    return staticSpec("table1");
}

void
table1Render(const ResultSet &results, unsigned)
{
    (void)results;
    SimConfig c = SimConfig::fermi();

    Report general("Table I — general configuration");
    general.header({"parameter", "value"});
    general.row({"SMs", std::to_string(c.gpu.numSms)});
    general.row({"warps/SM", std::to_string(c.gpu.warpsPerSm)});
    general.row({"threads/warp", std::to_string(kWarpSize)});
    general.row({"request queue entries",
                 std::to_string(c.l1d.tagQueueEntries)});
    general.row({"swap buffer entries",
                 std::to_string(c.l1d.swapBufferEntries)});
    general.row({"CBFs / hash functions",
                 std::to_string(c.l1d.approx.numCbfs) + " / "
                     + std::to_string(c.l1d.approx.numHashes)});
    general.row({"L2 size / banks",
                 std::to_string(c.gpu.l2.totalSizeBytes / 1024) + "KB / "
                     + std::to_string(c.gpu.l2.numBanks)});
    general.row({"DRAM channels / tCL / tRCD / tRAS",
                 std::to_string(c.gpu.dram.numChannels) + " / "
                     + std::to_string(c.gpu.dram.tCL) + " / "
                     + std::to_string(c.gpu.dram.tRCD) + " / "
                     + std::to_string(c.gpu.dram.tRAS)});
    general.row({"sampler assoc / sets",
                 std::to_string(c.l1d.predictor.samplerWays) + " / "
                     + std::to_string(c.l1d.predictor.samplerSets)});
    general.row({"history entries / threshold",
                 std::to_string(c.l1d.predictor.historyEntries) + " / "
                     + std::to_string(c.l1d.predictor.unusedThreshold)});
    const BankConfig sram = makeSramBankConfig(c.l1d.hybridSramBytes(),
                                               c.l1d.sramWays);
    const BankConfig stt = makeSttBankConfig(c.l1d.hybridSttBytes(),
                                             c.l1d.sttWays, false);
    general.row({"L1 SRAM/STT latency (R)",
                 std::to_string(sram.readLatency) + " / "
                     + std::to_string(stt.readLatency) + " cycles"});
    general.row({"L1 SRAM/STT latency (W)",
                 std::to_string(sram.writeLatency) + " / "
                     + std::to_string(stt.writeLatency) + " cycles"});
    general.print();

    Report banks("Table I — per-organisation bank parameters");
    banks.header({"config", "SRAM KB", "STT KB", "SRAM sets/ways",
                  "STT sets/ways", "SRAM R/W nJ", "STT R/W nJ",
                  "leak mW"});
    // Each row is the organisation a run builds: its banks' geometry
    // and the energies EnergyModel charges them (SRAM column 0, STT 1).
    MemoryHierarchy hierarchy(c.gpu.noc, c.gpu.l2, c.gpu.dram);
    for (L1DKind kind : {L1DKind::L1Sram, L1DKind::ByNvm, L1DKind::Hybrid,
                         L1DKind::BaseFuse, L1DKind::FaFuse,
                         L1DKind::DyFuse}) {
        const std::unique_ptr<L1DCache> l1d =
            makeL1D(kind, c.l1d, hierarchy);
        std::string kb[2] = {"0", "0"};
        std::string geom[2] = {"-", "-"};
        std::string energy[2] = {"-", "-"};
        double leak = 0.0;
        for (const CacheBank *bank : l1d->banks()) {
            const BankConfig &b = bank->config();
            const int col = b.tech == BankTech::SttMram ? 1 : 0;
            const BankEnergy e = bankEnergy(*bank);
            kb[col] = std::to_string(b.sizeBytes / 1024);
            geom[col] = std::to_string(b.numSets) + "/"
                        + std::to_string(b.numWays);
            energy[col] = fmt(e.readNj, 2) + "/" + fmt(e.writeNj, 2);
            leak += e.leakageMw;
        }
        banks.row({toString(kind), kb[0], kb[1], geom[0], geom[1],
                   energy[0], energy[1], fmt(leak, 1)});
    }
    banks.print();
}

// ----------------------------------------------------------- Table II

ExperimentSpec
table2Spec()
{
    return gridSpec("table2", {L1DKind::ByNvm});
}

void
table2Render(const ResultSet &results, unsigned)
{
    Report report("Table II — workload characteristics");
    report.header({"workload", "suite", "APKI paper", "APKI measured",
                   "bypass paper", "bypass measured"});

    for (const auto &name : results.benchmarks()) {
        const BenchmarkSpec &bench = benchmarkByName(name);
        const Metrics &m = results.metrics(name, L1DKind::ByNvm);
        // The simulator counts warp instructions; APKI is per kilo
        // *thread* instruction, i.e. transactions / (warp instr * 32)
        // * 1000.
        const double apki = m.apki / kWarpSize;
        report.row({name, toString(bench.suite), fmt(bench.apki, 1),
                    fmt(apki, 1), fmt(bench.publishedBypassRatio, 2),
                    fmt(m.bypassRatio, 2)});
    }
    report.print();
}

// ---------------------------------------------------------- Table III

ExperimentSpec
table3Spec()
{
    return staticSpec("table3");
}

void
table3Render(const ResultSet &results, unsigned)
{
    (void)results;
    AreaEstimate base = AreaModel::l1Sram();
    AreaEstimate dy = AreaModel::dyFuse();

    Report report("Table III — area estimation (transistors)");
    report.header({"component", "L1-SRAM", "Dy-FUSE"});

    // Union of component names, baseline order first.
    for (const auto &c : base.components)
        report.row({c.name, std::to_string(c.transistors),
                    std::to_string(dy.of(c.name))});
    for (const auto &c : dy.components) {
        if (base.of(c.name) == 0 && c.name != "data array")
            report.row({c.name, "-", std::to_string(c.transistors)});
    }
    report.row({"TOTAL", std::to_string(base.total()),
                std::to_string(dy.total())});
    report.print();

    std::printf("\nDy-FUSE area overhead vs 32KB L1-SRAM: %.2f%% "
                "(paper: < 0.7%%)\n",
                100.0 * AreaModel::dyFuseOverhead());
}

} // namespace

const std::vector<Figure> &
figures()
{
    static const std::vector<Figure> all = {
        {"fig01", "off-chip time and energy decomposition (L1-SRAM)",
         fig01Spec, fig01Render},
        {"fig03", "motivation: Vanilla vs STT-MRAM vs Oracle",
         fig03Spec, fig03Render},
        {"fig06", "read-level analysis of every workload's blocks",
         fig06Spec, fig06Render},
        {"fig07", "associativity approximation vs ideal full assoc",
         fig07Spec, fig07Render},
        {"fig13", "IPC of the L1D organisations vs L1-SRAM",
         fig13Spec, fig13Render},
        {"fig14", "L1D miss rate of the L1D organisations",
         fig14Spec, fig14Render},
        {"fig15", "L1D stall decomposition vs Hybrid",
         fig15Spec, fig15Render},
        {"fig16", "read-level predictor accuracy under Dy-FUSE",
         fig16Spec, fig16Render},
        {"fig17", "L1D energy of the organisations vs L1-SRAM",
         fig17Spec, fig17Render},
        {"fig18", "SRAM:STT area-ratio sensitivity of Dy-FUSE",
         fig18Spec, fig18Render},
        {"fig19", "Volta-class study of the L1D organisations",
         fig19Spec, fig19Render},
        {"fig20", "counting-Bloom-filter accuracy sweeps",
         fig20Spec, fig20Render},
        {"table1", "instantiated Table I configuration matrix",
         table1Spec, table1Render},
        {"table2", "per-workload APKI and bypass-ratio validation",
         table2Spec, table2Render},
        {"table3", "transistor-count area estimates",
         table3Spec, table3Render},
    };
    return all;
}

const Figure *
findFigure(const std::string &name)
{
    for (const auto &fig : figures())
        if (name == fig.name)
            return &fig;
    return nullptr;
}

} // namespace fuse
