#include "exp/figures.hh"

#include <cstdio>
#include <functional>
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

/** One numeric column of a workload-by-column table. */
struct Column
{
    std::string header;
    std::function<double(std::size_t row)> value;
    int precision = 3;
    bool summarised = true; ///< False: blank in the summary row.
};

/** The aggregate row under a table, if any. */
enum class Summary
{
    None,
    Mean,
    Geomean
};

/**
 * Print one row per entry of @p rows (the "workload" column) and one
 * column per entry of @p columns, then the @p summary row: the mean()
 * or geomean() of each summarised column over the rows, in order.
 * @return each column's values, in row order.
 */
std::vector<std::vector<double>>
printTable(std::string title, const std::vector<std::string> &rows,
           const std::vector<Column> &columns,
           Summary summary = Summary::None)
{
    Report report(std::move(title));
    std::vector<std::string> header = {"workload"};
    for (const Column &column : columns)
        header.push_back(column.header);
    report.header(std::move(header));

    std::vector<std::vector<double>> values(columns.size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
        std::vector<std::string> cells = {rows[r]};
        for (std::size_t c = 0; c < columns.size(); ++c) {
            values[c].push_back(columns[c].value(r));
            cells.push_back(fmt(values[c].back(), columns[c].precision));
        }
        report.row(std::move(cells));
    }
    if (summary != Summary::None) {
        const bool is_mean = summary == Summary::Mean;
        std::vector<std::string> cells = {is_mean ? "MEAN" : "GMEAN"};
        for (std::size_t c = 0; c < columns.size(); ++c) {
            const double v = is_mean ? mean(values[c]) : geomean(values[c]);
            cells.push_back(
                columns[c].summarised ? fmt(v, columns[c].precision) : "");
        }
        report.row(std::move(cells));
    }
    report.print();
    return values;
}

/** The metrics of row @p r's workload under @p kind. */
const Metrics &
cell(const ResultSet &results, std::size_t r, L1DKind kind,
     std::size_t variant = 0)
{
    return results.metrics(results.benchmarks()[r], kind, variant);
}

/** A column value: @p field of each row's @p kind cell. */
std::function<double(std::size_t)>
metric(const ResultSet &results, L1DKind kind, double Metrics::*field)
{
    return [&results, kind, field](std::size_t r) {
        return cell(results, r, kind).*field;
    };
}

/** A column that prints @p value on every row (a normalisation base). */
Column
constantColumn(std::string header, double value, int precision)
{
    return {std::move(header), [value](std::size_t) { return value; },
            precision};
}

/** Each kind's IPC normalised to L1-SRAM's (0.0 where that is 0), one
 *  column per kind of the grid but L1-SRAM (Figs. 13 and 19). */
std::vector<Column>
normalisedIpcColumns(const ResultSet &results)
{
    std::vector<Column> columns;
    for (L1DKind kind : results.kinds()) {
        if (kind == L1DKind::L1Sram)
            continue;
        auto norm = [&results, kind](std::size_t r) {
            const double base = cell(results, r, L1DKind::L1Sram).ipc;
            return base > 0 ? cell(results, r, kind).ipc / base : 0.0;
        };
        columns.push_back({toString(kind), norm, 2});
    }
    return columns;
}

// ------------------------------------------------------------- Fig. 1

void
fig01Render(const ResultSet &results, unsigned)
{
    auto sram = [&](std::size_t r) -> const Metrics & {
        return cell(results, r, L1DKind::L1Sram);
    };
    auto off = [&](std::size_t r) { return sram(r).memWaitFraction; };
    auto share = [&](double Metrics::*field) {
        return [off, sram, field](std::size_t r) {
            return off(r) * (sram(r).*field);
        };
    };
    printTable("Fig. 1a — execution-time decomposition (L1-SRAM)",
               results.benchmarks(),
               {{"off-chip frac", off},
                {"network", share(&Metrics::networkShare), 3, false},
                {"DRAM", share(&Metrics::dramShare), 3, false},
                {"on-chip", [&](std::size_t r) { return 1.0 - off(r); }, 3,
                 false}},
               Summary::Mean);

    auto uj = [&](auto energy) {
        return [sram, energy](std::size_t r) {
            return energy(sram(r).energy) / 1000.0;
        };
    };
    printTable(
        "Fig. 1b — GPU energy decomposition (L1-SRAM)", results.benchmarks(),
        {{"off-chip frac",
          [&](std::size_t r) { return sram(r).energy.offchipFraction(); }},
         {"L2+NoC+DRAM (uJ)",
          uj([](const EnergyBreakdown &e) { return e.offchip(); }), 1, false},
         {"L1D (uJ)",
          uj([](const EnergyBreakdown &e) { return e.l1dTotal(); }), 1, false},
         {"SM compute (uJ)",
          uj([](const EnergyBreakdown &e) { return e.compute + e.smLeakage; }),
          1, false}},
        Summary::Mean);
    std::printf("\npaper reference: off-chip ~75%% of execution time and "
                "~71%% of energy on average\n");
}

// ------------------------------------------------------------- Fig. 3

void
fig03Render(const ResultSet &results, unsigned)
{
    // Vanilla is L1-SRAM; IPC over its IPC divides without a guard.
    auto ipc_vs_vanilla = [&](L1DKind kind) {
        return [&results, kind](std::size_t r) {
            return cell(results, r, kind).ipc
                   / cell(results, r, L1DKind::L1Sram).ipc;
        };
    };
    const auto miss_rate = &Metrics::l1dMissRate;
    const std::vector<std::vector<double>> miss = printTable(
        "Fig. 3a — L1D miss rate", results.benchmarks(),
        {{"Vanilla", metric(results, L1DKind::L1Sram, miss_rate)},
         {"STT-MRAM", metric(results, L1DKind::PureNvm, miss_rate)},
         {"Oracle", metric(results, L1DKind::Oracle, miss_rate)}});
    printTable("Fig. 3b — IPC normalised to Vanilla", results.benchmarks(),
               {constantColumn("Vanilla", 1.0, 2),
                {"STT-MRAM", ipc_vs_vanilla(L1DKind::PureNvm), 2},
                {"Oracle", ipc_vs_vanilla(L1DKind::Oracle), 2}},
               Summary::Geomean);

    std::printf("\nmeasured: Oracle cuts the average miss rate from %.2f "
                "to %.2f; paper reference: -58%% miss rate, ~6x IPC\n",
                mean(miss[0]), mean(miss[2]));
}

// ------------------------------------------------------------- Fig. 6

void
fig06Render(const ResultSet &results, unsigned threads)
{
    const std::vector<std::string> &names = results.benchmarks();
    std::vector<ReadLevelMix> mixes(names.size());
    parallelFor(names.size(), threads, [&](std::size_t i) {
        mixes[i] = readLevelMix(benchmarkByName(names[i]));
    });

    auto share = [&](double ReadLevelMix::*level) {
        return [&mixes, level](std::size_t r) { return mixes[r].*level; };
    };
    printTable("Fig. 6 — read-level analysis (block fractions)", names,
               {{"WM", share(&ReadLevelMix::wm)},
                {"read-intensive", share(&ReadLevelMix::readIntensive)},
                {"WORM", share(&ReadLevelMix::worm)},
                {"WORO", share(&ReadLevelMix::woro)}},
               Summary::Mean);
    std::printf("\npaper reference: WORM dominates (~80%% of blocks on "
                "average); PVC/PVR/SS carry large WM populations\n");
}

// ------------------------------------------------------------- Fig. 7

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

void
fig13Render(const ResultSet &results, unsigned)
{
    printTable("Fig. 13 — IPC normalised to L1-SRAM", results.benchmarks(),
               normalisedIpcColumns(results), Summary::Geomean);
    std::printf("\npaper reference (GMEAN vs L1-SRAM): Dy-FUSE ~3.17x, "
                "FA-FUSE ~2.6x, Base-FUSE ~0.86x, Hybrid ~0.77x, "
                "By-NVM ~1.6x\n");
}

// ------------------------------------------------------------ Fig. 14

void
fig14Render(const ResultSet &results, unsigned)
{
    std::vector<Column> columns;
    for (L1DKind kind : results.kinds())
        columns.push_back(
            {toString(kind), metric(results, kind, &Metrics::l1dMissRate)});
    printTable("Fig. 14 — L1D miss rate", results.benchmarks(), columns,
               Summary::Mean);
    std::printf("\npaper reference: hybrid organisations ~21.6%% lower "
                "miss rate than L1-SRAM; FA-FUSE ~= Dy-FUSE\n");
}

// ------------------------------------------------------------ Fig. 15

void
fig15Render(const ResultSet &results, unsigned)
{
    // A stall count over Hybrid's STT stalls, or over 1 without any.
    auto stalls = [&](L1DKind kind, double Metrics::*field) {
        return [&results, kind, field](std::size_t r) {
            const double hybrid =
                cell(results, r, L1DKind::Hybrid).sttStallCycles;
            return cell(results, r, kind).*field
                   / (hybrid > 0 ? hybrid : 1.0);
        };
    };
    const auto stt = &Metrics::sttStallCycles;
    const auto tag = &Metrics::tagSearchStallCycles;
    printTable(
        "Fig. 15 — L1D stalls normalised to Hybrid's STT-MRAM stalls",
        results.benchmarks(),
        {constantColumn("Hybrid stt", 1.0, 2),
         {"Base-FUSE stt", stalls(L1DKind::BaseFuse, stt)},
         {"Base tag", stalls(L1DKind::BaseFuse, tag), 3, false},
         {"FA-FUSE stt", stalls(L1DKind::FaFuse, stt)},
         {"FA tag", stalls(L1DKind::FaFuse, tag)}},
        Summary::Mean);
    std::printf("\npaper reference: Base-FUSE -78%% stalls vs Hybrid; "
                "FA-FUSE a further -18%%; tag-search overhead ~3%% of "
                "Hybrid's STT stalls\n");
}

// ------------------------------------------------------------ Fig. 16

void
fig16Render(const ResultSet &results, unsigned)
{
    const L1DKind dy = L1DKind::DyFuse;
    const std::vector<double> trues =
        printTable(
            "Fig. 16 — read-level predictor accuracy", results.benchmarks(),
            {{"true", metric(results, dy, &Metrics::predTrue)},
             {"neutral", metric(results, dy, &Metrics::predNeutral), 3,
              false},
             {"false", metric(results, dy, &Metrics::predFalse), 3, false}},
            Summary::Mean)
            .front();

    double true_sum = 0.0;
    double worst_true = 1.0;
    for (double t : trues) {
        true_sum += t;
        if (t < worst_true && t > 0)
            worst_true = t;
    }
    std::printf("\nmeasured: mean true-rate %.1f%%, worst %.1f%%; paper "
                "reference: ~95%% average, 85%% worst case\n",
                100.0 * true_sum / static_cast<double>(trues.size()),
                100.0 * worst_true);
}

// ------------------------------------------------------------ Fig. 17

void
fig17Render(const ResultSet &results, unsigned)
{
    // Each kind's L1D energy over L1-SRAM's, or over 1 without any.
    std::vector<Column> columns;
    for (L1DKind kind : results.kinds()) {
        auto norm = [&results, kind](std::size_t r) {
            const double base =
                cell(results, r, L1DKind::L1Sram).energy.l1dTotal();
            return cell(results, r, kind).energy.l1dTotal()
                   / (base > 0 ? base : 1.0);
        };
        columns.push_back({toString(kind), norm, 2});
    }
    printTable("Fig. 17 — L1D energy normalised to L1-SRAM",
               results.benchmarks(), columns, Summary::Geomean);
    std::printf("\npaper reference: Dy-FUSE saves ~24%% L1D energy vs "
                "By-NVM and ~7%% vs FA-FUSE; overall FUSE saves ~53%% "
                "total energy vs the SRAM baseline\n");
}

// ------------------------------------------------------------ Fig. 18

void
fig18Render(const ResultSet &results, unsigned)
{
    auto dy = [&](std::size_t r, std::size_t v) -> const Metrics & {
        return cell(results, r, L1DKind::DyFuse, v);
    };
    std::vector<Column> ipc;
    std::vector<Column> miss;
    for (std::size_t v = 0; v < results.variantLabels().size(); ++v) {
        const std::string &label = results.variantLabels()[v];
        auto norm = [dy, v](std::size_t r) {
            const double first = dy(r, 0).ipc;
            return first > 0 ? dy(r, v).ipc / first : 0.0;
        };
        ipc.push_back({label, norm, 2});
        miss.push_back(
            {label, [dy, v](std::size_t r) { return dy(r, v).l1dMissRate; }});
    }
    printTable("Fig. 18a — Dy-FUSE IPC normalised to the 1/16 split",
               results.benchmarks(), ipc, Summary::Geomean);
    printTable("Fig. 18b — Dy-FUSE L1D miss rate", results.benchmarks(),
               miss);
    std::printf("\npaper reference: 1/2 SRAM fraction is optimal across "
                "the sweep\n");
}

// ------------------------------------------------------------ Fig. 19

void
fig19Render(const ResultSet &results, unsigned)
{
    printTable("Fig. 19 — Volta-class GPU, IPC normalised to L1-SRAM",
               results.benchmarks(), normalisedIpcColumns(results),
               Summary::Geomean);
    std::printf("\npaper reference (vs L1-SRAM): Base-FUSE +35%%, "
                "FA-FUSE +82%%, Dy-FUSE +96%%\n");
}

// ------------------------------------------------------------ Fig. 20

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

    // One column per configuration of @p rates, under @p headers.
    auto columns = [](const std::vector<std::vector<double>> &rates,
                      const std::vector<std::string> &headers,
                      int precision) {
        std::vector<Column> out;
        for (std::size_t c = 0; c < headers.size(); ++c)
            out.push_back({headers[c],
                           [&rates, c](std::size_t r) { return rates[r][c]; },
                           precision});
        return out;
    };
    printTable(
        "Fig. 20a — CBF false-positive rate vs hash functions (16 slots)",
        workloads,
        columns(hash_rates,
                {"1 func", "2 func", "3 func", "4 func", "5 func"}, 4));
    printTable(
        "Fig. 20b — CBF false-positive rate vs slots (3 hash functions)",
        workloads,
        columns(slot_rates, {"32 slots", "64 slots", "128 slots"}, 5));

    std::printf("\npaper reference: 3 hash functions cut false positives "
                "~98%% vs 1; 128 slots ~99%% vs 32\n");
}

// ------------------------------------------------------------ Table I

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

ExperimentSpec
Figure::makeSpec() const
{
    ExperimentSpec spec;
    spec.name = name;
    spec.base = base;
    if (benchmarks[0] != '\0')
        spec.benchmarks = ExperimentSpec::resolveBenchmarks(benchmarks);
    spec.kinds = kinds;
    spec.variants = variants;
    return spec;
}

const std::vector<Figure> &
figures()
{
    using K = L1DKind;
    static const std::vector<Figure> all = {
        {"fig01", "off-chip time and energy decomposition (L1-SRAM)",
         fig01Render, "all", {K::L1Sram}},
        {"fig03", "motivation: Vanilla vs STT-MRAM vs Oracle", fig03Render,
         "motivation", {K::L1Sram, K::PureNvm, K::Oracle}},
        {"fig06", "read-level analysis of every workload's blocks",
         fig06Render, "all", {}},
        {"fig07", "associativity approximation vs ideal full assoc",
         fig07Render, "all", {K::FaFuse}, "fermi",
         {{"approx", {{"l1d.approx.comparators", 4}}},
          {"ideal", {{"l1d.approx.comparators", 4096}}}}},
        {"fig13", "IPC of the L1D organisations vs L1-SRAM", fig13Render,
         "all",
         {K::L1Sram, K::ByNvm, K::FaSram, K::Hybrid, K::BaseFuse,
          K::FaFuse, K::DyFuse}},
        {"fig14", "L1D miss rate of the L1D organisations", fig14Render,
         "all",
         {K::L1Sram, K::ByNvm, K::FaSram, K::Hybrid, K::BaseFuse,
          K::FaFuse, K::DyFuse}},
        {"fig15", "L1D stall decomposition vs Hybrid", fig15Render, "all",
         {K::Hybrid, K::BaseFuse, K::FaFuse}},
        {"fig16", "read-level predictor accuracy under Dy-FUSE",
         fig16Render, "all", {K::DyFuse}},
        {"fig17", "L1D energy of the organisations vs L1-SRAM",
         fig17Render, "all",
         {K::L1Sram, K::ByNvm, K::BaseFuse, K::FaFuse, K::DyFuse}},
        {"fig18", "SRAM:STT area-ratio sensitivity of Dy-FUSE",
         fig18Render, "sensitivity", {K::DyFuse}, "fermi",
         {{"1/16", {{"l1d.sramAreaFraction", 1.0 / 16}}},
          {"1/8", {{"l1d.sramAreaFraction", 1.0 / 8}}},
          {"1/4", {{"l1d.sramAreaFraction", 1.0 / 4}}},
          {"1/2", {{"l1d.sramAreaFraction", 1.0 / 2}}},
          {"3/4", {{"l1d.sramAreaFraction", 3.0 / 4}}}}},
        {"fig19", "Volta-class study of the L1D organisations",
         fig19Render, "all",
         {K::L1Sram, K::ByNvm, K::Hybrid, K::BaseFuse, K::FaFuse,
          K::DyFuse},
         "volta"},
        {"fig20", "counting-Bloom-filter accuracy sweeps", fig20Render,
         "sensitivity", {}},
        {"table1", "instantiated Table I configuration matrix",
         table1Render, "", {}},
        {"table2", "per-workload APKI and bypass-ratio validation",
         table2Render, "all", {K::ByNvm}},
        {"table3", "transistor-count area estimates", table3Render, "",
         {}},
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
