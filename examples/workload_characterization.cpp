/**
 * @file
 * workload_characterization: inspect a benchmark generator's behaviour
 * without running the timing model — stream composition, measured APKI,
 * write mix, coalescing behaviour, and the read-level block taxonomy the
 * FUSE predictor exploits. Useful when adding new workloads.
 *
 * Usage: workload_characterization [benchmark]   (default: all)
 */

#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "exp/trace_studies.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"

namespace
{

struct Profile
{
    double apki = 0.0;          ///< transactions / kilo-thread-instr.
    double writeFraction = 0.0; ///< stores / memory instructions.
    double transPerMemInstr = 0.0;
    double wormFraction = 0.0;  ///< blocks filled once, read multiple.
    double woroFraction = 0.0;  ///< blocks touched effectively once.
    double wmFraction = 0.0;    ///< blocks written multiple times.
};

Profile
profile(const fuse::BenchmarkSpec &spec)
{
    std::unordered_map<fuse::Addr, std::pair<std::uint32_t,
                                             std::uint32_t>> blocks;
    const std::uint64_t instrs = 200000;
    std::uint64_t mem_instrs = 0;
    std::uint64_t writes = 0;
    std::uint64_t transactions = 0;
    fuse::walkTrace(spec, instrs,
                    [&](fuse::AccessType type, const fuse::Addr *begin,
                        const fuse::Addr *end) {
                        ++mem_instrs;
                        writes += type == fuse::AccessType::Write;
                        transactions +=
                            static_cast<std::uint64_t>(end - begin);
                        for (const fuse::Addr *a = begin; a != end; ++a) {
                            auto &b = blocks[fuse::lineAddr(*a)];
                            if (type == fuse::AccessType::Write)
                                ++b.second;
                            else
                                ++b.first;
                        }
                    });

    Profile p;
    p.apki = 1000.0 * static_cast<double>(transactions)
             / (static_cast<double>(instrs) * fuse::kWarpSize);
    p.writeFraction = mem_instrs
                          ? static_cast<double>(writes) / mem_instrs
                          : 0.0;
    p.transPerMemInstr =
        mem_instrs ? static_cast<double>(transactions) / mem_instrs : 0.0;
    double wm = 0;
    double worm = 0;
    double woro = 0;
    for (const auto &[line, rw] : blocks) {
        auto [reads, wr] = rw;
        if (wr >= 2)
            wm += 1;
        else if (reads + wr <= 1)
            woro += 1;
        else if (reads >= 2)
            worm += 1;
        else
            woro += 1;
    }
    const double total = static_cast<double>(blocks.size());
    if (total > 0) {
        p.wmFraction = wm / total;
        p.wormFraction = worm / total;
        p.woroFraction = woro / total;
    }
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> names;
    if (argc > 1) {
        names.push_back(argv[1]);
    } else {
        for (const auto &b : fuse::allBenchmarks())
            names.push_back(b.name);
    }

    fuse::Report report("workload characterization (trace-level)");
    report.header({"workload", "suite", "APKI (tgt)", "APKI (meas)",
                   "writes/mem", "trans/mem", "WM", "WORM", "WORO"});
    for (const auto &name : names) {
        const auto &spec = fuse::benchmarkByName(name);
        Profile p = profile(spec);
        report.row({spec.name, toString(spec.suite),
                    fuse::fmt(spec.apki, 1), fuse::fmt(p.apki, 1),
                    fuse::fmt(p.writeFraction, 2),
                    fuse::fmt(p.transPerMemInstr, 2),
                    fuse::fmt(p.wmFraction, 2),
                    fuse::fmt(p.wormFraction, 2),
                    fuse::fmt(p.woroFraction, 2)});
        std::fflush(stdout);
    }
    report.print();

    std::printf("\nStreams of the first requested workload:\n");
    const auto &spec = fuse::benchmarkByName(names.front());
    for (std::size_t s = 0; s < spec.streams.size(); ++s) {
        const auto &st = spec.streams[s];
        std::printf("  stream %zu: %-16s weight=%.2f writeProb=%.2f "
                    "footprint=%llu lines divergence=%u\n",
                    s, toString(st.kind), st.weight, st.writeProb,
                    static_cast<unsigned long long>(st.footprintLines),
                    st.divergence);
    }
    return 0;
}
