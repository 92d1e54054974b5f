/**
 * @file
 * workload_characterization: inspect a benchmark generator's behaviour
 * without running the timing model — stream composition, measured APKI,
 * write mix, coalescing behaviour, and the read-level block taxonomy the
 * FUSE predictor exploits (Fig. 6's readLevelMix()). Useful when adding
 * new workloads.
 *
 * Usage: workload_characterization [benchmark]   (default: all)
 */

#include <cstdio>
#include <string>
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
};

Profile
profile(const fuse::BenchmarkSpec &spec)
{
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
                    });

    Profile p;
    p.apki = 1000.0 * static_cast<double>(transactions)
             / (static_cast<double>(instrs) * fuse::kWarpSize);
    p.writeFraction = mem_instrs
                          ? static_cast<double>(writes) / mem_instrs
                          : 0.0;
    p.transPerMemInstr =
        mem_instrs ? static_cast<double>(transactions) / mem_instrs : 0.0;
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
                   "writes/mem", "trans/mem", "WM", "read-int", "WORM",
                   "WORO"});
    for (const auto &name : names) {
        const auto &spec = fuse::benchmarkByName(name);
        const Profile p = profile(spec);
        const fuse::ReadLevelMix mix = fuse::readLevelMix(spec);
        report.row({spec.name, toString(spec.suite),
                    fuse::fmt(spec.apki, 1), fuse::fmt(p.apki, 1),
                    fuse::fmt(p.writeFraction, 2),
                    fuse::fmt(p.transPerMemInstr, 2),
                    fuse::fmt(mix.wm, 3), fuse::fmt(mix.readIntensive, 3),
                    fuse::fmt(mix.worm, 3), fuse::fmt(mix.woro, 3)});
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
