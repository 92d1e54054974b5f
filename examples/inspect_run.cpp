/**
 * @file
 * inspect_run: deep-dive one (benchmark, L1D organisation) pair — dumps
 * every statistic group of the simulated GPU. The debugging companion to
 * quickstart.
 *
 * Usage: inspect_run [benchmark] [config]
 *   config in: L1-SRAM FA-SRAM By-NVM STT-MRAM Hybrid Base-FUSE FA-FUSE
 *              Dy-FUSE Oracle
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "fuse/hybrid_l1d.hh"
#include "sim/simulator.hh"

namespace
{

fuse::L1DKind
parseKind(const std::string &name)
{
    using fuse::L1DKind;
    for (L1DKind k : {L1DKind::L1Sram, L1DKind::FaSram, L1DKind::ByNvm,
                      L1DKind::PureNvm, L1DKind::Hybrid, L1DKind::BaseFuse,
                      L1DKind::FaFuse, L1DKind::DyFuse, L1DKind::Oracle}) {
        if (name == fuse::toString(k))
            return k;
    }
    std::fprintf(stderr, "unknown config '%s', using Dy-FUSE\n",
                 name.c_str());
    return L1DKind::DyFuse;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string benchmark = argc > 1 ? argv[1] : "ATAX";
    const fuse::L1DKind kind =
        parseKind(argc > 2 ? argv[2] : "Dy-FUSE");

    fuse::SimConfig config = fuse::SimConfig::fermi();
    fuse::Gpu gpu(config.gpu, kind, config.l1d,
                  fuse::benchmarkByName(benchmark));
    gpu.run();

    std::printf("benchmark=%s config=%s cycles=%llu instructions=%llu "
                "ipc=%.3f miss_rate=%.3f\n\n",
                benchmark.c_str(), fuse::toString(kind),
                static_cast<unsigned long long>(gpu.cycles()),
                static_cast<unsigned long long>(gpu.totalInstructions()),
                gpu.ipc(), gpu.l1dMissRate());

    // SM 0 is representative (workloads are symmetric across SMs).
    std::printf("--- SM0 ---\n");
    gpu.sms()[0]->stats().dump(std::cout);
    std::printf("--- SM0 L1D ---\n");
    gpu.sms()[0]->l1d().stats().dump(std::cout);
    if (auto *hybrid =
            dynamic_cast<fuse::HybridL1D *>(&gpu.sms()[0]->l1d())) {
        std::printf("--- SM0 predictor ---\n");
        hybrid->predictor().stats().dump(std::cout);
        const auto &bench = fuse::benchmarkByName(benchmark);
        for (std::uint32_t s = 0; s < bench.streams.size(); ++s) {
            for (bool wr : {false, true}) {
                // Reconstruct the stream PCs the generator uses.
                fuse::Addr pc = 0x1000 + (s * 2 + (wr ? 1 : 0)) * 4;
                std::printf("stream %u (%s) %s pc=0x%llx -> %s\n", s,
                            toString(bench.streams[s].kind),
                            wr ? "store" : "load",
                            static_cast<unsigned long long>(pc),
                            toString(hybrid->predictor().classify(pc)));
            }
        }
    }
    std::printf("--- off-chip ---\n");
    gpu.hierarchy().stats().dump(std::cout);
    std::printf("--- NoC ---\n");
    gpu.hierarchy().noc().stats().dump(std::cout);
    std::printf("--- DRAM ---\n");
    gpu.hierarchy().dram().stats().dump(std::cout);
    gpu.hierarchy().l2().finalizeStats();
    std::printf("--- L2 (aggregated) ---\n");
    gpu.hierarchy().l2().stats().dump(std::cout);
    return 0;
}
