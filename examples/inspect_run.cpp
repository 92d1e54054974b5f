/**
 * @file
 * inspect_run: deep-dive one (benchmark, L1D organisation) pair — dumps
 * every statistic group of the simulated GPU. The debugging companion to
 * quickstart.
 *
 * Usage: inspect_run [benchmark] [config] (default: ATAX Dy-FUSE)
 *   config in: L1-SRAM FA-SRAM By-NVM STT-MRAM Hybrid Base-FUSE FA-FUSE
 *              Dy-FUSE Oracle; any other name exits 1
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "fuse/hybrid_l1d.hh"
#include "sim/simulator.hh"

int
main(int argc, char **argv)
{
    const std::string benchmark = argc > 1 ? argv[1] : "ATAX";
    const std::string kind_name = argc > 2 ? argv[2] : "Dy-FUSE";
    fuse::L1DKind kind;
    if (!fuse::l1dKindFromString(kind_name, kind)) {
        std::fprintf(stderr, "unknown config '%s'; valid configs:",
                     kind_name.c_str());
        for (fuse::L1DKind k : fuse::allL1DKinds())
            std::fprintf(stderr, " %s", fuse::toString(k));
        std::fprintf(stderr, "\n");
        return 1;
    }

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
