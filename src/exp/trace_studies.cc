#include "exp/trace_studies.hh"

#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cache/bloom.hh"
#include "fuse/assoc_approx.hh"
#include "workload/generator.hh"

namespace fuse
{

namespace
{

struct BlockStats
{
    std::uint32_t reads = 0;
    std::uint32_t writes = 0;
};

/** Classify one block's lifetime access counts. @c writes counts stores
 *  only — the fill is not a write here — so load-only data lands in the
 *  WORM/WORO classes and read-intensive needs exactly one store. */
ReadLevel
classify(const BlockStats &b)
{
    if (b.writes >= 2)
        return ReadLevel::WM;
    if (b.reads + b.writes <= 1)
        return ReadLevel::WORO;
    if (b.writes == 1 && b.reads >= 4)
        return ReadLevel::ReadIntensive;
    if (b.reads >= 2)
        return ReadLevel::WORM;
    return ReadLevel::WORO;
}

} // namespace

void
walkTrace(const BenchmarkSpec &spec, std::uint64_t instructions,
          const std::function<void(AccessType type, const Addr *begin,
                                   const Addr *end)> &fn)
{
    constexpr std::uint32_t kWarps = 48;
    KernelGenerator gen(spec, /*sm=*/0, /*num_sms=*/15, kWarps,
                        /*seed=*/1);
    // As in the SM, each warp holds its next memory instruction and a
    // credit of the compute instructions before it.
    struct Warp
    {
        MemInstruction instr;
        std::uint64_t credit = 0;
    };
    std::vector<Warp> warps(kWarps);
    for (WarpId w = 0; w < kWarps; ++w)
        warps[w].credit = gen.nextMemory(w, warps[w].instr);
    for (std::uint64_t i = 0; i < instructions; ++i) {
        const auto w = static_cast<WarpId>(i % kWarps);
        Warp &warp = warps[w];
        if (warp.credit) {
            --warp.credit;
            continue;
        }
        const std::vector<Addr> &addrs = warp.instr.addrs;
        fn(warp.instr.type, addrs.data(), addrs.data() + addrs.size());
        warp.credit = gen.nextMemory(w, warp.instr);
    }
}

ReadLevelMix
readLevelMix(const BenchmarkSpec &spec)
{
    std::unordered_map<Addr, BlockStats> blocks;
    walkTrace(spec, 240000,
              [&](AccessType type, const Addr *begin, const Addr *end) {
                  for (const Addr *a = begin; a != end; ++a) {
                      auto &b = blocks[lineAddr(*a)];
                      if (type == AccessType::Write)
                          ++b.writes;
                      else
                          ++b.reads;
                  }
              });
    ReadLevelMix mix;
    for (const auto &[line, b] : blocks) {
        (void)line;
        switch (classify(b)) {
          case ReadLevel::WM: mix.wm += 1; break;
          case ReadLevel::ReadIntensive: mix.readIntensive += 1; break;
          case ReadLevel::WORM: mix.worm += 1; break;
          case ReadLevel::WORO: mix.woro += 1; break;
        }
    }
    const double total = mix.wm + mix.readIntensive + mix.worm + mix.woro;
    if (total > 0) {
        mix.wm /= total;
        mix.readIntensive /= total;
        mix.worm /= total;
        mix.woro /= total;
    }
    return mix;
}

double
cbfFalsePositiveRate(const BenchmarkSpec &spec, std::uint32_t slots,
                     std::uint32_t hashes)
{
    // Each CBF guards one partition of the 512-line STT bank: with 128
    // CBFs that is a 4-line data set (the paper's operating point),
    // independent of the slot-count sweep. One AssocApprox partition of
    // that size replays it, saturation refresh included.
    const std::uint32_t capacity = 4;
    AssocApproxConfig config;
    config.numCbfs = 1;
    config.cbfSlots = slots;
    config.numHashes = hashes;
    AssocApprox approx(config, capacity);
    BloomAccuracy acc;
    // The ground truth: the partition's lines, evicted first in, first
    // out.
    std::deque<Addr> window;
    std::unordered_set<Addr> resident;

    walkTrace(spec, 120000, [&](AccessType, const Addr *begin,
                                const Addr *end) {
        for (const Addr *a = begin; a != end; ++a) {
            const Addr line = lineAddr(*a);
            const bool present = resident.count(line) != 0;
            acc.record(approx.test(line).positive, present);
            if (present)
                continue;
            approx.insert(line);
            resident.insert(line);
            window.push_back(line);
            if (window.size() > capacity) {
                const Addr victim = window.front();
                window.pop_front();
                approx.remove(victim);
                resident.erase(victim);
            }
        }
    });
    return acc.falsePositiveRate();
}

} // namespace fuse
