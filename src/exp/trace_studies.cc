#include "exp/trace_studies.hh"

#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cache/bloom.hh"
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

/** Classify one block's lifetime access counts (the fill that brings a
 *  block on chip counts as its first write, hence "write-once" families
 *  for load-only data). */
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
    std::vector<InstructionBatch> batches(kWarps);
    for (std::uint64_t i = 0; i < instructions; ++i) {
        const auto w = static_cast<WarpId>(i % kWarps);
        InstructionBatch &batch = batches[w];
        if (batch.exhausted())
            gen.nextBatch(w, batch);
        const InstructionBatch::Decoded &d = batch.instr[batch.consumed++];
        if (d.isMem)
            fn(d.type, batch.addrs.data() + d.txBegin,
               batch.addrs.data() + d.txEnd);
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
    CountingBloomFilter cbf(slots, hashes);
    BloomAccuracy acc;
    std::deque<Addr> window;
    std::unordered_set<Addr> resident;
    // Each CBF guards one partition of the 512-line STT bank: with 128
    // CBFs that is a 4-line data set (the paper's operating point),
    // independent of the slot-count sweep.
    const std::size_t capacity = 4;

    std::uint64_t last_saturations = 0;
    walkTrace(spec, 120000, [&](AccessType, const Addr *begin,
                                const Addr *end) {
        for (const Addr *a = begin; a != end; ++a) {
            const Addr line = lineAddr(*a);
            const bool present = resident.count(line) != 0;
            acc.record(cbf.test(line), present);
            if (present)
                continue;
            cbf.insert(line);
            resident.insert(line);
            window.push_back(line);
            if (window.size() > capacity) {
                Addr victim = window.front();
                window.pop_front();
                cbf.remove(victim);
                resident.erase(victim);
                // Saturation refresh, as in AssocApprox::refresh().
                if (cbf.saturations() != last_saturations) {
                    cbf.clear();
                    for (Addr r : resident)
                        cbf.insert(r);
                    last_saturations = cbf.saturations();
                }
            }
        }
    });
    return acc.falsePositiveRate();
}

} // namespace fuse
