#include "gpu/coalescer.hh"

namespace fuse
{

std::uint32_t
Coalescer::coalesceSpan(Addr *span, std::uint32_t lanes)
{
    // Stable dedupe: lane l's line survives iff no earlier lane touched
    // the same line. Lane counts are tiny (<= warp size), so the
    // quadratic scan beats any hashing scheme.
    std::uint32_t out = 0;
    for (std::uint32_t l = 0; l < lanes; ++l) {
        const Addr base = lineBase(span[l]);
        bool seen = false;
        for (std::uint32_t j = 0; j < out; ++j) {
            if (span[j] == base) {
                seen = true;
                break;
            }
        }
        if (!seen)
            span[out++] = base;
    }
    return out;
}

void
Coalescer::coalesceBatch(InstructionBatch &batch)
{
    // Later spans keep their offsets (a reader walks [txBegin, txEnd)).
    for (std::uint32_t i = 0; i < batch.size; ++i) {
        InstructionBatch::Decoded &d = batch.instr[i];
        if (d.isMem)
            d.txEnd = static_cast<std::uint16_t>(
                d.txBegin + coalesceSpan(batch.addrs.data() + d.txBegin,
                                         d.txEnd - d.txBegin));
    }
}

} // namespace fuse
