#include "gpu/coalescer.hh"

#include "prof/prof.hh"

namespace fuse
{

void
Coalescer::coalesceBatch(InstructionBatch &batch)
{
    FUSE_PROF_COUNT(coalescer, batches);
    // Stable dedupe of each memory instruction's span of the shared
    // buffer: lane l's line survives iff no earlier lane of the span
    // touched the same line. Lane counts are tiny (<= warp size), so the
    // quadratic scan beats any hashing scheme. Spans shrink in place:
    // survivors compact to the span's start and txEnd moves down; later
    // spans keep their offsets (the issue path walks [txBegin, txEnd)).
    for (std::uint32_t i = 0; i < batch.size; ++i) {
        InstructionBatch::Decoded &d = batch.instr[i];
        if (!d.isMem)
            continue;
        Addr *const span = batch.addrs.data() + d.txBegin;
        const std::uint32_t lanes = d.txEnd - d.txBegin;
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
        d.txEnd = static_cast<std::uint16_t>(d.txBegin + out);
    }
}

} // namespace fuse
