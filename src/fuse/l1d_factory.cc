#include "fuse/l1d_factory.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"
#include "fuse/hybrid_l1d.hh"
#include "fuse/oracle_l1d.hh"
#include "fuse/single_bank_l1d.hh"

namespace fuse
{

namespace
{
/** Round down to a whole number of cache lines, at least one. */
std::uint32_t
roundToLines(double bytes)
{
    auto lines = static_cast<std::uint32_t>(bytes / kLineSize);
    return std::max<std::uint32_t>(1, lines) * kLineSize;
}
} // namespace

std::uint32_t
L1DParams::hybridSramBytes() const
{
    return roundToLines(areaBudgetBytes * sramAreaFraction);
}

std::uint32_t
L1DParams::hybridSttBytes() const
{
    return roundToLines(areaBudgetBytes * (1.0 - sramAreaFraction)
                        * sttDensity);
}

std::uint32_t
L1DParams::pureNvmBytes() const
{
    return roundToLines(areaBudgetBytes * sttDensity);
}

std::unique_ptr<L1DCache>
makeL1D(L1DKind kind, const L1DParams &params, MemoryHierarchy &hierarchy,
        SmId sm)
{
    switch (kind) {
      case L1DKind::L1Sram:
      case L1DKind::FaSram:
      case L1DKind::ByNvm:
      case L1DKind::PureNvm:
        return std::make_unique<SingleBankL1D>(kind, params, hierarchy, sm);
      case L1DKind::Hybrid:
      case L1DKind::BaseFuse:
      case L1DKind::FaFuse:
      case L1DKind::DyFuse:
        return std::make_unique<HybridL1D>(kind, params, hierarchy, sm);
      case L1DKind::Oracle:
        return std::make_unique<OracleL1D>(hierarchy);
    }
    fuse_panic("unknown L1D kind");
}

} // namespace fuse
