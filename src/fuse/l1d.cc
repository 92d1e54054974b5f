#include "fuse/l1d.hh"

namespace fuse
{

const char *
toString(L1DKind kind)
{
    switch (kind) {
      case L1DKind::L1Sram: return "L1-SRAM";
      case L1DKind::FaSram: return "FA-SRAM";
      case L1DKind::ByNvm: return "By-NVM";
      case L1DKind::PureNvm: return "STT-MRAM";
      case L1DKind::Hybrid: return "Hybrid";
      case L1DKind::BaseFuse: return "Base-FUSE";
      case L1DKind::FaFuse: return "FA-FUSE";
      case L1DKind::DyFuse: return "Dy-FUSE";
      case L1DKind::Oracle: return "Oracle";
    }
    return "?";
}

bool
l1dKindFromString(const std::string &name, L1DKind &kind)
{
    for (L1DKind k : allL1DKinds()) {
        if (name == toString(k)) {
            kind = k;
            return true;
        }
    }
    return false;
}

const std::vector<L1DKind> &
allL1DKinds()
{
    static const std::vector<L1DKind> kinds = {
        L1DKind::L1Sram, L1DKind::FaSram,   L1DKind::ByNvm,
        L1DKind::PureNvm, L1DKind::Hybrid,  L1DKind::BaseFuse,
        L1DKind::FaFuse,  L1DKind::DyFuse,  L1DKind::Oracle,
    };
    return kinds;
}

const char *
toString(ReadLevel level)
{
    switch (level) {
      case ReadLevel::WM: return "WM";
      case ReadLevel::ReadIntensive: return "read-intensive";
      case ReadLevel::WORM: return "WORM";
      case ReadLevel::WORO: return "WORO";
    }
    return "?";
}

void
L1DCache::countHit(const MemRequest &req)
{
    ++(*statHits_);
    ++(*(req.isWrite() ? statWriteHits_ : statReadHits_));
}

void
L1DCache::countMiss(const MemRequest &req)
{
    ++(*statMisses_);
    ++(*(req.isWrite() ? statWriteMisses_ : statReadMisses_));
}

void
L1DCache::countBypass(const MemRequest &req)
{
    ++(*statBypasses_);
    ++(*(req.isWrite() ? statWriteBypasses_ : statReadBypasses_));
}

void
L1DCache::writeBack(const CacheLine &line, Cycle now)
{
    if (!line.dirty)
        return;
    MemRequest wb;
    wb.addr = line.tag << kLineShift;
    wb.smId = sm_;
    wb.type = AccessType::Write;
    hierarchy_->writeback(wb, now);
    ++(*statWritebacks_);
}

double
L1DCache::missRate() const
{
    const double hits = stats_.get("hits");
    const double misses = stats_.get("misses") + stats_.get("bypasses");
    const double total = hits + misses;
    return total > 0 ? misses / total : 0.0;
}

} // namespace fuse
