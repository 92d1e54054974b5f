#include "fuse/oracle_l1d.hh"

namespace fuse
{

L1DResult
OracleL1D::access(const MemRequest &req, Cycle now)
{
    const Addr line = req.line();
    if (resident_.count(line)) {
        countHit(req);
        return {L1DResult::Kind::Hit, now + 1};
    }
    // Compulsory miss: fetch once, resident forever.
    countMiss(req);
    resident_.insert(line);
    return {L1DResult::Kind::Miss, hierarchy_->access(req, now)};
}

} // namespace fuse
