#include "fuse/swap_buffer.hh"

#include "common/log.hh"

namespace fuse
{

SwapBuffer::SwapBuffer(std::uint32_t capacity, StatGroup &stats)
    : capacity_(capacity), statPushes_(&stats.scalar("swap_buffer_pushes"))
{
    entries_.reserve(capacity);
}

void
SwapBuffer::push(const CacheLine &line)
{
    if (full())
        fuse_panic("push into a full swap buffer (%u entries)", capacity_);
    entries_.push_back(line);
    ++(*statPushes_);
}

CacheLine *
SwapBuffer::find(Addr line_addr)
{
    for (auto &line : entries_) {
        if (line.valid && line.tag == line_addr)
            return &line;
    }
    return nullptr;
}

std::vector<Addr>
SwapBuffer::residents() const
{
    std::vector<Addr> lines;
    lines.reserve(entries_.size());
    for (const auto &line : entries_) {
        if (line.valid)
            lines.push_back(line.tag);
    }
    return lines;
}

std::optional<CacheLine>
SwapBuffer::release(Addr line_addr)
{
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->valid && it->tag == line_addr) {
            CacheLine copy = *it;
            entries_.erase(it);
            return copy;
        }
    }
    return std::nullopt;
}

} // namespace fuse
