#include "fuse/tag_queue.hh"

#include "common/log.hh"

namespace fuse
{

TagQueue::TagQueue(std::uint32_t capacity, StatGroup &stats)
    : capacity_(capacity),
      statPushes_(&stats.scalar("tag_queue_pushes")),
      statFlushes_(&stats.scalar("tag_queue_flushes")),
      statFlushedEntries_(&stats.scalar("tag_queue_flushed_entries"))
{
}

void
TagQueue::push(const TagQueueEntry &entry)
{
    if (full())
        fuse_panic("push into a full tag queue (%u entries)", capacity_);
    queue_.push_back(entry);
    ++(*statPushes_);
}

const TagQueueEntry *
TagQueue::front() const
{
    return queue_.empty() ? nullptr : &queue_.front();
}

void
TagQueue::pop()
{
    if (!queue_.empty())
        queue_.pop_front();
}

void
TagQueue::flush()
{
    ++(*statFlushes_);
    statFlushedEntries_->add(queue_.size());
    queue_.clear();
}

} // namespace fuse
