/**
 * @file
 * FlatAddrMap: a small open-addressing hash table keyed by line address,
 * built for the simulation hot path. Backs the wide tag arrays'
 * residency index: one contiguous slot array, linear probing,
 * backward-shift deletion (no tombstones), and a capacity fixed at
 * construction so the table never rehashes mid-run.
 *
 * Pointer contract: value pointers returned by find()/insert()
 * are valid only until the next erase()/clear() — backward-shift deletion
 * moves slots. Callers on the hot path use the pointer immediately.
 */

#ifndef FUSE_COMMON_FLAT_MAP_HH
#define FUSE_COMMON_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitops.hh"
#include "common/types.hh"

namespace fuse
{

/**
 * Open-addressing Addr -> V map with a fixed slot count (a power of two,
 * at least 2x the requested capacity so probe chains stay short).
 */
template <typename V>
class FlatAddrMap
{
  public:
    /** @param capacity greatest number of live entries the caller will
     *  store (the map itself never refuses an insert below slot count;
     *  the owner enforces its own capacity, e.g. tag-array lines). */
    explicit FlatAddrMap(std::uint32_t capacity)
    {
        std::size_t slots = 8;
        while (slots < static_cast<std::size_t>(capacity) * 2)
            slots <<= 1;
        slots_.resize(slots);
        mask_ = slots - 1;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Value for @p key, or nullptr. */
    V *find(Addr key)
    {
        for (std::size_t i = home(key);; i = next(i)) {
            Slot &s = slots_[i];
            if (!s.used)
                return nullptr;
            if (s.key == key)
                return &s.value;
        }
    }

    const V *find(Addr key) const
    {
        return const_cast<FlatAddrMap *>(this)->find(key);
    }

    /**
     * Insert @p key with a default-constructed value (the caller fills it
     * in) and return the value slot. Pre-condition: @p key is absent and
     * the owner's capacity check passed — the table itself only requires
     * one free slot, which the 2x sizing guarantees.
     */
    V *insert(Addr key)
    {
        std::size_t i = home(key);
        while (slots_[i].used)
            i = next(i);
        slots_[i].used = true;
        slots_[i].key = key;
        slots_[i].value = V{};
        ++size_;
        return &slots_[i].value;
    }

    /** Remove @p key if present. Returns whether an entry was removed. */
    bool erase(Addr key)
    {
        for (std::size_t i = home(key);; i = next(i)) {
            if (!slots_[i].used)
                return false;
            if (slots_[i].key == key) {
                eraseSlot(i);
                return true;
            }
        }
    }

    void clear()
    {
        for (Slot &s : slots_)
            s.used = false;
        size_ = 0;
    }

  private:
    struct Slot
    {
        Addr key = 0;
        V value{};
        bool used = false;
    };

    std::size_t home(Addr key) const
    {
        // hashMix64 at salt 1 is bit-identical to the SplitMix64
        // finaliser this map always used (key + 1 * golden-gamma).
        return static_cast<std::size_t>(hashMix64(key, 1)) & mask_;
    }

    std::size_t next(std::size_t i) const { return (i + 1) & mask_; }

    /**
     * Backward-shift deletion at slot @p hole: walk the probe chain after
     * the hole and move back every entry whose home position does not lie
     * strictly behind it, so lookups never cross an empty slot.
     */
    void eraseSlot(std::size_t hole)
    {
        --size_;
        std::size_t i = next(hole);
        while (slots_[i].used) {
            const std::size_t h = home(slots_[i].key);
            // The entry at i may move back into the hole only if its home
            // lies at or before the hole along the probe chain; an entry
            // whose home is cyclically inside (hole, i] must stay put.
            const bool stuck = ((i - h) & mask_) < ((i - hole) & mask_);
            if (!stuck) {
                slots_[hole] = slots_[i];
                hole = i;
            }
            i = next(i);
        }
        slots_[hole].used = false;
    }

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
};

} // namespace fuse

#endif // FUSE_COMMON_FLAT_MAP_HH
