// Fixed-capacity packet vector for VPP-style burst processing.
//
// A PacketBatch holds up to kCapacity packets in arrival order together
// with the per-packet classification sideband (flow key + hash) the
// vector spine computes once per burst. A packet taken out of its slot
// is masked out *sparsely* — slots are never compacted, so the index of
// a packet never changes while it sits in a batch and downstream stages
// observe exactly the arrival order (the reorder-freedom guarantee the
// batch-vs-scalar differential relies on).
#pragma once

#include <array>
#include <cstdint>
#include <utility>

#include "net/flow.h"
#include "net/packet.h"

namespace ovsx::net {

class PacketBatch {
public:
    static constexpr std::size_t kCapacity = 32; // == Netdev::kBatchSize

    PacketBatch() = default;
    PacketBatch(const PacketBatch&) = delete;
    PacketBatch& operator=(const PacketBatch&) = delete;

    // Slots ever filled this cycle (taken ones included — indices are
    // stable).
    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    bool full() const { return count_ == kCapacity; }

    // Appends a packet; returns false (packet untouched) when full.
    bool add(Packet&& pkt)
    {
        if (full()) return false;
        slots_[count_] = std::move(pkt);
        alive_ |= bit(count_);
        ++count_;
        return true;
    }

    bool alive(std::size_t i) const { return i < count_ && (alive_ & bit(i)); }

    Packet& pkt(std::size_t i) { return slots_[i]; }
    const Packet& pkt(std::size_t i) const { return slots_[i]; }
    FlowKey& key(std::size_t i) { return keys_[i]; }
    const FlowKey& key(std::size_t i) const { return keys_[i]; }
    std::uint64_t& hash(std::size_t i) { return hashes_[i]; }
    std::uint64_t hash(std::size_t i) const { return hashes_[i]; }

    // Moves the packet out (in-order resolution) and masks the slot;
    // the batch keeps no claim on it.
    Packet take(std::size_t i)
    {
        Packet p = std::move(slots_[i]);
        alive_ &= ~bit(i);
        return p;
    }

    // Destroys any remaining packets and resets for reuse.
    void clear()
    {
        for (std::size_t i = 0; i < count_; ++i) {
            if (alive_ & bit(i)) slots_[i] = Packet{};
        }
        alive_ = 0;
        count_ = 0;
    }

private:
    static std::uint32_t bit(std::size_t i) { return std::uint32_t{1} << i; }

    std::array<Packet, kCapacity> slots_;
    std::array<FlowKey, kCapacity> keys_{};
    std::array<std::uint64_t, kCapacity> hashes_{};
    std::uint32_t alive_ = 0;
    std::size_t count_ = 0;
};

} // namespace ovsx::net
