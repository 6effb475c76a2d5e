// Hashed timer wheel for conntrack idle expiry.
//
// Replaces the O(total-connections) expire_idle() scans: entries are
// filed into buckets keyed by their quantized last-seen time (virtual
// ns >> tick shift), and one expiry pass pops only the buckets at or
// below the cutoff. Each connection owns exactly one node: traffic on a
// known connection only updates the entry's last-seen time, and the
// node stays where it was filed. When an expiry pass pops a node whose
// entry was refreshed since (last-seen >= cutoff), the node is refiled
// once under the entry's current last-seen bucket. So steady-state
// memory is one node per live connection whatever the packet rate, a
// live connection is revisited at most once per idle timeout, and work
// per expiry call is proportional to the nodes in due buckets (expired
// + refiled + stale), never to the table size — the bounded-per-tick
// contract the million-connection churn bench asserts. Expiry is never
// early: every popped node's entry is checked against the cutoff.
//
// The caller resolves liveness: a popped node whose id is gone (the
// connection was torn down by RST) is stale and is dropped. Until an
// expiry pass reaches its bucket it stays filed, so a caller that tears
// connections down outside expiry counts its stale nodes and calls
// compact() once they outnumber the live ones. The wheel holds plain
// ids, never pointers, so stale nodes are harmless; ids come from a
// monotonically increasing counter and are never reused.
//
// Concurrency: externally locked. Each conntrack shard embeds one wheel
// and accesses it only under that shard's mutex.
#pragma once

#include <cstdint>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace ovsx::kern {

template <typename Id> class TimerWheel {
public:
    // 2^20 ns ~ 1ms buckets: fine enough that an idle cutoff lands
    // within one bucket of the exact scan, coarse enough that one pass
    // per quantum amortizes over many packets.
    static constexpr std::uint32_t kDefaultTickShift = 20;

    explicit TimerWheel(std::uint32_t tick_shift = kDefaultTickShift) : shift_(tick_shift) {}

    std::uint64_t bucket_of(sim::Nanos t) const
    {
        return static_cast<std::uint64_t>(t) >> shift_;
    }

    // Files `id` under last-seen time `t`.
    void enqueue(Id id, sim::Nanos t)
    {
        buckets_[bucket_of(t)].push_back(id);
        ++nodes_;
    }

    enum class Verdict {
        Expired, // caller erased the entry
        Stale,   // entry gone (or handed elsewhere): drop the node
        Keep     // entry live and not yet idle: refile the node
    };

    struct ExpireStats {
        std::size_t visited = 0;
        std::size_t expired = 0;
        std::size_t stale = 0;
        std::size_t kept = 0;
    };

    // Visits every node in buckets <= bucket_of(cutoff), in filing
    // order. `fn(id, last_seen)` returns the Verdict; on Expired the
    // caller has already erased the entry, on Keep it has stored the
    // entry's current last-seen time (>= cutoff) in `last_seen` and
    // the node is refiled under that bucket once the pass is done, so
    // a refiled node is never visited twice in one pass.
    template <typename Fn> ExpireStats expire(sim::Nanos cutoff, Fn&& fn)
    {
        ExpireStats st;
        const std::uint64_t qcut = bucket_of(cutoff);
        std::vector<std::pair<Id, sim::Nanos>> kept;
        while (!buckets_.empty()) {
            auto it = buckets_.begin();
            if (it->first > qcut) break;
            for (const Id& id : it->second) {
                ++st.visited;
                sim::Nanos last_seen = cutoff;
                switch (fn(id, last_seen)) {
                case Verdict::Expired:
                    ++st.expired;
                    break;
                case Verdict::Stale:
                    ++st.stale;
                    break;
                case Verdict::Keep:
                    ++st.kept;
                    kept.emplace_back(id, last_seen);
                    break;
                }
            }
            nodes_ -= it->second.size();
            buckets_.erase(it);
        }
        for (const auto& [id, t] : kept) enqueue(id, t);
        return st;
    }

    // Drops every node whose id fails `live(id)`, keeping filing order.
    // O(nodes): run it only once stale nodes outnumber live ones, so
    // each pass drops at least half the wheel.
    template <typename Live> void compact(Live&& live)
    {
        for (auto it = buckets_.begin(); it != buckets_.end();) {
            std::vector<Id>& ids = it->second;
            const std::size_t before = ids.size();
            std::erase_if(ids, [&](const Id& id) { return !live(id); });
            nodes_ -= before - ids.size();
            it = ids.empty() ? buckets_.erase(it) : std::next(it);
        }
    }

    // Filed nodes, including stale ones not yet popped (diagnostics).
    std::size_t nodes() const { return nodes_; }
    std::size_t bucket_count() const { return buckets_.size(); }

    void clear()
    {
        buckets_.clear();
        nodes_ = 0;
    }

private:
    std::uint32_t shift_;
    // Ordered sparse buckets: expiry pops from the front; virtual time
    // only grows, so the map stays small (live span / tick quantum).
    std::map<std::uint64_t, std::vector<Id>> buckets_;
    std::size_t nodes_ = 0;
};

} // namespace ovsx::kern
