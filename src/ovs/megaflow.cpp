#include "ovs/megaflow.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "obs/appctl.h"
#include "obs/coverage.h"
#include "san/audit.h"

namespace ovsx::ovs {

// Per-mask statistics, shared by every shard's slice of the subtable
// so ranking and flow counts are shard-count-invariant. Defined at
// namespace scope (not anonymous) because ShardState members name it.
struct MegaflowSubtableStats {
    std::atomic<std::uint64_t> hit_count{0};
    std::atomic<std::size_t> size{0}; // flows under this mask, all shards
};

// An immutable snapshot of one hash bucket. Writers never mutate a
// published Bucket: they copy, swap the slot pointer, and retire the
// old one through the epoch domain.
struct MegaflowCache::Bucket {
    std::vector<CachedFlowPtr> flows;
};

// One shard's slot array for one subtable. The slot pointers are the
// only mutable part readers see; `cap` is fixed for the array's
// lifetime (growth publishes a whole new array via a new ShardState)
// and `count` is writer-side bookkeeping under the shard lock.
struct MegaflowCache::BucketArray {
    explicit BucketArray(std::size_t capacity)
        : cap(capacity), slots(std::make_unique<std::atomic<const Bucket*>[]>(capacity))
    {
    }
    ~BucketArray()
    {
        for (std::size_t i = 0; i < cap; ++i) delete slots[i].load(std::memory_order_relaxed);
    }
    BucketArray(const BucketArray&) = delete;
    BucketArray& operator=(const BucketArray&) = delete;

    std::size_t cap; // power of two
    std::unique_ptr<std::atomic<const Bucket*>[]> slots;
    std::size_t count = 0; // flows in this shard's slice (shard lock)
};

// The skeleton a shard publishes: the subtable probe order. Immutable
// once published; every shard's `subs` has the same masks in the same
// order (structural ops republish all shards under every shard lock),
// which is what lets shard 0's skeleton act as the probe-order oracle.
struct MegaflowCache::ShardState {
    struct Sub {
        net::FlowMask mask;
        std::shared_ptr<MegaflowSubtableStats> stats; // shared across shards
        std::shared_ptr<BucketArray> buckets;         // this shard's slice
    };
    std::vector<Sub> subs;
};

struct MegaflowCache::Shard {
    explicit Shard(std::uint32_t i) : mu(sync::shard_lock_name("ovs.megaflow.shard", i)) {}
    ~Shard() { delete state.load(std::memory_order_relaxed); }

    sync::Mutex mu;
    // Owned by the shard; readers access it only through an epoch pin,
    // writers replace it under mu and retire the old skeleton.
    std::atomic<const ShardState*> state{nullptr};
};

// Locks every shard in ascending index order. Shard mutexes are
// constructed in index order, so their lock ids ascend with the index
// and this acquisition order can never invert the ABBA DAG against a
// single-shard holder or another AllShardsGuard.
class MegaflowCache::AllShardsGuard {
public:
    explicit AllShardsGuard(const MegaflowCache& mf) OVSX_NO_THREAD_SAFETY_ANALYSIS : mf_(mf)
    {
        for (const auto& s : mf_.shards_) s->mu.lock();
    }
    ~AllShardsGuard() OVSX_NO_THREAD_SAFETY_ANALYSIS
    {
        for (auto it = mf_.shards_.rbegin(); it != mf_.shards_.rend(); ++it) (*it)->mu.unlock();
    }
    AllShardsGuard(const AllShardsGuard&) = delete;
    AllShardsGuard& operator=(const AllShardsGuard&) = delete;

private:
    const MegaflowCache& mf_;
};

namespace {

constexpr std::size_t kMinBuckets = 8;

std::uint64_t flow_audit_key(const net::FlowKey& masked, const net::FlowMask& mask)
{
    return masked.hash(mask.hash());
}

std::uint32_t clamp_shards(std::uint32_t n)
{
    std::uint32_t p = 1;
    while (p < n && p < MegaflowCache::kMaxShards) p <<= 1;
    return p;
}

std::uint32_t log2_pow2(std::uint32_t n)
{
    std::uint32_t s = 0;
    while ((1u << s) < n) ++s;
    return s;
}

std::size_t pow2_at_least(std::size_t n)
{
    std::size_t p = kMinBuckets;
    while (p < n) p <<= 1;
    return p;
}

} // namespace

MegaflowCache::MegaflowCache(std::uint32_t shards)
{
    nshards_ = clamp_shards(shards);
    shard_shift_ = log2_pow2(nshards_);
    shards_.reserve(nshards_);
    for (std::uint32_t i = 0; i < nshards_; ++i) {
        shards_.push_back(std::make_unique<Shard>(i));
        shards_.back()->state.store(new ShardState{}, std::memory_order_release);
    }
    shards_token_ = obs::shards_register("ovs.megaflow", [this] {
        obs::Value v = obs::Value::object();
        v.set("shard_count", static_cast<std::uint64_t>(nshards_));
        obs::Value occ = obs::Value::array();
        for (std::uint32_t s = 0; s < nshards_; ++s) {
            occ.push(static_cast<std::uint64_t>(shard_flow_count(s)));
        }
        v.set("occupancy", std::move(occ));
        return v;
    });
}

MegaflowCache::~MegaflowCache()
{
    obs::shards_unregister(shards_token_);
    // Run every pending reclaim before the shards (and their final
    // skeletons) are torn down.
    epoch_domain_.synchronize();
    san::audit_clear(san_scope_, "mfc.flow");
}

void MegaflowCache::publish_state(std::uint32_t s, const ShardState* next)
{
    const ShardState* old = shards_[s]->state.exchange(next, std::memory_order_acq_rel);
    epoch_domain_.retire([old] { delete old; });
}

MegaflowCache::LookupResult MegaflowCache::lookup(const net::FlowKey& key)
{
    // Lock-free: no shard lock and deliberately no lockset access —
    // the epoch pin (not a mutex) is what keeps retired skeletons and
    // buckets alive until this probe unpins.
    LookupResult res;
    sync::EpochGuard pin(epoch_domain_);
    const ShardState* oracle = shards_[0]->state.load(std::memory_order_acquire);
    for (std::size_t r = 0; r < oracle->subs.size(); ++r) {
        const net::FlowMask& mask = oracle->subs[r].mask;
        ++res.probes;
        const std::uint64_t h = mask.masked_hash(key);
        const std::uint32_t s = shard_of_hash(h);
        const ShardState* st =
            s == 0 ? oracle : shards_[s]->state.load(std::memory_order_acquire);
        // A shard caught mid-republish (different length or mask at
        // this rank) is skipped: a transient safe miss, never a block.
        if (r >= st->subs.size() || !(st->subs[r].mask == mask)) continue;
        const BucketArray* ba = st->subs[r].buckets.get();
        const Bucket* b =
            ba->slots[(h >> shard_shift_) & (ba->cap - 1)].load(std::memory_order_acquire);
        if (!b) continue;
        for (const auto& flow : b->flows) {
            if (!flow->dead.load(std::memory_order_relaxed) &&
                mask.matches(key, flow->masked_key)) {
                hits_.fetch_add(1, std::memory_order_relaxed);
                oracle->subs[r].stats->hit_count.fetch_add(1, std::memory_order_relaxed);
                res.flow = flow;
                return res;
            }
        }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    return res;
}

CachedFlowPtr MegaflowCache::insert_into(std::uint32_t s, std::size_t r,
                                         const net::FlowKey& masked, std::uint64_t h,
                                         const net::FlowMask& mask, CachedFlowPtr flow)
{
    Shard& sh = *shards_[s];
    const ShardState* st = sh.state.load(std::memory_order_relaxed);
    const ShardState::Sub& sub = st->subs[r];
    BucketArray* ba = sub.buckets.get();
    const std::size_t slot = (h >> shard_shift_) & (ba->cap - 1);
    const Bucket* old = ba->slots[slot].load(std::memory_order_relaxed);

    auto* next = new Bucket;
    if (old) next->flows = old->flows;
    bool replaced = false;
    for (auto& existing : next->flows) {
        if (existing->masked_key == masked) {
            existing = flow; // identical masked entry: replace in place
            replaced = true;
            break;
        }
    }
    if (!replaced) next->flows.push_back(flow);
    ba->slots[slot].store(next, std::memory_order_release);
    if (old) {
        epoch_domain_.retire([old] { delete old; });
    }
    if (!replaced) {
        ++ba->count;
        sub.stats->size.fetch_add(1, std::memory_order_relaxed);
        san::audit_add(san_scope_, "mfc.flow", flow_audit_key(masked, mask), OVSX_SITE);
        if (ba->count > ba->cap * 4) {
            // Regroup this shard's slice at 4x the slots. The new array
            // rides a fresh skeleton; the old one (and all its buckets)
            // is reclaimed once no reader can still hold it.
            auto grown = std::make_shared<BucketArray>(ba->cap * 4);
            grown->count = ba->count;
            std::vector<std::vector<CachedFlowPtr>> tmp(grown->cap);
            for (std::size_t i = 0; i < ba->cap; ++i) {
                const Bucket* b = ba->slots[i].load(std::memory_order_relaxed);
                if (!b) continue;
                for (const auto& f : b->flows) {
                    tmp[(f->masked_key.hash() >> shard_shift_) & (grown->cap - 1)].push_back(f);
                }
            }
            for (std::size_t i = 0; i < grown->cap; ++i) {
                if (tmp[i].empty()) continue;
                auto* b = new Bucket;
                b->flows = std::move(tmp[i]);
                grown->slots[i].store(b, std::memory_order_release);
            }
            auto* next_state = new ShardState(*st);
            next_state->subs[r].buckets = std::move(grown);
            publish_state(s, next_state);
        }
    }
    epoch_domain_.try_advance();
    return flow;
}

CachedFlowPtr MegaflowCache::insert(const net::FlowKey& key, const net::FlowMask& mask,
                                    kern::OdpActions actions)
{
    const net::FlowKey masked = mask.apply(key);
    const std::uint64_t h = masked.hash();
    auto flow = std::make_shared<CachedFlow>();
    flow->masked_key = masked;
    flow->mask = mask;
    flow->actions = std::move(actions);
    // Fresh flows get one sweep of grace before idle expiry applies.
    flow->hits_at_last_sweep = ~std::uint64_t{0};

    const std::uint32_t s = shard_of_hash(h);
    {
        // Fast path: the mask already has a subtable. The rank scan is
        // safe under one shard lock because structural ops (which move
        // ranks) hold every shard lock.
        sync::LockGuard guard(shards_[s]->mu);
        OVSX_SAN_ACCESS_AT(shards_[s].get(), "ovs.megaflow", true);
        const ShardState* st = shards_[s]->state.load(std::memory_order_relaxed);
        for (std::size_t r = 0; r < st->subs.size(); ++r) {
            if (st->subs[r].mask == mask) {
                return insert_into(s, r, masked, h, mask, std::move(flow));
            }
        }
    }

    // Slow path: a new mask appends a subtable to every shard's
    // skeleton so the probe order stays identical across shards.
    AllShardsGuard guard(*this);
    for (const auto& sh : shards_) OVSX_SAN_ACCESS_AT(sh.get(), "ovs.megaflow", true);
    // Re-check: another writer may have added the mask between the
    // fast-path unlock and this all-shard lock.
    const ShardState* st = shards_[s]->state.load(std::memory_order_relaxed);
    for (std::size_t r = 0; r < st->subs.size(); ++r) {
        if (st->subs[r].mask == mask) {
            return insert_into(s, r, masked, h, mask, std::move(flow));
        }
    }
    auto stats = std::make_shared<MegaflowSubtableStats>();
    const std::size_t r = st->subs.size();
    for (std::uint32_t i = 0; i < nshards_; ++i) {
        const ShardState* cur = shards_[i]->state.load(std::memory_order_relaxed);
        auto* next = new ShardState(*cur);
        next->subs.push_back(
            ShardState::Sub{mask, stats, std::make_shared<BucketArray>(kMinBuckets)});
        publish_state(i, next);
    }
    return insert_into(s, r, masked, h, mask, std::move(flow));
}

bool MegaflowCache::remove(const net::FlowKey& key, const net::FlowMask& mask)
{
    const net::FlowKey masked = mask.apply(key);
    const std::uint64_t h = masked.hash();
    const std::uint32_t s = shard_of_hash(h);
    sync::LockGuard guard(shards_[s]->mu);
    OVSX_SAN_ACCESS_AT(shards_[s].get(), "ovs.megaflow", true);
    const ShardState* st = shards_[s]->state.load(std::memory_order_relaxed);
    for (std::size_t r = 0; r < st->subs.size(); ++r) {
        const ShardState::Sub& sub = st->subs[r];
        if (!(sub.mask == mask)) continue;
        BucketArray* ba = sub.buckets.get();
        const std::size_t slot = (h >> shard_shift_) & (ba->cap - 1);
        const Bucket* old = ba->slots[slot].load(std::memory_order_relaxed);
        if (!old) return false;
        for (std::size_t j = 0; j < old->flows.size(); ++j) {
            if (!(old->flows[j]->masked_key == masked)) continue;
            old->flows[j]->dead.store(true, std::memory_order_release);
            Bucket* next = nullptr;
            if (old->flows.size() > 1) {
                next = new Bucket;
                next->flows.reserve(old->flows.size() - 1);
                for (std::size_t k = 0; k < old->flows.size(); ++k) {
                    if (k != j) next->flows.push_back(old->flows[k]);
                }
            }
            ba->slots[slot].store(next, std::memory_order_release);
            --ba->count;
            sub.stats->size.fetch_sub(1, std::memory_order_relaxed);
            san::audit_remove(san_scope_, "mfc.flow", flow_audit_key(masked, mask), OVSX_SITE);
            epoch_domain_.retire([old] { delete old; });
            epoch_domain_.try_advance();
            return true;
        }
        return false;
    }
    return false;
}

void MegaflowCache::clear()
{
    AllShardsGuard guard(*this);
    for (const auto& sh : shards_) OVSX_SAN_ACCESS_AT(sh.get(), "ovs.megaflow", true);
    for (std::uint32_t i = 0; i < nshards_; ++i) {
        const ShardState* cur = shards_[i]->state.load(std::memory_order_relaxed);
        for (const auto& sub : cur->subs) {
            for (std::size_t slot = 0; slot < sub.buckets->cap; ++slot) {
                const Bucket* b = sub.buckets->slots[slot].load(std::memory_order_relaxed);
                if (!b) continue;
                for (const auto& flow : b->flows) {
                    flow->dead.store(true, std::memory_order_release);
                }
            }
        }
        publish_state(i, new ShardState{});
    }
    san::audit_clear(san_scope_, "mfc.flow");
    epoch_domain_.try_advance();
}

std::size_t MegaflowCache::flow_count() const
{
    sync::EpochGuard pin(epoch_domain_);
    const ShardState* oracle = shards_[0]->state.load(std::memory_order_acquire);
    std::size_t n = 0;
    for (const auto& sub : oracle->subs) n += sub.stats->size.load(std::memory_order_relaxed);
    return n;
}

std::size_t MegaflowCache::mask_count() const
{
    sync::EpochGuard pin(epoch_domain_);
    return shards_[0]->state.load(std::memory_order_acquire)->subs.size();
}

std::size_t MegaflowCache::shard_flow_count(std::uint32_t s) const
{
    if (s >= nshards_) return 0;
    sync::LockGuard guard(shards_[s]->mu);
    OVSX_SAN_ACCESS_AT(shards_[s].get(), "ovs.megaflow", false);
    const ShardState* st = shards_[s]->state.load(std::memory_order_relaxed);
    std::size_t n = 0;
    for (const auto& sub : st->subs) n += sub.buckets->count;
    return n;
}

std::size_t MegaflowCache::flow_count_all_locked() const
{
    std::size_t n = 0;
    for (std::uint32_t s = 0; s < nshards_; ++s) {
        const ShardState* st = shards_[s]->state.load(std::memory_order_relaxed);
        for (const auto& sub : st->subs) n += sub.buckets->count;
    }
    return n;
}

std::size_t MegaflowCache::expire_idle()
{
    AllShardsGuard guard(*this);
    for (const auto& sh : shards_) OVSX_SAN_ACCESS_AT(sh.get(), "ovs.megaflow", true);
    std::size_t removed = 0;
    for (std::uint32_t s = 0; s < nshards_; ++s) {
        const ShardState* st = shards_[s]->state.load(std::memory_order_relaxed);
        for (const auto& sub : st->subs) {
            BucketArray* ba = sub.buckets.get();
            for (std::size_t slot = 0; slot < ba->cap; ++slot) {
                const Bucket* old = ba->slots[slot].load(std::memory_order_relaxed);
                if (!old) continue;
                std::vector<CachedFlowPtr> kept;
                kept.reserve(old->flows.size());
                for (const auto& flow : old->flows) {
                    if (flow->hits == flow->hits_at_last_sweep) {
                        flow->dead.store(true, std::memory_order_release);
                        ++removed;
                        --ba->count;
                        sub.stats->size.fetch_sub(1, std::memory_order_relaxed);
                        san::audit_remove(san_scope_, "mfc.flow",
                                          flow_audit_key(flow->masked_key, sub.mask),
                                          OVSX_SITE);
                    } else {
                        flow->hits_at_last_sweep = flow->hits; // grace consumed
                        kept.push_back(flow);
                    }
                }
                if (kept.size() == old->flows.size()) continue;
                Bucket* next = nullptr;
                if (!kept.empty()) {
                    next = new Bucket;
                    next->flows = std::move(kept);
                }
                ba->slots[slot].store(next, std::memory_order_release);
                epoch_domain_.retire([old] { delete old; });
            }
        }
    }
    epoch_domain_.try_advance();
    return removed;
}

void MegaflowCache::rerank()
{
    // Ranked from the published skeleton under an epoch pin, like a
    // lookup: the datapath clock calls this every ~1ms of virtual time
    // and most calls move nothing, so they lock no shard. The pin keeps
    // `oracle` alive, so finding it still published under the locks
    // means no subtable was added or moved in between.
    sync::EpochGuard pin(epoch_domain_);
    const ShardState* oracle = shards_[0]->state.load(std::memory_order_acquire);
    const std::size_t nsubs = oracle->subs.size();
    // Snapshot the counters so the sort comparator is stable, then
    // reset them for the next ranking window.
    std::vector<std::uint64_t> hit(nsubs);
    for (std::size_t r = 0; r < nsubs; ++r) {
        hit[r] = oracle->subs[r].stats->hit_count.exchange(0, std::memory_order_relaxed);
    }
    std::vector<std::size_t> order(nsubs);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return hit[a] > hit[b]; });
    auto empty = [&](std::size_t r) {
        return oracle->subs[r].stats->size.load(std::memory_order_relaxed) == 0;
    };
    if (std::is_sorted(order.begin(), order.end()) &&
        std::none_of(order.begin(), order.end(), empty)) {
        return;
    }

    AllShardsGuard guard(*this);
    for (const auto& sh : shards_) OVSX_SAN_ACCESS_AT(sh.get(), "ovs.megaflow", true);
    if (shards_[0]->state.load(std::memory_order_relaxed) != oracle) return;
    // Drop empty subtables so dead masks stop costing probes (sizes
    // change only under the shard locks, so this read is exact).
    std::vector<std::size_t> kept;
    kept.reserve(nsubs);
    for (const std::size_t r : order) {
        if (!empty(r)) kept.push_back(r);
    }
    for (std::uint32_t i = 0; i < nshards_; ++i) {
        const ShardState* cur = shards_[i]->state.load(std::memory_order_relaxed);
        auto* next = new ShardState;
        next->subs.reserve(kept.size());
        for (const std::size_t r : kept) next->subs.push_back(cur->subs[r]);
        publish_state(i, next);
    }
    epoch_domain_.try_advance();
}

void MegaflowCache::san_check(san::Site site) const
{
    AllShardsGuard guard(*this);
    san::audit_expect_size(san_scope_, "mfc.flow", flow_count_all_locked(), site);
}

void MegaflowCache::for_each_entry(
    const std::function<void(const CachedFlow&, const net::FlowMask&)>& fn) const
{
    AllShardsGuard guard(*this);
    for (const auto& sh : shards_) OVSX_SAN_ACCESS_AT(sh.get(), "ovs.megaflow", false);
    for (std::uint32_t s = 0; s < nshards_; ++s) {
        const ShardState* st = shards_[s]->state.load(std::memory_order_relaxed);
        for (const auto& sub : st->subs) {
            for (std::size_t slot = 0; slot < sub.buckets->cap; ++slot) {
                const Bucket* b = sub.buckets->slots[slot].load(std::memory_order_relaxed);
                if (!b) continue;
                for (const auto& flow : b->flows) fn(*flow, sub.mask);
            }
        }
    }
}

void MegaflowCache::reshard(std::uint32_t n)
{
    const std::uint32_t target = clamp_shards(n);
    if (target == nshards_) return;

    // Drain: per subtable (probe order preserved), every resident flow
    // in shard-major slot order.
    struct Drained {
        net::FlowMask mask;
        std::shared_ptr<MegaflowSubtableStats> stats;
        std::vector<CachedFlowPtr> flows;
    };
    std::vector<Drained> rows;
    {
        AllShardsGuard guard(*this);
        const ShardState* oracle = shards_[0]->state.load(std::memory_order_relaxed);
        rows.reserve(oracle->subs.size());
        for (const auto& sub : oracle->subs) {
            rows.push_back(Drained{sub.mask, sub.stats, {}});
        }
        for (std::uint32_t s = 0; s < nshards_; ++s) {
            const ShardState* st = shards_[s]->state.load(std::memory_order_relaxed);
            for (std::size_t r = 0; r < st->subs.size(); ++r) {
                const BucketArray* ba = st->subs[r].buckets.get();
                for (std::size_t slot = 0; slot < ba->cap; ++slot) {
                    const Bucket* b = ba->slots[slot].load(std::memory_order_relaxed);
                    if (!b) continue;
                    for (const auto& f : b->flows) rows[r].flows.push_back(f);
                }
            }
        }
    }
    // Config-time contract: no concurrent readers or writers. Drain
    // the reclamation backlog, then swap the shard array wholesale.
    epoch_domain_.synchronize();

    const std::uint32_t shift = log2_pow2(target);
    ShardArray next;
    next.reserve(target);
    for (std::uint32_t i = 0; i < target; ++i) next.push_back(std::make_unique<Shard>(i));
    // Redistribute each subtable's flows by the new shard routing.
    std::vector<std::vector<std::vector<CachedFlowPtr>>> per_shard(target);
    for (std::uint32_t i = 0; i < target; ++i) per_shard[i].resize(rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
        for (const auto& f : rows[r].flows) {
            const std::uint64_t h = f->masked_key.hash();
            per_shard[static_cast<std::uint32_t>(h) & (target - 1)][r].push_back(f);
        }
    }
    for (std::uint32_t i = 0; i < target; ++i) {
        auto* st = new ShardState;
        st->subs.reserve(rows.size());
        for (std::size_t r = 0; r < rows.size(); ++r) {
            auto ba = std::make_shared<BucketArray>(
                pow2_at_least((per_shard[i][r].size() + 3) / 4));
            ba->count = per_shard[i][r].size();
            std::vector<std::vector<CachedFlowPtr>> tmp(ba->cap);
            for (const auto& f : per_shard[i][r]) {
                tmp[(f->masked_key.hash() >> shift) & (ba->cap - 1)].push_back(f);
            }
            for (std::size_t slot = 0; slot < ba->cap; ++slot) {
                if (tmp[slot].empty()) continue;
                auto* b = new Bucket;
                b->flows = std::move(tmp[slot]);
                ba->slots[slot].store(b, std::memory_order_release);
            }
            st->subs.push_back(ShardState::Sub{rows[r].mask, rows[r].stats, std::move(ba)});
        }
        next[i]->state.store(st, std::memory_order_release);
    }
    shards_ = std::move(next); // old shards delete their final skeletons
    nshards_ = target;
    shard_shift_ = shift;
}

std::size_t MegaflowCache::test_seam_unguarded_probe() const
{
    // Deliberately no LockGuard and no epoch pin: the lockset checker
    // must observe this access with an empty held set and flag the
    // empty candidate intersection against the locked write API's
    // accesses on the same shard.
    OVSX_SAN_ACCESS_AT(shards_[0].get(), "ovs.megaflow", true);
    return shards_[0]->state.load(std::memory_order_relaxed)->subs.size();
}

} // namespace ovsx::ovs
