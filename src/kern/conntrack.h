// Netfilter-style connection tracking: the one conntrack core shared by
// every datapath.
//
// Tracks bidirectional 5-tuple+zone connections with NEW/ESTABLISHED
// state, per-zone connection limits (the paper's §2.1.1 "per-zone
// connection limiting" example feature), mark storage and SNAT/DNAT
// with deterministic port-range allocation. The paper's §6 lesson is
// that moving the datapath to userspace forced OVS to reimplement
// kernel conntrack; here that reimplementation is the same algorithm
// under a different CtProfile (ovs/ct.h selects the userspace one).
// A profile carries only what really differs between the two: the
// cost charged per lookup/insert and the observable names (locks, san
// audits, reporters, coverage counters). The differential harness
// still diffs the kernel and userspace tables entry by entry.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "kern/odp.h" // CtSpec / NatSpec
#include "net/flow.h"
#include "net/packet.h"
#include "obs/coverage.h"
#include "san/lockset.h"
#include "san/report.h"
#include "sim/context.h"
#include "sim/costs.h"
#include "sim/time.h"
#include "sync/mutex.h"

namespace ovsx::kern {

struct CtTuple {
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::uint16_t sport = 0;
    std::uint16_t dport = 0;
    std::uint8_t proto = 0;
    std::uint16_t zone = 0;

    friend bool operator==(const CtTuple&, const CtTuple&) = default;

    CtTuple reversed() const { return {dst, src, dport, sport, proto, zone}; }

    static CtTuple from_key(const net::FlowKey& key, std::uint16_t zone)
    {
        return {key.nw_src, key.nw_dst, key.tp_src, key.tp_dst, key.nw_proto, zone};
    }

    struct Hash {
        static std::uint64_t mix(std::uint64_t x)
        {
            x ^= x >> 30;
            x *= 0xbf58476d1ce4e5b9ULL;
            x ^= x >> 27;
            x *= 0x94d049bb133111ebULL;
            x ^= x >> 31;
            return x;
        }
        std::size_t operator()(const CtTuple& t) const
        {
            // Every field feeds the splitmix finalizer on its own, in
            // order, so no two fields can cancel by XOR: a tuple, its
            // reverse, and zone-swapped variants all hash differently
            // (the old XOR-fold collided e.g. {src=0x10000, sport=0}
            // with {src=0, sport=1}).
            std::uint64_t h = mix(0x9e3779b97f4a7c15ULL ^ t.src);
            h = mix(h + t.dst);
            h = mix(h + ((static_cast<std::uint64_t>(t.sport) << 16) | t.dport));
            h = mix(h + ((static_cast<std::uint64_t>(t.proto) << 16) | t.zone));
            return static_cast<std::size_t>(h);
        }
    };

    friend bool operator<(const CtTuple& a, const CtTuple& b)
    {
        return std::tie(a.zone, a.src, a.dst, a.sport, a.dport, a.proto) <
               std::tie(b.zone, b.src, b.dst, b.sport, b.dport, b.proto);
    }

    std::string to_string() const;
};

// One live NAT translation on a connection. The allocated port lives in
// the reply tuple's index entry: the reply tuple leaving the index is
// what frees the port for reallocation.
struct NatBinding {
    bool snat = false;
    std::uint32_t ip = 0;
    std::uint16_t port = 0;
};

// Implementation-neutral view of one tracked connection, used by the
// differential harness to diff conntrack tables across datapaths.
struct CtSnapshotEntry {
    CtTuple orig;
    CtTuple reply; // reversed orig with any NAT translation applied
    bool confirmed = false;
    bool seen_reply = false;
    bool nat = false;
    std::uint32_t mark = 0;
    std::uint64_t packets = 0;

    friend bool operator==(const CtSnapshotEntry&, const CtSnapshotEntry&) = default;
    friend bool operator<(const CtSnapshotEntry& a, const CtSnapshotEntry& b)
    {
        return a.orig < b.orig;
    }

    std::string to_string() const;
};

struct CtEntry {
    CtTuple orig;
    CtTuple reply;          // reversed orig with any NAT translation applied
    bool confirmed = false; // committed by a ct(commit) action
    bool seen_reply = false;
    std::uint32_t mark = 0;
    std::optional<NatBinding> nat;
    std::uint64_t packets = 0;
    sim::Nanos last_seen = 0;
    // Timer-wheel bucket this entry was last filed into (expiry
    // liveness check; TimerWheel::kNoBucket before the first filing).
    std::uint64_t wheel_bucket = ~std::uint64_t{0};
};

// What one datapath's conntrack differs in: the virtual cost charged
// per lookup and again per insert, and the names under which the table
// shows up in lock reports, san audits, appctl reporters and coverage.
// Everything else (NAT checksum repair, the wheel, sharding) is the
// same code and the same charges for both.
struct CtProfile {
    sim::Nanos sim::CostModel::*probe_cost;
    const char* table;       // OVSX_SAN_ACCESS_AT name + memory/show, shards/show
    const char* shard_lock;  // per-shard lock prefix ("<prefix>.<i>")
    const char* zones_lock;
    const char* audit_entry; // san audit categories
    const char* audit_nat;
    const char* cov_lookup;  // coverage counters
    const char* cov_nat_exhausted;
};

// The kernel's conntrack: a probe costs one flow-table mask probe.
inline constexpr CtProfile kKernelCtProfile{
    &sim::CostModel::kdp_flow_probe, "kern.ct", "kern.ct.shard", "kern.ct.zones",
    "ct.entry", "ct.nat", "ct.lookup", "ct.nat_port_exhausted"};

// The userspace datapath's conntrack: a probe costs one EMC probe.
inline constexpr CtProfile kUserspaceCtProfile{
    &sim::CostModel::emc_hit, "ovs.uct", "ovs.uct.shard", "ovs.uct.zones",
    "uct.entry", "uct.nat", "userspace_ct.lookup", "userspace_ct.nat_port_exhausted"};

// Concurrency: sharded by a symmetric (direction-invariant) RSS-style
// hash of the connection tuple. Each shard owns an index/conns pair and
// a timer wheel under its own capability-annotated mutex (stable name
// "<profile.shard_lock>.<i>"); a connection lives in the shard of its ORIG
// tuple, and because the shard hash is symmetric, the un-NATed reply
// direction lands in the same shard — so non-NAT traffic runs entirely
// under one shard lock. Anything whose NAT-translated reply tuple
// crosses shards (port/IP translation, cross-shard RST teardown,
// port-range allocation probing the union of all indices) takes the
// deterministic slow path: every shard lock in ascending index order
// (construction order makes the ids ascend too, so the ABBA DAG stays
// acyclic), then the exact single-map algorithm against the union.
// Zone counts/limits stay global under profile.zones_lock, nested
// inside the shard locks. End state is bit-identical at any shard count.
//
// find() returns an interior pointer stable only until the next
// mutating call; snapshot() copies for longer-lived use.
class Conntrack {
public:
    static constexpr std::uint32_t kMaxShards = 64;

    explicit Conntrack(const sim::CostModel& costs = sim::CostModel::baseline(),
                       std::uint32_t shards = 1)
        : Conntrack(kKernelCtProfile, costs, shards)
    {
    }
    explicit Conntrack(const CtProfile& profile,
                       const sim::CostModel& costs = sim::CostModel::baseline(),
                       std::uint32_t shards = 1);
    ~Conntrack();

    // Classifies `key` in spec.zone, creating an unconfirmed entry for
    // NEW connections; spec.commit confirms it (and applies spec.mark
    // when spec.set_mark). When spec.nat is set and the connection
    // commits, binds (and remembers) the NAT rewrite — reply-direction
    // packets are de-NATed automatically. Updates pkt.meta() ct fields,
    // rewrites headers for NAT, and returns the resulting state bits.
    OVSX_HOT std::uint8_t process(net::Packet& pkt, const net::FlowKey& key, const CtSpec& spec,
                                  sim::ExecContext& ctx, sim::Nanos now = 0);

    // Per-zone connection limit (0 = unlimited). Connections beyond the
    // limit are classified INVALID instead of NEW.
    void set_zone_limit(std::uint16_t zone, std::size_t limit) OVSX_EXCLUDES(zones_mu_);
    std::size_t zone_count(std::uint16_t zone) const OVSX_EXCLUDES(zones_mu_);

    // Number of tracked connections (not tuple directions).
    std::size_t size() const;
    std::size_t nat_binding_count() const;
    void flush();

    // Cross-checks the san entry + NAT-binding audits against the
    // table, walking every shard so the totals are shard-count-
    // invariant.
    void san_check(san::Site site) const;

    // Expires entries idle since before `cutoff` off the per-shard
    // timer wheels: visits only due wheel buckets, never the whole
    // table. NAT reply-index entries (and therefore allocated ports)
    // are released on this path.
    std::size_t expire_idle(sim::Nanos cutoff);

    // Lookup without side effects (diagnostics). Finds by either
    // direction of the connection (NAT-translated for replies).
    const CtEntry* find(const CtTuple& tuple) const;

    // Deterministically ordered view of every tracked connection, for
    // cross-datapath state diffing. Snapshots shard by shard under each
    // shard's own lock (no global freeze) and merges; the rendered
    // shape is identical at any shard count.
    std::vector<CtSnapshotEntry> snapshot() const;

    // ---- sharding / expiry configuration --------------------------------
    // Rebuilds the table over `n` shards (rounded up to a power of two,
    // capped at kMaxShards). Existing entries are rehashed; intended
    // for configuration time — concurrent process() calls during a
    // reshard are not supported.
    void reshard(std::uint32_t n);
    std::uint32_t shard_count() const { return nshards_; }
    // Connections owned by shard `s` (occupancy gauges).
    std::size_t shard_size(std::uint32_t s) const;
    // The shard a tuple routes to; symmetric in direction, exposed so
    // tests can place entries deliberately.
    static std::uint32_t shard_of_tuple(const CtTuple& tuple, std::uint32_t nshards);

    // Idle timeout driven by tick(); 0 (default) disables expiry there.
    void set_idle_timeout(sim::Nanos timeout) { idle_timeout_.store(timeout); }
    sim::Nanos idle_timeout() const { return idle_timeout_.load(); }

    // Datapath clock hook (set_now): at most once per wheel quantum,
    // publishes the ct.shard.* occupancy counters and — when an idle
    // timeout is configured — expires idle entries. Amortized: each
    // call does per-shard O(due wheel nodes) work, never O(entries).
    void tick(sim::Nanos now);

    // Wheel nodes visited by the most recent expiry pass (the churn
    // bench asserts this stays bounded per tick).
    std::size_t last_expire_visited() const { return last_expire_visited_.load(); }

    // Test seam (negative san tests only): drops the entry for `tuple`
    // from its shard WITHOUT updating the audit ledgers — san_check
    // must then report the leak no matter which shard held it.
    bool test_seam_leak_entry(const CtTuple& tuple);

private:
    struct Shard;    // per-shard index/conns/wheel + mutex (conntrack.cpp)
    struct Ref {     // index value: owning shard + connection id
        std::uint32_t shard = 0;
        std::uint64_t id = 0;
    };
    class AllShardsGuard; // ascending-order lock of every shard

    std::uint32_t shard_of(const CtTuple& tuple) const
    {
        return shard_of_tuple(tuple, nshards_);
    }

    // The single-map algorithm, routed through shard(s). The caller
    // holds either every shard lock or only shard `home`'s, in which
    // case local_path_ok has proven every touched tuple routes there.
    std::uint8_t process_routed(net::Packet& pkt, const net::FlowKey& key, const CtSpec& spec,
                                sim::ExecContext& ctx, sim::Nanos now,
                                std::uint32_t home) OVSX_NO_THREAD_SAFETY_ANALYSIS;
    // Decides, under shard `home`'s lock alone, whether this packet can
    // complete without touching any other shard. `lookup` is the tuple
    // the first index probe uses (the ICMP-cited inner tuple for ICMP
    // errors, the packet tuple otherwise).
    bool local_path_ok(const CtTuple& lookup, bool icmp_error, const net::FlowKey& key,
                       const CtSpec& spec, std::uint32_t home) const
        OVSX_NO_THREAD_SAFETY_ANALYSIS;
    void erase_entry_routed(const Ref& ref) OVSX_NO_THREAD_SAFETY_ANALYSIS;
    void apply_nat(net::Packet& pkt, const CtEntry& entry, bool is_reply,
                   sim::ExecContext& ctx);

    const sim::CostModel& costs_;
    const CtProfile profile_;
    // Interned once here: OVSX_COVERAGE_CTX caches one id per call site,
    // which cannot serve two profiles' names.
    const obs::CounterId cov_lookup_;
    const obs::CounterId cov_nat_exhausted_;
    // The shard array itself is immutable while the datapath runs: it
    // is built at construction and replaced only by config-time
    // reshard() (single-threaded by contract). Everything inside a
    // Shard is guarded by that shard's own mutex.
    using ShardArray = std::vector<std::unique_ptr<Shard>>;
    std::uint32_t nshards_ = 1;
    ShardArray shards_;
    mutable sync::Mutex zones_mu_;
    std::unordered_map<std::uint16_t, std::size_t> zone_counts_ OVSX_GUARDED_BY(zones_mu_);
    std::unordered_map<std::uint16_t, std::size_t> zone_limits_ OVSX_GUARDED_BY(zones_mu_);
    // Global, never reused: allocation order (and therefore snapshots)
    // stays identical across shard counts.
    std::atomic<std::uint64_t> next_id_{1};
    std::atomic<sim::Nanos> idle_timeout_{0};
    std::atomic<std::uint64_t> last_tick_bucket_{~std::uint64_t{0}};
    std::atomic<std::size_t> last_expire_visited_{0};
    std::uint64_t san_scope_ = san::new_scope();
    std::uint64_t obs_token_ = 0;
    std::uint64_t shards_token_ = 0;
};

} // namespace ovsx::kern
