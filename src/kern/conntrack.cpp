#include "kern/conntrack.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "kern/timer_wheel.h"
#include "net/headers.h"
#include "net/rewrite.h"
#include "obs/appctl.h"
#include "obs/coverage.h"
#include "san/audit.h"

namespace ovsx::kern {

std::string CtTuple::to_string() const
{
    std::ostringstream os;
    os << net::ipv4_to_string(src) << ":" << sport << ">" << net::ipv4_to_string(dst) << ":"
       << dport << "/" << int(proto) << " zone=" << zone;
    return os.str();
}

std::string CtSnapshotEntry::to_string() const
{
    std::ostringstream os;
    os << "orig{" << orig.to_string() << "} reply{" << reply.to_string() << "}"
       << " confirmed=" << confirmed << " seen_reply=" << seen_reply << " nat=" << nat
       << " mark=" << mark << " packets=" << packets;
    return os.str();
}

namespace {

// The translated reply tuple for a connection whose original direction
// is `tuple` under `nat` (with `port` already allocated; 0 = keep).
CtTuple nat_reply_tuple(const CtTuple& tuple, const NatSpec& nat, std::uint16_t port)
{
    CtTuple reply = tuple.reversed();
    if (!nat.enabled) return reply;
    if (nat.snat) {
        // Replies will come addressed to the NAT source.
        if (nat.ip) reply.dst = nat.ip;
        if (port) reply.dport = port;
    } else {
        // DNAT: replies originate from the translated destination.
        if (nat.ip) reply.src = nat.ip;
        if (port) reply.sport = port;
    }
    return reply;
}

std::uint32_t clamp_shards(std::uint32_t n)
{
    std::uint32_t p = 1;
    while (p < n && p < Conntrack::kMaxShards) p <<= 1;
    return p;
}

} // namespace

// ---- sharding ----------------------------------------------------------

// One shard: a slice of the tuple index, the connections it owns, and
// the timer wheel those connections are filed into, all under one
// capability-annotated mutex with a stable per-index name.
struct Conntrack::Shard {
    Shard(const char* lock_prefix, std::uint32_t i) : mu(sync::shard_lock_name(lock_prefix, i))
    {
    }

    sync::Mutex mu;
    // Both tuple directions index into one connection entry (possibly
    // in another shard for NAT-translated replies); the reply direction
    // carries the NAT translation, so it is NOT orig.reversed() for
    // NATed connections.
    std::unordered_map<CtTuple, Ref, CtTuple::Hash> index OVSX_GUARDED_BY(mu);
    std::unordered_map<std::uint64_t, CtEntry> conns OVSX_GUARDED_BY(mu);
    TimerWheel<std::uint64_t> wheel OVSX_GUARDED_BY(mu);
    // Wheel nodes whose connection is already gone (torn down by RST).
    std::size_t stale_nodes OVSX_GUARDED_BY(mu) = 0;

    // Drops every stale node in one pass once they outnumber the live
    // connections: with no idle timeout no expiry pass would ever reach
    // them. Keeps the wheel within 2 x live + 1 nodes at amortized O(1)
    // per teardown.
    void drop_stale_nodes_if_outnumbered() OVSX_REQUIRES(mu)
    {
        if (stale_nodes <= conns.size()) return;
        wheel.compact([this](std::uint64_t id) { return conns.contains(id); });
        stale_nodes = 0;
    }
};

// Locks every shard in ascending index order. Shard mutexes are
// constructed in index order, so their lock ids ascend with the index
// and this acquisition order can never invert the ABBA DAG against a
// single-shard holder or another AllShardsGuard.
class Conntrack::AllShardsGuard {
public:
    explicit AllShardsGuard(const Conntrack& ct) OVSX_NO_THREAD_SAFETY_ANALYSIS : ct_(ct)
    {
        for (const auto& s : ct_.shards_) s->mu.lock();
    }
    ~AllShardsGuard() OVSX_NO_THREAD_SAFETY_ANALYSIS
    {
        for (auto it = ct_.shards_.rbegin(); it != ct_.shards_.rend(); ++it) (*it)->mu.unlock();
    }
    AllShardsGuard(const AllShardsGuard&) = delete;
    AllShardsGuard& operator=(const AllShardsGuard&) = delete;

private:
    const Conntrack& ct_;
};

std::uint32_t Conntrack::shard_of_tuple(const CtTuple& t, std::uint32_t nshards)
{
    if (nshards <= 1) return 0;
    // Symmetric (direction-invariant) RSS-style hash: each endpoint is
    // mixed independently and the two are combined commutatively, so a
    // tuple and its reverse land in the same shard — only NAT-translated
    // reply tuples can cross shards.
    constexpr std::uint64_t kSeed = 0x9e3779b97f4a7c15ULL;
    const std::uint64_t a =
        CtTuple::Hash::mix(kSeed ^ ((static_cast<std::uint64_t>(t.src) << 16) | t.sport));
    const std::uint64_t b =
        CtTuple::Hash::mix(kSeed ^ ((static_cast<std::uint64_t>(t.dst) << 16) | t.dport));
    const std::uint64_t h =
        CtTuple::Hash::mix((a + b) ^ ((static_cast<std::uint64_t>(t.proto) << 16) | t.zone));
    return static_cast<std::uint32_t>(h) & (nshards - 1);
}

Conntrack::Conntrack(const CtProfile& profile, const sim::CostModel& costs, std::uint32_t shards)
    : costs_(costs),
      profile_(profile),
      cov_lookup_(obs::coverage_id(profile.cov_lookup)),
      cov_nat_exhausted_(obs::coverage_id(profile.cov_nat_exhausted)),
      zones_mu_(profile.zones_lock)
{
    nshards_ = clamp_shards(shards);
    shards_.reserve(nshards_);
    for (std::uint32_t i = 0; i < nshards_; ++i) {
        shards_.push_back(std::make_unique<Shard>(profile_.shard_lock, i));
    }
    obs_token_ = obs::memory_register(profile_.table, [this] {
        // Same rendered fields as the single-map reporter; per-shard
        // sums taken one shard lock at a time (no global freeze).
        std::size_t conns = 0, index = 0, nat = 0, wheel = 0;
        for (const auto& s : shards_) {
            sync::LockGuard guard(s->mu);
            conns += s->conns.size();
            index += s->index.size();
            wheel += s->wheel.nodes();
            for (const auto& [id, e] : s->conns) {
                if (e.nat) ++nat;
            }
        }
        obs::Value v = obs::Value::object();
        v.set("connections", static_cast<std::uint64_t>(conns));
        v.set("index_entries", static_cast<std::uint64_t>(index));
        v.set("nat_bindings", static_cast<std::uint64_t>(nat));
        v.set("wheel_nodes", static_cast<std::uint64_t>(wheel));
        return v;
    });
    shards_token_ = obs::shards_register(profile_.table, [this] {
        obs::Value v = obs::Value::object();
        v.set("shard_count", static_cast<std::uint64_t>(nshards_));
        obs::Value occ = obs::Value::array();
        for (const auto& s : shards_) {
            sync::LockGuard guard(s->mu);
            occ.push(static_cast<std::uint64_t>(s->conns.size()));
        }
        v.set("occupancy", std::move(occ));
        return v;
    });
}

Conntrack::~Conntrack()
{
    obs::shards_unregister(shards_token_);
    obs::memory_unregister(obs_token_);
    san::audit_clear(san_scope_, profile_.audit_entry);
    san::audit_clear(san_scope_, profile_.audit_nat);
}

void Conntrack::reshard(std::uint32_t n)
{
    const std::uint32_t target = clamp_shards(n);
    if (target == nshards_) return;
    // Drain every entry, sorted by id so the rebuilt indices and wheels
    // are filed in the original insertion order — end state stays
    // deterministic across reshard histories.
    std::vector<std::pair<std::uint64_t, CtEntry>> entries;
    {
        AllShardsGuard all(*this);
        for (const auto& s : shards_) {
            for (auto& [id, e] : s->conns) entries.emplace_back(id, e);
            s->index.clear();
            s->conns.clear();
            s->wheel.clear();
            s->stale_nodes = 0;
        }
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<std::unique_ptr<Shard>> next;
    next.reserve(target);
    for (std::uint32_t i = 0; i < target; ++i) {
        next.push_back(std::make_unique<Shard>(profile_.shard_lock, i));
    }
    shards_ = std::move(next);
    nshards_ = target;
    for (auto& [id, e] : entries) {
        const std::uint32_t owner = shard_of(e.orig);
        Shard& osh = *shards_[owner];
        osh.wheel.enqueue(id, e.last_seen);
        osh.index.emplace(e.orig, Ref{owner, id});
        if (!(e.reply == e.orig)) shards_[shard_of(e.reply)]->index.emplace(e.reply, Ref{owner, id});
        osh.conns.emplace(id, std::move(e));
    }
}

std::size_t Conntrack::shard_size(std::uint32_t s) const
{
    if (s >= nshards_) return 0;
    sync::LockGuard guard(shards_[s]->mu);
    return shards_[s]->conns.size();
}

std::size_t Conntrack::nat_binding_count() const
{
    std::size_t n = 0;
    for (const auto& s : shards_) {
        sync::LockGuard guard(s->mu);
        for (const auto& [id, e] : s->conns) {
            if (e.nat) ++n;
        }
    }
    return n;
}

std::size_t Conntrack::wheel_nodes() const
{
    std::size_t n = 0;
    for (const auto& s : shards_) {
        sync::LockGuard guard(s->mu);
        n += s->wheel.nodes();
    }
    return n;
}

std::size_t Conntrack::size() const
{
    std::size_t n = 0;
    for (const auto& s : shards_) {
        sync::LockGuard guard(s->mu);
        n += s->conns.size();
    }
    return n;
}

void Conntrack::flush()
{
    AllShardsGuard all(*this);
    for (const auto& s : shards_) {
        OVSX_SAN_ACCESS_AT(s.get(), profile_.table, true);
        s->index.clear();
        s->conns.clear();
        s->wheel.clear();
        s->stale_nodes = 0;
    }
    {
        sync::LockGuard zguard(zones_mu_);
        zone_counts_.clear();
    }
    san::audit_clear(san_scope_, profile_.audit_entry);
    san::audit_clear(san_scope_, profile_.audit_nat);
}

void Conntrack::san_check(san::Site site) const
{
    // Walk every shard under one consistent global acquisition: the
    // audit ledgers are table-wide, so the totals they are checked
    // against must be a single coherent sum, shard-count-invariant.
    AllShardsGuard all(*this);
    std::size_t conns = 0, nat = 0;
    for (const auto& s : shards_) {
        conns += s->conns.size();
        for (const auto& [id, e] : s->conns) {
            if (e.nat) ++nat;
        }
    }
    san::audit_expect_size(san_scope_, profile_.audit_entry, conns, site);
    san::audit_expect_size(san_scope_, profile_.audit_nat, nat, site);
}

bool Conntrack::local_path_ok(const CtTuple& lookup, bool icmp_error, const net::FlowKey& key,
                              const CtSpec& spec, std::uint32_t home) const
{
    Shard& s = *shards_[home];
    auto idx = s.index.find(lookup);
    if (icmp_error) {
        // RELATED lookups only read the cited entry: local unless the
        // hit refers to a connection owned by another shard.
        return idx == s.index.end() || idx->second.shard == home;
    }
    const bool is_rst = key.nw_proto == 6 && (key.tcp_flags & net::kTcpRst) != 0;
    if (idx != s.index.end()) {
        const Ref ref = idx->second;
        if (ref.shard != home) return false;
        if (is_rst) {
            // Teardown erases both index directions; the NAT-translated
            // reply may live in another shard.
            const auto it = s.conns.find(ref.id);
            if (it == s.conns.end()) return false;
            if (shard_of(it->second.reply) != home) return false;
        }
        return true;
    }
    if (is_rst) return true; // miss + RST → INVALID, touches no state
    if (!(spec.nat.enabled && spec.commit)) {
        // Reply tuple is the plain reverse — symmetric hash, same shard.
        return true;
    }
    if (spec.nat.port_min != 0) {
        // Port allocation probes the union of every shard's index.
        return false;
    }
    return shard_of(nat_reply_tuple(lookup, spec.nat, 0)) == home;
}

std::uint8_t Conntrack::process(net::Packet& pkt, const net::FlowKey& key, const CtSpec& spec,
                                sim::ExecContext& ctx, sim::Nanos now)
{
    // Hash + lookup cost, comparable to the datapath's own table probe.
    ctx.charge(costs_.*profile_.probe_cost);
    ctx.count(cov_lookup_);

    auto finish_invalid = [&] {
        const std::uint8_t state = net::kCtStateTracked | net::kCtStateInvalid;
        pkt.meta().ct_state = state;
        pkt.meta().ct_zone = spec.zone;
        return state;
    };

    // Stateless rejections touch no table state: no lock needed.
    // Only TCP/UDP/ICMP are tracked; later fragments are untrackable.
    if (key.nw_proto != 6 && key.nw_proto != 17 && key.nw_proto != 1) return finish_invalid();
    if (key.nw_frag & net::kFragLater) return finish_invalid();

    // Route to the home shard: the first index probe uses the ICMP-cited
    // inner tuple for ICMP errors, the packet tuple otherwise.
    bool icmp_error = false;
    CtTuple lookup;
    if (key.nw_proto == 1 && net::icmp_type_is_error(key.icmp_type)) {
        icmp_error = true;
        const net::IcmpInnerTuple inner = net::parse_icmp_inner(pkt);
        if (!inner.valid) return finish_invalid();
        lookup = CtTuple{inner.src, inner.dst, inner.sport, inner.dport, inner.proto, spec.zone};
    } else {
        lookup = CtTuple::from_key(key, spec.zone);
    }
    const std::uint32_t home = shard_of(lookup);

    if (nshards_ > 1) {
        // Fast path: one shard lock. local_path_ok proves (under that
        // lock) that every tuple this packet touches routes to `home`.
        sync::LockGuard guard(shards_[home]->mu);
        if (local_path_ok(lookup, icmp_error, key, spec, home)) {
            OVSX_SAN_ACCESS_AT(shards_[home].get(), profile_.table, true);
            return process_routed(pkt, key, spec, ctx, now, home);
        }
    }
    // Slow path (NAT crossing shards, cross-shard teardown, port-range
    // allocation, or a single-shard table): all shard locks, ascending.
    if (nshards_ > 1) OVSX_COVERAGE("ct.cross_shard");
    AllShardsGuard all(*this);
    for (const auto& s : shards_) OVSX_SAN_ACCESS_AT(s.get(), profile_.table, true);
    return process_routed(pkt, key, spec, ctx, now, home);
}

std::uint8_t Conntrack::process_routed(net::Packet& pkt, const net::FlowKey& key,
                                       const CtSpec& spec, sim::ExecContext& ctx, sim::Nanos now,
                                       std::uint32_t home)
{
    const std::uint16_t zone = spec.zone;
    std::uint8_t state = net::kCtStateTracked;
    auto finish = [&](std::uint8_t s) {
        pkt.meta().ct_state = s;
        pkt.meta().ct_zone = zone;
        return s;
    };

    // ICMP errors are RELATED to the connection their payload cites
    // (dest-unreachable for a tracked UDP flow, etc.); an error citing
    // nothing we track is invalid.
    if (key.nw_proto == 1 && net::icmp_type_is_error(key.icmp_type)) {
        const net::IcmpInnerTuple inner = net::parse_icmp_inner(pkt);
        if (!inner.valid) return finish(state | net::kCtStateInvalid);
        const CtTuple cited{inner.src, inner.dst, inner.sport, inner.dport, inner.proto, zone};
        Shard& csh = *shards_[shard_of(cited)];
        auto rel = csh.index.find(cited);
        if (rel == csh.index.end()) return finish(state | net::kCtStateInvalid);
        pkt.meta().ct_mark = shards_[rel->second.shard]->conns[rel->second.id].mark;
        return finish(state | net::kCtStateRelated);
    }

    const bool is_rst = key.nw_proto == 6 && (key.tcp_flags & net::kTcpRst) != 0;
    const CtTuple tuple = CtTuple::from_key(key, zone);
    Shard& tsh = *shards_[home];
    auto idx = tsh.index.find(tuple);
    if (idx != tsh.index.end()) {
        const Ref ref = idx->second;
        Shard& osh = *shards_[ref.shard];
        CtEntry& e = osh.conns[ref.id];
        const bool is_reply = (tuple == e.reply) && !(e.reply == e.orig);
        if (is_reply) {
            e.seen_reply = true;
            state |= net::kCtStateReply;
        }
        state |= e.confirmed ? net::kCtStateEstablished : net::kCtStateNew;
        if (spec.commit && !e.confirmed) e.confirmed = true;
        if (spec.commit && spec.set_mark) e.mark = spec.mark;
        e.packets++;
        e.last_seen = now; // its wheel node is refiled when next due
        pkt.meta().ct_mark = e.mark;
        if (e.nat) apply_nat(pkt, e, is_reply, ctx);
        if (is_rst) {
            // RST tears the connection down: the next SYN on this tuple
            // starts a fresh NEW connection.
            erase_entry_routed(ref);
            ++osh.stale_nodes; // its wheel node stays filed
            osh.drop_stale_nodes_if_outnumbered();
        }
        return finish(state);
    }
    if (is_rst) {
        // RST for a connection we never saw: untrackable.
        return finish(state | net::kCtStateInvalid);
    }

    // New connection. Zone accounting is global, nested inside the
    // shard lock(s).
    {
        sync::LockGuard zguard(zones_mu_);
        const std::size_t count = zone_counts_[zone];
        const auto lim = zone_limits_.find(zone);
        if (lim != zone_limits_.end() && lim->second != 0 && count >= lim->second) {
            return finish(state | net::kCtStateInvalid); // zone limit exceeded
        }
    }

    CtEntry entry;
    entry.orig = tuple;
    entry.confirmed = spec.commit;
    if (spec.commit && spec.set_mark) entry.mark = spec.mark;
    entry.packets = 1;
    entry.last_seen = now;

    // Compute the reply tuple, binding NAT (and allocating a port from
    // the requested range) if the connection commits.
    CtTuple reply = tuple.reversed();
    if (spec.nat.enabled && spec.commit) {
        NatBinding nat;
        nat.snat = spec.nat.snat;
        nat.ip = spec.nat.ip;
        if (spec.nat.port_min != 0) {
            // Deterministic allocation: first port in [port_min, port_max]
            // whose translated reply tuple is untracked — probing the
            // shard each candidate routes to is exactly the single-map
            // union probe. Scanning from port_min every time keeps
            // allocation order identical across independently built
            // datapaths — the end-state diff depends on it.
            const std::uint16_t lo = spec.nat.port_min;
            const std::uint16_t hi = std::max(spec.nat.port_max, lo);
            std::uint16_t chosen = 0;
            for (std::uint32_t p = lo; p <= hi; ++p) {
                const CtTuple cand =
                    nat_reply_tuple(tuple, spec.nat, static_cast<std::uint16_t>(p));
                Shard& csh = *shards_[shard_of(cand)];
                if (csh.index.find(cand) == csh.index.end()) {
                    chosen = static_cast<std::uint16_t>(p);
                    break;
                }
            }
            if (chosen == 0) {
                // Range exhausted: the connection is untrackable.
                ctx.count(cov_nat_exhausted_);
                return finish(state | net::kCtStateInvalid);
            }
            nat.port = chosen;
        }
        entry.nat = nat;
        reply = nat_reply_tuple(tuple, spec.nat, nat.port);
    }
    entry.reply = reply;
    state |= net::kCtStateNew;

    const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
    auto [it, ok] = tsh.conns.emplace(id, entry);
    (void)ok;
    tsh.wheel.enqueue(id, now);
    san::audit_add(san_scope_, profile_.audit_entry, id, OVSX_SITE);
    if (it->second.nat) san::audit_add(san_scope_, profile_.audit_nat, id, OVSX_SITE);
    tsh.index.emplace(tuple, Ref{home, id});
    if (!(reply == tuple)) shards_[shard_of(reply)]->index.emplace(reply, Ref{home, id});
    {
        sync::LockGuard zguard(zones_mu_);
        ++zone_counts_[zone];
    }
    ctx.charge(costs_.*profile_.probe_cost); // insert cost

    pkt.meta().ct_mark = it->second.mark;
    if (it->second.nat) apply_nat(pkt, it->second, /*is_reply=*/false, ctx);
    return finish(state);
}

void Conntrack::apply_nat(net::Packet& pkt, const CtEntry& entry, bool is_reply,
                          sim::ExecContext& ctx)
{
    const NatBinding& nat = *entry.nat;
    net::FlowKey value;
    net::FlowMask mask;
    if (!is_reply) {
        if (nat.snat) {
            value.nw_src = nat.ip;
            mask.bits.nw_src = nat.ip ? 0xffffffff : 0;
            value.tp_src = nat.port;
            mask.bits.tp_src = nat.port ? 0xffff : 0;
        } else {
            value.nw_dst = nat.ip;
            mask.bits.nw_dst = nat.ip ? 0xffffffff : 0;
            value.tp_dst = nat.port;
            mask.bits.tp_dst = nat.port ? 0xffff : 0;
        }
    } else {
        // Undo the translation for reply traffic: restore the original
        // tuple the initiator expects.
        if (nat.snat) {
            value.nw_dst = entry.orig.src;
            mask.bits.nw_dst = 0xffffffff;
            value.tp_dst = entry.orig.sport;
            mask.bits.tp_dst = 0xffff;
        } else {
            value.nw_src = entry.orig.dst;
            mask.bits.nw_src = 0xffffffff;
            value.tp_src = entry.orig.dport;
            mask.bits.tp_src = 0xffff;
        }
    }
    const int fields = net::apply_rewrite(pkt, value, mask);
    if (fields > 0) {
        ctx.charge(costs_.csum(64)); // header checksum repair share
    }
}

void Conntrack::set_zone_limit(std::uint16_t zone, std::size_t limit)
{
    sync::LockGuard guard(zones_mu_);
    zone_limits_[zone] = limit;
}

std::size_t Conntrack::zone_count(std::uint16_t zone) const
{
    sync::LockGuard guard(zones_mu_);
    auto it = zone_counts_.find(zone);
    return it == zone_counts_.end() ? 0 : it->second;
}

std::size_t Conntrack::expire_idle(sim::Nanos cutoff)
{
    using Wheel = TimerWheel<std::uint64_t>;
    std::size_t removed = 0;
    std::size_t visited = 0;
    // Entries due for expiry whose reply index lives in another shard:
    // erasing them needs more than this shard's lock, so they are
    // collected and re-checked under a global acquisition below.
    std::vector<Ref> cross;
    for (std::uint32_t si = 0; si < nshards_; ++si) {
        Shard& s = *shards_[si];
        sync::LockGuard guard(s.mu);
        OVSX_SAN_ACCESS_AT(&s, profile_.table, true);
        const Wheel::ExpireStats st = s.wheel.expire(cutoff, [&](std::uint64_t id,
                                                                 sim::Nanos& last_seen) {
            auto it = s.conns.find(id);
            if (it == s.conns.end()) {
                if (s.stale_nodes > 0) --s.stale_nodes;
                return Wheel::Verdict::Stale; // entry already gone
            }
            CtEntry& e = it->second;
            if (e.last_seen >= cutoff) {
                last_seen = e.last_seen; // refreshed since filing: refile once
                return Wheel::Verdict::Keep;
            }
            if (shard_of(e.reply) != si) {
                cross.push_back(Ref{si, id});
                return Wheel::Verdict::Stale; // node dropped; erased in pass 2
            }
            // Erase the NAT-translated reply tuple, not orig.reversed():
            // for NATed connections they differ, and a stale reply index
            // entry would pin the allocated port forever.
            s.index.erase(e.orig);
            s.index.erase(e.reply);
            {
                sync::LockGuard zguard(zones_mu_);
                auto& count = zone_counts_[e.orig.zone];
                if (count > 0) --count;
            }
            san::audit_remove(san_scope_, profile_.audit_entry, id, OVSX_SITE);
            if (e.nat) san::audit_remove(san_scope_, profile_.audit_nat, id, OVSX_SITE);
            s.conns.erase(it);
            ++removed;
            return Wheel::Verdict::Expired;
        });
        visited += st.visited;
        // Expiry shrank the live set, possibly below the stale nodes
        // still filed in later buckets.
        s.drop_stale_nodes_if_outnumbered();
    }
    if (!cross.empty()) {
        AllShardsGuard all(*this);
        for (const auto& s : shards_) OVSX_SAN_ACCESS_AT(s.get(), profile_.table, true);
        for (const Ref& ref : cross) {
            Shard& osh = *shards_[ref.shard];
            auto it = osh.conns.find(ref.id);
            if (it == osh.conns.end()) continue;
            CtEntry& e = it->second;
            if (e.last_seen >= cutoff) {
                // Refreshed between the passes; its wheel node was
                // dropped above, so file it again.
                osh.wheel.enqueue(ref.id, e.last_seen);
                continue;
            }
            erase_entry_routed(ref);
            ++removed;
        }
    }
    last_expire_visited_.store(visited, std::memory_order_relaxed);
    if (visited > 0) OVSX_COVERAGE_N("ct.wheel.visited", visited);
    if (removed > 0) OVSX_COVERAGE_N("ct.wheel.expired", removed);
    return removed;
}

void Conntrack::tick(sim::Nanos now)
{
    // At most one pass per wheel quantum: repeat calls inside the same
    // ~1ms virtual bucket are a single relaxed load + compare.
    const std::uint64_t bucket =
        static_cast<std::uint64_t>(now) >> TimerWheel<std::uint64_t>::kDefaultTickShift;
    std::uint64_t prev = last_tick_bucket_.load(std::memory_order_relaxed);
    if (prev == bucket) return;
    if (!last_tick_bucket_.compare_exchange_strong(prev, bucket, std::memory_order_relaxed)) {
        return; // another thread owns this quantum's pass
    }
    OVSX_COVERAGE("ct.shard.ticks");
    std::size_t total = 0;
    for (const auto& s : shards_) {
        sync::LockGuard guard(s->mu);
        total += s->conns.size();
    }
    if (total > 0) OVSX_COVERAGE_N("ct.shard.occupancy", total);
    const sim::Nanos timeout = idle_timeout_.load();
    if (timeout > 0 && now >= timeout) expire_idle(now - timeout);
}

const CtEntry* Conntrack::find(const CtTuple& tuple) const
{
    const std::uint32_t s = shard_of(tuple);
    {
        sync::LockGuard guard(shards_[s]->mu);
        OVSX_SAN_ACCESS_AT(shards_[s].get(), profile_.table, false);
        auto idx = shards_[s]->index.find(tuple);
        if (idx == shards_[s]->index.end()) return nullptr;
        if (idx->second.shard == s) {
            auto it = shards_[s]->conns.find(idx->second.id);
            return it == shards_[s]->conns.end() ? nullptr : &it->second;
        }
    }
    // The index entry refers to a connection owned by another shard
    // (NAT-translated reply direction): resolve ref → entry under a
    // consistent global acquisition.
    AllShardsGuard all(*this);
    auto idx = shards_[s]->index.find(tuple);
    if (idx == shards_[s]->index.end()) return nullptr;
    Shard& osh = *shards_[idx->second.shard];
    auto it = osh.conns.find(idx->second.id);
    return it == osh.conns.end() ? nullptr : &it->second;
}

void Conntrack::erase_entry_routed(const Ref& ref)
{
    Shard& osh = *shards_[ref.shard];
    auto it = osh.conns.find(ref.id);
    if (it == osh.conns.end()) return;
    shards_[shard_of(it->second.orig)]->index.erase(it->second.orig);
    shards_[shard_of(it->second.reply)]->index.erase(it->second.reply);
    {
        sync::LockGuard zguard(zones_mu_);
        auto& count = zone_counts_[it->second.orig.zone];
        if (count > 0) --count;
    }
    san::audit_remove(san_scope_, profile_.audit_entry, ref.id, OVSX_SITE);
    if (it->second.nat) san::audit_remove(san_scope_, profile_.audit_nat, ref.id, OVSX_SITE);
    osh.conns.erase(it);
}

bool Conntrack::test_seam_leak_entry(const CtTuple& tuple)
{
    AllShardsGuard all(*this);
    Shard& tsh = *shards_[shard_of(tuple)];
    auto idx = tsh.index.find(tuple);
    if (idx == tsh.index.end()) return false;
    const Ref ref = idx->second;
    Shard& osh = *shards_[ref.shard];
    auto it = osh.conns.find(ref.id);
    if (it == osh.conns.end()) return false;
    // Deliberately skip the audit_remove calls: the entry vanishes from
    // the table while the ledgers still claim it — san_check must flag
    // the mismatch regardless of which shard held the entry.
    shards_[shard_of(it->second.orig)]->index.erase(it->second.orig);
    shards_[shard_of(it->second.reply)]->index.erase(it->second.reply);
    osh.conns.erase(it);
    return true;
}

std::vector<CtSnapshotEntry> Conntrack::snapshot() const
{
    // One shard lock at a time: a dump under churn never freezes the
    // whole table. Sorting by orig tuple afterwards makes the merged
    // view byte-identical to the single-map rendering.
    std::vector<CtSnapshotEntry> out;
    for (const auto& s : shards_) {
        sync::LockGuard guard(s->mu);
        OVSX_SAN_ACCESS_AT(s.get(), profile_.table, false);
        out.reserve(out.size() + s->conns.size());
        for (const auto& [id, e] : s->conns) {
            out.push_back(
                {e.orig, e.reply, e.confirmed, e.seen_reply, e.nat.has_value(), e.mark, e.packets});
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace ovsx::kern
