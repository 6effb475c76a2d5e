// Million-connection conntrack churn: the sharding/timer-wheel
// scale-out proof. Each provider's tracker — the userspace conntrack
// (netdev) and the kernel-model conntrack driven as both the kernel and
// eBPF datapaths drive it — is ramped to over a million concurrent
// tracked connections at one new connection per virtual microsecond,
// then churned: the idle timeout trails the creation rate so the timer
// wheels continuously expire the oldest connections (releasing NAT
// state on that path) while new ones commit.
//
// What it asserts, per provider:
//   - peak concurrency reaches the target (default 1<<20 connections);
//   - per-tick expiry work stays bounded: the wheel visits only due
//     buckets, so the max nodes visited in one tick must stay orders of
//     magnitude under the live-connection count (no O(total) scans on
//     the packet path or the tick path);
//   - the ct.shard.* occupancy counters flowed.
// Per-commit latency is virtual time — the ExecContext busy-ns one
// ct.process charges, the clock every other Hop::Ct sample is on — and
// lands in the latency/show histograms under Hop::Ct, so p50/p99 print
// from the same registry appctl renders and repeat exactly run to run.
// Only the churn rate line is wall time.
//
// Usage: bench_ct_churn [shards] [target_conns]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "kern/conntrack.h"
#include "kern/odp.h"
#include "net/builder.h"
#include "net/flow.h"
#include "obs/coverage.h"
#include "obs/latency.h"
#include "obs/value.h"
#include "ovs/ct.h"
#include "sim/context.h"

using namespace ovsx;

namespace {

// One new connection per virtual microsecond.
constexpr sim::Nanos kGapNs = 1000;

struct RunStats {
    std::size_t peak_live = 0;
    std::size_t created = 0;
    std::size_t max_visited_per_tick = 0;
    double wall_secs = 0;
};

net::Packet make_conn_packet(std::size_t i)
{
    net::UdpSpec spec;
    spec.src_ip = net::ipv4(10, static_cast<std::uint8_t>(i >> 16),
                            static_cast<std::uint8_t>(i >> 8), static_cast<std::uint8_t>(i));
    spec.dst_ip = net::ipv4(172, 16, 0, 1);
    spec.src_port = static_cast<std::uint16_t>(1024 + (i >> 24) * 7);
    spec.dst_port = 443;
    net::Packet p = net::build_udp(spec);
    p.meta().in_port = 1;
    return p;
}

// Drives one tracker (either conntrack profile) through ramp + churn.
RunStats run_churn(const char* domain, kern::Conntrack& ct, std::size_t target)
{
    // Idle timeout ~10% past the ramp so peak concurrency overshoots
    // the target before the wheel starts reclaiming the oldest entries.
    const sim::Nanos timeout = static_cast<sim::Nanos>(target) * kGapNs * 11 / 10;
    ct.set_idle_timeout(timeout);

    // Ramp to peak, then churn for a quarter of the table again while
    // expiry trails creation at steady state.
    const std::size_t total = target + target / 8 + target / 4;

    sim::ExecContext ctx{"churn", sim::CpuClass::User};
    kern::CtSpec cspec;
    cspec.commit = true;

    RunStats st;
    sim::Nanos now = 0;
    const auto wall0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < total; ++i) {
        net::Packet pkt = make_conn_packet(i);
        const net::FlowKey key = net::parse_flow(pkt);

        const sim::Nanos busy_before = ctx.total_busy();
        ct.process(pkt, key, cspec, ctx, now);
        obs::latency_record(domain, obs::Hop::Ct, ctx.total_busy() - busy_before);

        ct.tick(now); // quantum-gated: occupancy gauges + due-bucket expiry
        st.max_visited_per_tick = std::max(st.max_visited_per_tick, ct.last_expire_visited());
        if ((i & 0xFFF) == 0 || i + 1 == total) {
            st.peak_live = std::max(st.peak_live, ct.size());
        }
        now += kGapNs;
    }
    st.created = total;
    st.wall_secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count();
    return st;
}

void print_percentiles(const char* domain)
{
    const obs::Value hists = obs::latency_show();
    const obs::Value* dom = hists.find(domain);
    const obs::Value* ct = dom ? dom->find("ct") : nullptr;
    if (!ct) {
        std::printf("  ct latency       (no samples)\n");
        return;
    }
    const obs::Value* p50 = ct->find("p50");
    const obs::Value* p99 = ct->find("p99");
    std::printf("  commit latency   p50 %lld vns, p99 %lld vns\n",
                p50 ? static_cast<long long>(p50->as_int()) : -1,
                p99 ? static_cast<long long>(p99->as_int()) : -1);
}

bool report(const char* domain, const RunStats& st, std::size_t target)
{
    std::printf("%s:\n", domain);
    std::printf("  connections      %zu created, peak %zu live\n", st.created, st.peak_live);
    std::printf("  churn rate       %.2f Mconn/s wall\n",
                static_cast<double>(st.created) / st.wall_secs / 1e6);
    std::printf("  max tick visit   %zu wheel nodes\n", st.max_visited_per_tick);
    print_percentiles(domain);

    bool ok = true;
    if (st.peak_live < target) {
        std::printf("FAIL: %s peaked at %zu live connections (target %zu)\n", domain,
                    st.peak_live, target);
        ok = false;
    }
    // Bounded per-tick expiry: a full-table scan would visit ~peak_live
    // nodes in one tick. The wheel visits only due buckets — at one
    // connection per microsecond and ~1ms wheel quanta that is a few
    // thousand nodes, orders of magnitude under the table size.
    if (st.max_visited_per_tick * 8 >= st.peak_live) {
        std::printf("FAIL: %s visited %zu wheel nodes in one tick with %zu live — "
                    "expiry is scanning the table\n",
                    domain, st.max_visited_per_tick, st.peak_live);
        ok = false;
    }
    return ok;
}

} // namespace

int main(int argc, char** argv)
{
    const std::uint32_t shards =
        argc > 1 ? static_cast<std::uint32_t>(std::strtoul(argv[1], nullptr, 0)) : 8;
    const std::size_t target =
        argc > 2 ? std::strtoull(argv[2], nullptr, 0) : (std::size_t{1} << 20);

    std::printf("ct churn: shards=%u target=%zu gap=%lldns\n", shards, target,
                static_cast<long long>(kGapNs));

    bool ok = true;

    // Providers run sequentially so only one million-entry table is
    // live at a time. The kernel-model tracker is run twice because two
    // providers (kernel, eBPF) clock it via set_now — same table type,
    // but each gets its own latency domain and a fresh instance.
    {
        ovs::UserspaceConntrack uct{};
        uct.reshard(shards);
        ok &= report("netdev", run_churn("netdev", uct, target), target);
    }
    for (const char* domain : {"kernel", "ebpf"}) {
        kern::Conntrack kct{};
        kct.reshard(shards);
        ok &= report(domain, run_churn(domain, kct, target), target);
    }

    const auto occ = obs::coverage_find("ct.shard.occupancy");
    const std::uint64_t occ_total = occ ? obs::coverage_value(*occ) : 0;
    std::printf("ct.shard.occupancy counter total: %llu\n",
                static_cast<unsigned long long>(occ_total));
    if (occ_total == 0) {
        std::printf("FAIL: ct.shard.occupancy never flowed\n");
        ok = false;
    }

    if (!ok) return 1;
    std::printf("OK: all providers sustained >= %zu concurrent connections with bounded "
                "per-tick expiry\n",
                target);
    return 0;
}
