// Multi-threaded hardened-mode smoke: N worker threads hammer the three
// shared tables the PMD scale-out will contend on — the megaflow cache,
// the EMC and the userspace conntrack — with the lockset/lock-order
// checkers live (san::ScopedHardened). Every access goes through the
// tables' own internal locks, so a clean run proves the annotated
// locking composes under real contention: any lockset race or ABBA
// inversion aborts the process with the violation report (there is no
// collector installed, deliberately). Doubles as the TSan workload —
// the tier-1 suite is mostly single-threaded, so this binary is what
// gives -fsanitize=thread actual interleavings to chew on.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "kern/odp.h"
#include "net/builder.h"
#include "net/flow.h"
#include "ovs/ct.h"
#include "ovs/emc.h"
#include "ovs/megaflow.h"
#include "san/report.h"
#include "sim/context.h"

using namespace ovsx;

namespace {

constexpr int kThreads = 4;
constexpr int kItersPerThread = 20000;
constexpr std::uint16_t kFlowsPerThread = 64;

net::Packet make_udp(std::uint16_t sport, std::uint16_t dport)
{
    net::UdpSpec spec;
    spec.src_ip = net::ipv4(10, 0, 0, 1);
    spec.dst_ip = net::ipv4(10, 0, 0, 2);
    spec.src_port = sport;
    spec.dst_port = dport;
    net::Packet p = net::build_udp(spec);
    p.meta().in_port = 1;
    return p;
}

} // namespace

int main(int argc, char** argv)
{
    san::ScopedHardened hardened;

    // Shard count for the megaflow cache and the conntrack (default 4:
    // contended but still cross-shard). The TSan CI leg passes >1 so the
    // per-shard locks, epoch-pinned readers and cross-shard commit path
    // all see real interleavings.
    const std::uint32_t shards =
        argc > 1 ? static_cast<std::uint32_t>(std::strtoul(argv[1], nullptr, 0)) : 4;

    ovs::MegaflowCache megaflow(shards);
    // Odd source ports install under a second mask, so the two
    // subtables' hit counts differ and rerank() really reorders them.
    net::FlowMask wide = net::FlowMask::exact();
    wide.bits.nw_tos = 0;
    ovs::Emc emc;
    ovs::UserspaceConntrack uct;
    uct.reshard(shards);

    std::atomic<std::uint64_t> ops{0};
    const auto t0 = std::chrono::steady_clock::now();

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            sim::ExecContext ctx{"pmd", sim::CpuClass::User};
            // Per-thread disjoint sport range: threads share the tables
            // (that is the point) but not the 5-tuples, so conntrack
            // state stays deterministic per thread.
            const std::uint16_t base = static_cast<std::uint16_t>(10000 + t * kFlowsPerThread);
            std::uint64_t local_ops = 0;
            for (int i = 0; i < kItersPerThread; ++i) {
                const std::uint16_t sport = static_cast<std::uint16_t>(base + i % kFlowsPerThread);
                net::Packet pkt = make_udp(sport, 2000);
                const net::FlowKey key = net::parse_flow(pkt);
                const std::uint64_t hash = key.hash();

                // Megaflow: install on first touch, then hit.
                ovs::MegaflowCache::LookupResult res = megaflow.lookup(key);
                if (!res.flow) {
                    kern::OdpActions actions;
                    actions.push_back(kern::OdpAction::output(2));
                    ovs::CachedFlowPtr flow = megaflow.insert(
                        key, sport % 2 ? wide : net::FlowMask::exact(), std::move(actions));
                    emc.insert(key, hash, std::move(flow));
                }

                // EMC: miss path re-probes the megaflow like the PMD does.
                if (!emc.lookup(key, hash)) {
                    if (ovs::MegaflowCache::LookupResult r2 = megaflow.lookup(key); r2.flow) {
                        emc.insert(key, hash, r2.flow);
                    }
                }

                // Conntrack: commit on the original direction.
                kern::CtSpec spec;
                spec.zone = static_cast<std::uint16_t>(t);
                spec.commit = true;
                uct.process(pkt, key, spec, ctx);

                // Thread 0 also plays the datapath clock's ranking pass.
                if (t == 0 && i % 64 == 63) megaflow.rerank();

                local_ops += 3;
            }
            ops.fetch_add(local_ops, std::memory_order_relaxed);
        });
    }
    for (auto& th : threads) th.join();

    const auto t1 = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    const double mops = static_cast<double>(ops.load()) / secs / 1e6;

    std::printf("bench_mt_smoke: %d threads x %d iters, %u shards\n", kThreads, kItersPerThread,
                shards);
    std::printf("  table ops        %llu\n", static_cast<unsigned long long>(ops.load()));
    std::printf("  wall time        %.3f s\n", secs);
    std::printf("  throughput       %.2f Mops/s\n", mops);
    std::printf("  megaflow flows   %zu\n", megaflow.flow_count());
    std::printf("  conntrack conns  %zu\n", uct.size());
    std::printf("  san violations   0 (hardened mode aborts on the first)\n");
    return 0;
}
