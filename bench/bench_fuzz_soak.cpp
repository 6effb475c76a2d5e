// Differential fuzz soak: runs seeded fuzz iterations against all three
// datapaths for a wall-clock budget and exits non-zero on any
// unexplained divergence, printing the (seed, count) pair that
// reproduces it.
//
//   bench_fuzz_soak [seed] [seconds] [packets-per-iteration]
//
// CI runs this with a rotating seed; locally, re-running with a printed
// seed reproduces a failure exactly.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>

#include "fabric/fabric.h"
#include "gen/fuzz.h"
#include "gen/obs_export.h"
#include "gen/traffic.h"
#include "kern/kernel.h"
#include "kern/nic.h"
#include "kern/odp.h"
#include "obs/coverage.h"
#include "obs/metrics.h"
#include "obs/perf.h"
#include "ovs/dpif_netdev.h"
#include "ovs/netdev_afxdp.h"

namespace {

// The always-on profiler's documented overhead budget, as a percent of
// the profiler-off wall-clock (docs/OBSERVABILITY.md). Exceeding it
// fails the soak.
constexpr double kPerfOverheadBudgetPct = 10.0;

std::uint64_t coverage_count(const char* name)
{
    const auto id = ovsx::obs::coverage_find(name);
    return id ? ovsx::obs::coverage_value(*id) : 0;
}

// One profiler-overhead leg: a fixed, deterministic netdev P2P workload
// (AF_XDP ports, one PMD, a single wildcard flow, seeded traffic).
// Returns wall-clock seconds. With `artifact` set, snapshots
// pmd/perf-show + pmd/perf-log JSON while the PMD (and its profiler)
// is still alive — the CI-uploaded flight-recorder artifact.
double overhead_leg(bool profiler_on, const std::string& artifact)
{
    using namespace ovsx;
    obs::perf_set_enabled(profiler_on);
    const auto t0 = std::chrono::steady_clock::now();

    kern::Kernel host("soak-overhead");
    kern::NicConfig ncfg;
    auto& nic0 = host.add_device<kern::PhysicalDevice>("eth0", net::MacAddr::from_id(1), ncfg);
    auto& nic1 = host.add_device<kern::PhysicalDevice>("eth1", net::MacAddr::from_id(2), ncfg);
    nic1.connect_wire([](net::Packet&&) {});

    ovs::DpifNetdev dpif(host);
    ovs::AfxdpOptions aopts;
    aopts.umem_frames = 512;
    const auto p0 = dpif.add_port(std::make_unique<ovs::NetdevAfxdp>(nic0, aopts));
    const auto p1 = dpif.add_port(std::make_unique<ovs::NetdevAfxdp>(nic1, aopts));
    net::FlowKey key;
    key.in_port = p0;
    net::FlowMask mask;
    mask.bits.in_port = 0xffffffff;
    mask.bits.recirc_id = 0xffffffff;
    dpif.flow_put(key, mask, {kern::OdpAction::output(p1)});
    const int pmd = dpif.add_pmd("soak-pmd");
    dpif.pmd_assign(pmd, p0, 0);
    dpif.pmd_assign(pmd, p1, 0);

    gen::TrafficGen traffic({.n_flows = 64, .frame_size = 128});
    constexpr std::uint64_t kLegPackets = 8192;
    for (std::uint64_t i = 0; i < kLegPackets; ++i) {
        nic0.rx_from_wire(traffic.next());
        if ((i & 31) == 31) {
            while (dpif.pmd_poll_once(pmd) > 0) {
            }
        }
    }
    while (dpif.pmd_poll_once(pmd) > 0) {
    }

    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

    if (!artifact.empty() && profiler_on) {
        ovsx::obs::Value doc = ovsx::obs::Value::object();
        doc.set("perf_show", ovsx::obs::perf_show());
        doc.set("perf_log", ovsx::obs::perf_log_show());
        std::ofstream out(artifact);
        if (out) out << doc.to_json() << "\n";
    }
    obs::perf_set_enabled(true);
    return secs;
}

} // namespace

int main(int argc, char** argv)
{
    const std::uint64_t base_seed = argc > 1 ? std::strtoull(argv[1], nullptr, 0) : 1;
    const double seconds = argc > 2 ? std::strtod(argv[2], nullptr) : 5.0;
    const std::size_t count = argc > 3 ? std::strtoull(argv[3], nullptr, 0) : 2000;

    ovsx::gen::FuzzConfig cfg;
    const auto start = std::chrono::steady_clock::now();
    std::size_t iterations = 0;
    std::size_t packets = 0;
    std::size_t explained = 0;
    std::size_t fabric_frames = 0;
    // batch.occupancy / batch.flush deltas taken around the fabric legs
    // injected at burst 8 and 32 only: the cross-provider legs pin
    // their bursts at 1, so the run-wide average cannot show whether
    // any burst ever held more than one packet.
    std::uint64_t burst_occupancy = 0;
    std::uint64_t burst_flushes = 0;

    std::printf("fuzz soak: base_seed=%llu budget=%.1fs count=%zu\n",
                static_cast<unsigned long long>(base_seed), seconds, count);
    for (;;) {
        const double elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
        if (elapsed >= seconds && iterations > 0) break;

        const std::uint64_t seed = base_seed + iterations;
        // Alternate feature mixes so every iteration is not the same shape.
        cfg.use_meters = (iterations % 3) == 1;
        cfg.use_ct = (iterations % 4) != 3;
        cfg.use_nat = (iterations % 3) != 1; // SNAT/DNAT rulesets in the mix
        cfg.num_queues = (iterations % 2) ? 2 : 1;
        cfg.use_fragments = (iterations % 3) == 2;
        cfg.use_extra_encaps = (iterations % 5) >= 3;
        cfg.use_int = (iterations % 2) == 0; // pre-attached INT headers in the mix
        // Rotate the fabric leg's injection burst so the dataplane is
        // soaked at degenerate (1), partial (8) and full (32) occupancy.
        static constexpr std::size_t kBurstSizes[] = {1, 8, 32};
        const std::size_t burst = kBurstSizes[iterations % 3];
        // Rotate shard counts so the soak continuously proves sharding
        // is invisible to the cross-provider end-state digests.
        static constexpr std::uint32_t kShardCounts[] = {1, 4, 16};
        cfg.shards = kShardCounts[iterations % 3];

        // Every few iterations, soak the fabric too: a 3-host leaf–spine
        // run per provider with INT stamping on, at the rotated burst
        // size, diffed for delivery and journey divergence.
        if ((iterations % 4) == 0) {
            const std::uint64_t occ0 = coverage_count("batch.occupancy");
            const std::uint64_t flush0 = coverage_count("batch.flush");
            const auto fr = ovsx::fabric::run_fabric_differential(3, 2, burst);
            fabric_frames += fr.frames_sent;
            if (burst > 1) {
                burst_occupancy += coverage_count("batch.occupancy") - occ0;
                burst_flushes += coverage_count("batch.flush") - flush0;
            }
            if (!fr.ok()) {
                std::printf("FAIL: fabric divergence at iteration=%zu burst=%zu\n%s\n",
                            iterations, burst, fr.summary().c_str());
                ovsx::obs::metrics_set("soak.result", ovsx::obs::Value("fail"));
                ovsx::gen::metrics_flush_from_env();
                return 1;
            }
        }
        const ovsx::gen::DiffReport report = ovsx::gen::fuzz_run(seed, cfg, count);
        packets += report.packets_run;
        explained += report.explained.size();
        if (!report.ok()) {
            // report.summary() includes the divergent packet's
            // per-provider obs trace and the minimized reproducer.
            std::printf("FAIL: unexplained divergence at seed=%llu count=%zu\n%s\n",
                        static_cast<unsigned long long>(seed), count,
                        report.summary().c_str());
            ovsx::obs::metrics_set("soak.result", ovsx::obs::Value("fail"));
            ovsx::obs::metrics_set("soak.fail_seed", ovsx::obs::Value(seed));
            ovsx::gen::metrics_flush_from_env();
            return 1;
        }
        ++iterations;
    }

    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    const double pkt_per_s = static_cast<double>(packets) / (elapsed > 0 ? elapsed : 1);
    std::printf("OK: %zu iterations, %zu packets, %zu explained divergences, "
                "%zu fabric frames, %.1fs (%.0f pkt/s across 3 datapaths)\n",
                iterations, packets, explained, fabric_frames, elapsed, pkt_per_s);

    // Obs evidence that the datapaths actually ran bursts: the
    // occupancy counter sums packets per rx burst, so occupancy/flush
    // is the average burst processed (the cross-provider legs inject
    // per-step, pinning their bursts at 1; the fabric legs contribute
    // the rotated burst sizes).
    const std::uint64_t occupancy = coverage_count("batch.occupancy");
    const std::uint64_t flushes = coverage_count("batch.flush");
    auto avg = [](std::uint64_t pkts, std::uint64_t n) {
        return n ? static_cast<double>(pkts) / static_cast<double>(n) : 0.0;
    };
    std::printf("bursts: %llu packets over %llu flushes (avg occupancy %.2f)\n",
                static_cast<unsigned long long>(occupancy),
                static_cast<unsigned long long>(flushes), avg(occupancy, flushes));
    const double burst_avg = avg(burst_occupancy, burst_flushes);
    std::printf("fabric bursts 8/32: %llu packets over %llu flushes (avg occupancy %.2f)\n",
                static_cast<unsigned long long>(burst_occupancy),
                static_cast<unsigned long long>(burst_flushes), burst_avg);
    ovsx::obs::metrics_set("soak.fabric_burst_occupancy", ovsx::obs::Value(burst_avg));
    // Burst guard: a fabric leg injected 8 or 32 at a time whose
    // datapaths still flush one packet per burst is not batching. Runs
    // too short to reach a burst-8 fabric leg (iteration 4) skip it.
    if (iterations > 4 && burst_avg <= 1.0) {
        std::printf("FAIL: fabric legs at burst 8/32 average %.2f packets per flush\n",
                    burst_avg);
        ovsx::obs::metrics_set("soak.result", ovsx::obs::Value("fail"));
        ovsx::gen::metrics_flush_from_env();
        return 1;
    }

    // Profiler-overhead guard: interleaved profiler-off / profiler-on
    // legs of a fixed deterministic workload. min-of-reps per side
    // cancels scheduler noise; the on-side must stay within the
    // documented budget of the off-side.
    const char* artifact_env = std::getenv("OVSX_PERF_ARTIFACT");
    const std::string artifact = artifact_env ? artifact_env : "";
    constexpr int kOverheadReps = 4;
    double min_off = 0.0;
    double min_on = 0.0;
    for (int rep = 0; rep < kOverheadReps; ++rep) {
        const double off = overhead_leg(false, "");
        const double on = overhead_leg(true, rep == kOverheadReps - 1 ? artifact : "");
        min_off = rep == 0 ? off : std::min(min_off, off);
        min_on = rep == 0 ? on : std::min(min_on, on);
    }
    const double overhead_pct =
        min_off > 0 ? 100.0 * (min_on - min_off) / min_off : 0.0;
    std::printf("profiler overhead: off=%.4fs on=%.4fs (%+.1f%%, budget %.0f%%)\n",
                min_off, min_on, overhead_pct, kPerfOverheadBudgetPct);
    if (!artifact.empty()) std::printf("perf artifact written to %s\n", artifact.c_str());
    ovsx::obs::metrics_set("soak.perf_off_seconds", ovsx::obs::Value(min_off));
    ovsx::obs::metrics_set("soak.perf_on_seconds", ovsx::obs::Value(min_on));
    ovsx::obs::metrics_set("soak.perf_overhead_pct", ovsx::obs::Value(overhead_pct));
    ovsx::obs::metrics_set("soak.perf_overhead_budget_pct",
                           ovsx::obs::Value(kPerfOverheadBudgetPct));
    if (overhead_pct > kPerfOverheadBudgetPct) {
        std::printf("FAIL: profiler overhead %.1f%% exceeds the %.0f%% budget\n",
                    overhead_pct, kPerfOverheadBudgetPct);
        ovsx::obs::metrics_set("soak.result", ovsx::obs::Value("fail"));
        ovsx::gen::metrics_flush_from_env();
        return 1;
    }

    ovsx::obs::metrics_set("soak.result", ovsx::obs::Value("ok"));
    ovsx::obs::metrics_set("soak.pkt_per_s", ovsx::obs::Value(pkt_per_s));
    ovsx::obs::metrics_set("soak.batch_occupancy", ovsx::obs::Value(occupancy));
    ovsx::obs::metrics_set("soak.batch_flushes", ovsx::obs::Value(flushes));
    ovsx::obs::metrics_set("soak.base_seed", ovsx::obs::Value(base_seed));
    ovsx::obs::metrics_set("soak.iterations", ovsx::obs::Value(iterations));
    ovsx::obs::metrics_set("soak.packets", ovsx::obs::Value(packets));
    ovsx::obs::metrics_set("soak.explained_divergences", ovsx::obs::Value(explained));
    ovsx::obs::metrics_set("soak.fabric_frames", ovsx::obs::Value(fabric_frames));
    ovsx::obs::metrics_set("soak.elapsed_seconds", ovsx::obs::Value(elapsed));
    const std::string written = ovsx::gen::metrics_flush_from_env();
    if (!written.empty()) std::printf("obs metrics written to %s\n", written.c_str());
    return 0;
}
