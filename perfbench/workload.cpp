// perfbench_workload: one workload of the datapath benchmark, in one
// single-threaded process.
//
// Usage: perfbench_workload --workload p2p_64b|nsx_imix|conn_churn
//                         --seed N --seconds S --trace 0|1 [--trace-out PATH]
//
// For each provider (netdev = DpifNetdev over AF_XDP with one PMD,
// kernel = OvsKernelDatapath behind DpifKernel, ebpf = DpifEbpf) the
// program builds a fresh testbed several times. Each build is timed
// (set-up: testbed, ruleset deploy, warm-up) and followed by a virtual
// phase of a fixed packet count, which yields the virtual-clock
// metrics; those must be bit-identical across the builds. The last
// builds of all providers then share the timed closed loop for
// --seconds, taking turns in short slices: inject one burst into
// PhysicalDevice::rx_from_wire, poll until quiet, repeat. Frames are
// generated from the seed before any timing starts. Each round of the
// loop also times a fixed host-speed reference; wall rates and set-up
// time are scaled by it to a nominal host speed (see Reference).
//
// --trace 0 prints the end-to-end metrics; --trace 1 splits every
// slice into an untraced half and a traced half of equal bursts that
// records spans around each call into a layer, and prints the
// per-layer metrics. The last stdout line is the JSON result.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "gen/measure.h"
#include "gen/traffic.h"
#include "kern/kernel.h"
#include "kern/nic.h"
#include "kern/ovs_kmod.h"
#include "nsx/nsx.h"
#include "obs/coverage.h"
#include "ovs/dpif_ebpf.h"
#include "ovs/dpif_kernel.h"
#include "ovs/dpif_netdev.h"
#include "ovs/netdev_afxdp.h"
#include "ovs/vswitch.h"
#include "sim/rng.h"
#include "spans.h"

using namespace ovsx;
using perfbench::Counters;
using perfbench::SpanName;

namespace {

std::int64_t wall_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// ---- workloads ------------------------------------------------------------

enum class Prov { Netdev, Kernel, Ebpf };
constexpr Prov kProvs[] = {Prov::Netdev, Prov::Kernel, Prov::Ebpf};
constexpr const char* kProvNames[] = {"netdev", "kernel", "ebpf"};
const char* name(Prov p) { return kProvNames[static_cast<int>(p)]; }

// Virtual time advances 1 us per injected packet (a 1 Mpps offered
// load); conntrack timeouts and the revalidation period are set on it.
constexpr sim::Nanos kGapNs = 1000;
constexpr double kLineGbps = 25.0; // Fig. 9's NICs
// Fig. 9 kernel datapath: RSS spreads 1000 flows over this many queues.
constexpr std::uint32_t kKernelRssQueues = 10;
// Set-up repetitions per provider; set-up time is their median and the
// virtual metrics must agree bit for bit across all of them.
constexpr int kSetupReps = 3;

struct Workload {
    std::string name;
    std::uint32_t burst = 32;
    bool nsx = false;          // NSX Table 3 ruleset, else one forward rule
    bool churn = false;        // fresh connections of kPktsPerConn packets
    std::uint64_t warmup = 0;  // packets injected during set-up
    std::uint64_t virt = 0;    // packets of the virtual phase
    std::size_t frame = 64;    // mean on-wire frame, for the line-rate cap
    sim::Nanos ct_idle = 0;    // conntrack idle timeout (0 = none)
    sim::Nanos reval = 0;      // revalidation period (0 = none)
};

constexpr std::uint32_t kP2pFlows = 1000;
constexpr std::uint32_t kImixFlows = 16384;
constexpr std::uint32_t kChurnConns = 32768; // pool; reuse is > 6 idle timeouts apart
constexpr std::uint64_t kPktsPerConn = 4;
constexpr std::size_t kImixSizes[] = {64, 570, 1518};
constexpr int kImixWeights[] = {7, 4, 1};

std::optional<Workload> find_workload(const std::string& name)
{
    // IMIX mean frame: (7*64 + 4*570 + 1518) / 12.
    constexpr std::size_t kImixMean = (7 * 64 + 4 * 570 + 1518) / 12;
    if (name == "p2p_64b") {
        return Workload{name, 32, false, false, 32 * kP2pFlows, 32768, 64, 0, 0};
    }
    if (name == "nsx_imix") {
        return Workload{name, 32, true, false, 2 * kImixFlows, 32768, kImixMean, 0, 0};
    }
    if (name == "conn_churn") {
        // Idle timeout 20 ms of virtual time: ~5k live connections at one
        // new connection per 4 us. Revalidation every 10 ms.
        return Workload{name, 4, true, true, 40960, 32768, kImixMean, 20'000'000, 10'000'000};
    }
    return std::nullopt;
}

std::size_t imix_size(sim::Rng& rng)
{
    int r = static_cast<int>(rng.below(12));
    for (std::size_t i = 0; i < 3; ++i) {
        if (r < kImixWeights[i]) return kImixSizes[i];
        r -= kImixWeights[i];
    }
    return kImixSizes[0];
}

net::Packet udp_frame(std::uint32_t src_ip, std::uint32_t dst_ip, std::uint16_t sport,
                      std::size_t frame)
{
    net::UdpSpec spec;
    spec.src_mac = net::MacAddr::from_id(0x100);
    spec.dst_mac = net::MacAddr::from_id(0x200);
    spec.src_ip = src_ip;
    spec.dst_ip = dst_ip;
    spec.src_port = sport;
    spec.dst_port = 12;
    spec.payload_len = frame - (14 + 20 + 8 + 4); // eth + ip + udp + FCS
    return net::build_udp(spec);
}

// The frames of a run, built before any timing. at(i) is the i-th
// injected packet.
class Traffic {
public:
    Traffic(const Workload& w, std::uint64_t seed) : churn_(w.churn)
    {
        sim::Rng rng(seed);
        if (w.name == "p2p_64b") {
            gen::TrafficGen gen({.n_flows = kP2pFlows, .frame_size = 64, .seed = seed});
            for (std::uint32_t i = 0; i < kP2pFlows; ++i) pool_.push_back(gen.next());
        } else if (!w.churn) {
            // 16k distinct flows (distinct source IPs), two passes, each
            // in its own seeded order, every packet sized by IMIX.
            std::vector<std::uint16_t> sport(kImixFlows);
            for (auto& p : sport) p = static_cast<std::uint16_t>(1024 + rng.below(50000));
            for (int pass = 0; pass < 2; ++pass) {
                std::vector<std::uint32_t> order(kImixFlows);
                for (std::uint32_t i = 0; i < kImixFlows; ++i) order[i] = i;
                for (std::uint32_t i = kImixFlows - 1; i > 0; --i) {
                    std::swap(order[i], order[rng.below(i + 1)]);
                }
                for (const std::uint32_t f : order) {
                    pool_.push_back(udp_frame(net::ipv4(48, 0, 0, 1) + f,
                                              net::ipv4(16, 0, 0, 1) + (f % 64), sport[f],
                                              imix_size(rng)));
                }
            }
        } else {
            // One frame per connection; its kPktsPerConn copies land in
            // consecutive bursts (see at()).
            for (std::uint32_t c = 0; c < kChurnConns; ++c) {
                const auto sport = static_cast<std::uint16_t>(1024 + rng.below(60000));
                pool_.push_back(udp_frame(net::ipv4(48, 1, 0, 0) + (c << 1) + 1,
                                          net::ipv4(16, 0, 0, 1) + rng.below(64), sport,
                                          imix_size(rng)));
            }
        }
    }

    const net::Packet& at(std::uint64_t i) const
    {
        if (!churn_) return pool_[i % pool_.size()];
        // Burst b (of kPktsPerConn packets) carries packet k of
        // connection b - k + kPktsPerConn - 1, so each connection's
        // packets are spread over kPktsPerConn bursts.
        const std::uint64_t b = i / kPktsPerConn;
        const std::uint64_t k = i % kPktsPerConn;
        return pool_[(b + kPktsPerConn - 1 - k) % pool_.size()];
    }

    const std::vector<net::Packet>& pool() const { return pool_; }

private:
    bool churn_;
    std::vector<net::Packet> pool_;
};

// ---- testbeds ---------------------------------------------------------------------

Counters coverage_now()
{
    Counters c;
    for (auto& [n, v] : obs::coverage_snapshot()) c[n] = v;
    return c;
}

std::uint64_t fnv1a(const std::uint8_t* p, std::size_t n)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 1099511628211ULL;
    return h;
}

struct VirtResult {
    double mpps = 0;
    double lat_p50_us = 0;
    double lat_p99_us = 0;
    std::size_t lat_samples = 0;
    double cpu_ht = 0;
    std::vector<std::pair<std::string, double>> stage_ns; // per packet
    std::uint64_t digest = 0;
    std::uint64_t delivered = 0;

    bool same_virtual(const VirtResult& o) const
    {
        return mpps == o.mpps && lat_p50_us == o.lat_p50_us && lat_p99_us == o.lat_p99_us &&
               cpu_ht == o.cpu_ht && stage_ns == o.stage_ns && digest == o.digest;
    }
};

// Named drop counters, read as deltas over a phase.
struct Drops {
    std::vector<std::pair<std::string, std::uint64_t>> rows;
    std::uint64_t total() const
    {
        std::uint64_t t = 0;
        for (const auto& r : rows) t += r.second;
        return t;
    }
};

// One provider's testbed: two physical NICs (eth0 ingress, eth1
// egress) and the datapath between them.
class Bed {
public:
    Bed(Prov prov, const Workload& w) : w_(w), host_("host")
    {
        kern::NicConfig cfg;
        cfg.gbps = kLineGbps;
        cfg.num_queues = prov == Prov::Kernel ? kKernelRssQueues : 1;
        nic0_ = &host_.add_device<kern::PhysicalDevice>("eth0", net::MacAddr::from_id(1), cfg);
        nic1_ = &host_.add_device<kern::PhysicalDevice>("eth1", net::MacAddr::from_id(2), cfg);
        nic1_->connect_wire([this](net::Packet&& p) { on_wire(p); });
    }
    virtual ~Bed() = default;
    Bed(const Bed&) = delete;
    Bed& operator=(const Bed&) = delete;

    // Injects packets [first, first + n) as one burst. The span opened
    // here covers exactly the rx_from_wire calls.
    void inject(const Traffic& t, std::uint64_t first, std::uint32_t n,
                perfbench::SpanStore* spans, std::uint32_t id)
    {
        if (spans) spans->begin(SpanName::KernRx, id, wall_ns());
        for (std::uint32_t i = 0; i < n; ++i) {
            net::Packet copy = t.at(first + i);
            nic0_->rx_from_wire(std::move(copy));
        }
        if (spans) spans->end(wall_ns());
        injected_ += n;
    }

    virtual void poll() {}
    virtual void set_now(sim::Nanos now) = 0;
    virtual void revalidate() {}
    virtual std::uint64_t classifier_passes() const = 0; // hits + misses
    virtual std::uint64_t profiler_packets() const = 0;
    virtual std::uint64_t upcalls() const = 0;
    virtual std::uint64_t xlates() const { return vswitch_ ? vswitch_->ofproto().xlate_count() : 0; }
    virtual std::size_t flows() const = 0;
    virtual std::size_t ct_live() { return host_.conntrack().size(); }
    virtual void deploy() {}

    // Starts a measured phase: zeroes busy time, profilers, and the
    // phase's counters.
    void begin_phase(bool record)
    {
        reset_contexts();
        record_ = record;
        latencies_.clear();
        digest_ = 0;
        delivered_ = 0;
        injected_ = 0;
        passes_base_ = classifier_passes();
        drops_base_ = drop_counts();
    }

    VirtResult virt_result(std::uint64_t packets)
    {
        VirtResult r;
        gen::RateMeasure m;
        add_stages(m);
        const gen::RateReport rep =
            m.report(packets, sim::line_rate_pps(kLineGbps, static_cast<int>(w_.frame)));
        r.mpps = rep.mpps();
        r.cpu_ht = rep.cpu.total();
        for (const auto& [stage, cycles] : rep.perf_stage_cycles) {
            r.stage_ns.emplace_back(stage, static_cast<double>(cycles) / static_cast<double>(packets));
        }
        std::sort(latencies_.begin(), latencies_.end());
        r.lat_samples = latencies_.size();
        r.lat_p50_us = static_cast<double>(perfbench::percentile(latencies_, 50)) / 1e3;
        r.lat_p99_us = static_cast<double>(perfbench::percentile(latencies_, 99)) / 1e3;
        r.digest = digest_;
        r.delivered = delivered_;
        return r;
    }

    std::uint64_t injected() const { return injected_; }
    std::uint64_t delivered() const { return delivered_; }
    std::uint64_t phase_passes() const { return classifier_passes() - passes_base_; }

    Drops phase_drops() const
    {
        Drops now = drop_counts();
        for (std::size_t i = 0; i < now.rows.size(); ++i) {
            now.rows[i].second -= drops_base_.rows[i].second;
        }
        return now;
    }

protected:
    virtual void reset_contexts()
    {
        for (auto* nic : {nic0_, nic1_}) {
            for (std::uint32_t q = 0; q < nic->config().num_queues; ++q) nic->softirq_ctx(q).reset();
        }
    }
    virtual void add_stages(gen::RateMeasure& m) = 0;

    // Coverage-backed drop counters plus device and socket drops.
    virtual Drops drop_counts() const
    {
        const Counters c = coverage_now();
        Drops d;
        for (const char* n : {"meter.drop", "xdp.aborted", "ebpf.unsupported_action"}) {
            d.rows.emplace_back(n, perfbench::get(c, n));
        }
        std::uint64_t dev = 0;
        for (auto* nic : {nic0_, nic1_}) {
            dev += nic->stats().rx_dropped + nic->stats().tx_dropped + nic->xdp_drops();
        }
        d.rows.emplace_back("nic.dropped", dev);
        return d;
    }

    std::uint64_t softirq_perf_packets() const
    {
        std::uint64_t n = 0;
        for (auto* nic : {nic0_, nic1_}) {
            for (std::uint32_t q = 0; q < nic->config().num_queues; ++q) {
                if (const obs::PmdPerf* p = nic->softirq_ctx(q).perf()) n += p->packets();
            }
        }
        return n;
    }

    std::vector<const sim::ExecContext*> softirqs(bool both_nics) const
    {
        std::vector<const sim::ExecContext*> v;
        for (std::uint32_t q = 0; q < nic0_->config().num_queues; ++q) v.push_back(&nic0_->softirq_ctx(q));
        if (both_nics) {
            for (std::uint32_t q = 0; q < nic1_->config().num_queues; ++q) v.push_back(&nic1_->softirq_ctx(q));
        }
        return v;
    }

    // Fig. 9's softirq stage: the queues' busy time summed into one
    // context, with their profilers for the class split.
    void add_softirq_stage(gen::RateMeasure& m, bool both_nics, double parallelism)
    {
        const auto parts = softirqs(both_nics);
        softirq_sum_ = sim::ExecContext("softirq", sim::CpuClass::Softirq);
        std::vector<const obs::PmdPerf*> perfs;
        for (const auto* p : parts) {
            for (auto c : {sim::CpuClass::User, sim::CpuClass::System, sim::CpuClass::Softirq,
                           sim::CpuClass::Guest}) {
                softirq_sum_.charge(c, p->busy(c));
            }
            if (p->perf()) perfs.push_back(p->perf());
        }
        m.add_stage({"softirq", &softirq_sum_, gen::StageKind::Demand, parallelism, perfs});
    }

    void on_wire(const net::Packet& p)
    {
        ++delivered_;
        if (!record_) return;
        latencies_.push_back(p.meta().latency_ns);
        digest_ += fnv1a(p.data(), p.size()); // order-insensitive multiset digest
    }

    // NSX Table 3 ruleset on VM0's two interfaces (p0 in, p1 out), the
    // bench_ablation_caches wiring; the traffic's destination is VM0's
    // second interface.
    void deploy_nsx(std::unique_ptr<ovs::Dpif> dpif, std::uint32_t p0, std::uint32_t p1,
                    std::uint32_t tun)
    {
        vswitch_ = std::make_unique<ovs::VSwitch>(std::move(dpif));
        nsx::NsxConfig cfg =
            nsx::make_production_config(net::ipv4(172, 16, 0, 1), tun, {p0, p1}, 1, 15, 291);
        cfg.vms[1].mac = net::MacAddr::from_id(0x200);
        cfg.vms[1].ip = net::ipv4(16, 0, 0, 1);
        agent_ = std::make_unique<nsx::NsxAgent>(*vswitch_, cfg);
        agent_->deploy();
    }

    const Workload& w_;
    kern::Kernel host_;
    kern::PhysicalDevice* nic0_ = nullptr;
    kern::PhysicalDevice* nic1_ = nullptr;
    std::unique_ptr<ovs::VSwitch> vswitch_;
    std::unique_ptr<nsx::NsxAgent> agent_;
    sim::ExecContext softirq_sum_;

    bool record_ = false;
    std::vector<std::int64_t> latencies_;
    std::uint64_t digest_ = 0;
    std::uint64_t delivered_ = 0;
    std::uint64_t injected_ = 0;
    std::uint64_t passes_base_ = 0;
    Drops drops_base_;
};

class NetdevBed : public Bed {
public:
    NetdevBed(const Workload& w) : Bed(Prov::Netdev, w)
    {
        auto dpif = std::make_unique<ovs::DpifNetdev>(host_);
        dpif_ = dpif.get();
        // gen::run_p2p ports for bare forwarding, bench_ablation_caches
        // ports (default AF_XDP options) under the NSX pipeline.
        const ovs::AfxdpOptions opts = w.nsx ? ovs::AfxdpOptions{} : ovs::AfxdpOptions::all();
        p0_ = dpif->add_port(std::make_unique<ovs::NetdevAfxdp>(*nic0_, opts));
        p1_ = dpif->add_port(std::make_unique<ovs::NetdevAfxdp>(*nic1_, opts));
        if (w.nsx) tun_ = dpif->add_tunnel_port("geneve0", net::TunnelType::Geneve, net::ipv4(172, 16, 0, 1));
        pmd_ = dpif->add_pmd("pmd0");
        dpif->pmd_assign(pmd_, p0_, 0);
        if (!w.nsx) dpif->pmd_assign(pmd_, p1_, 0);
        dpif->ct().set_idle_timeout(w.ct_idle);
        owned_ = std::move(dpif);
    }

    void deploy() override
    {
        if (w_.nsx) {
            deploy_nsx(std::move(owned_), p0_, p1_, tun_);
            return;
        }
        net::FlowKey key;
        key.in_port = p0_;
        net::FlowMask mask;
        mask.bits.in_port = 0xffffffff;
        mask.bits.recirc_id = 0xffffffff;
        dpif_->flow_put(key, mask, {kern::OdpAction::output(p1_)});
    }

    void poll() override
    {
        while (dpif_->pmd_poll_once(pmd_) > 0) {
        }
    }
    void set_now(sim::Nanos now) override { dpif_->set_now(now); }
    void revalidate() override { dpif_->revalidate(); }
    std::uint64_t classifier_passes() const override
    {
        return dpif_->stats_hits() + dpif_->upcalls();
    }
    std::uint64_t profiler_packets() const override
    {
        const obs::PmdPerf* p = dpif_->pmd_ctx(pmd_).perf();
        return p ? p->packets() : 0;
    }
    std::uint64_t upcalls() const override { return dpif_->upcalls(); }
    std::size_t flows() const override { return dpif_->flow_count(); }
    std::size_t ct_live() override { return dpif_->ct().size(); }

protected:
    void reset_contexts() override
    {
        Bed::reset_contexts();
        dpif_->pmd_ctx(pmd_).reset();
    }
    void add_stages(gen::RateMeasure& m) override
    {
        add_softirq_stage(m, true, 1);
        m.add_stage({"pmd0", &dpif_->pmd_ctx(pmd_), gen::StageKind::Polling, 1, {}});
    }
    Drops drop_counts() const override
    {
        Drops d = Bed::drop_counts();
        std::uint64_t xsk = 0;
        for (const auto p : {p0_, p1_}) {
            auto* nd = dynamic_cast<ovs::NetdevAfxdp*>(dpif_->port_netdev(p));
            afxdp::XskSocket& s = nd->xsk(0);
            xsk += s.rx_dropped_no_frame + s.rx_dropped_ring_full;
        }
        d.rows.emplace_back("xsk.rx_dropped", xsk);
        d.rows.emplace_back("dpif_netdev.dropped", dpif_->dropped());
        return d;
    }

private:
    std::unique_ptr<ovs::DpifNetdev> owned_;
    ovs::DpifNetdev* dpif_ = nullptr;
    std::uint32_t p0_ = 0, p1_ = 0, tun_ = 0;
    int pmd_ = 0;
};

class KernelBed : public Bed {
public:
    KernelBed(const Workload& w) : Bed(Prov::Kernel, w), dp_(host_.ovs_datapath())
    {
        p0_ = dp_.add_port(*nic0_);
        p1_ = dp_.add_port(*nic1_);
        if (w.nsx) tun_ = dp_.add_tunnel_port("geneve0", net::TunnelType::Geneve, net::ipv4(172, 16, 0, 1));
        host_.conntrack().set_idle_timeout(w.ct_idle);
    }

    void deploy() override
    {
        if (w_.nsx) {
            deploy_nsx(std::make_unique<ovs::DpifKernel>(dp_), p0_, p1_, tun_);
            return;
        }
        // gen::run_p2p installs the forward rule straight into the module.
        net::FlowKey key;
        key.in_port = p0_;
        net::FlowMask mask;
        mask.bits.in_port = 0xffffffff;
        dp_.flow_put(key, mask, {kern::OdpAction::output(p1_)});
    }

    void set_now(sim::Nanos now) override { dp_.set_now(now); }
    // The kernel module keeps no per-flow idle state here, so the
    // revalidation period flushes the table, as for eBPF.
    void revalidate() override { dp_.flow_flush(); }
    std::uint64_t classifier_passes() const override { return dp_.hits() + dp_.misses(); }
    std::uint64_t profiler_packets() const override { return softirq_perf_packets(); }
    std::uint64_t upcalls() const override { return dp_.misses(); }
    std::size_t flows() const override { return dp_.flow_count(); }

protected:
    void add_stages(gen::RateMeasure& m) override
    {
        add_softirq_stage(m, false, static_cast<double>(kKernelRssQueues));
    }
    Drops drop_counts() const override
    {
        Drops d = Bed::drop_counts();
        d.rows.emplace_back("kdp.lost", dp_.lost());
        return d;
    }

private:
    kern::OvsKernelDatapath& dp_;
    std::uint32_t p0_ = 0, p1_ = 0, tun_ = 0;
};

// The eBPF datapath holds exact-match entries only. On p2p_64b they
// are installed up front (one per flow, as gen::run_p2p does); under
// the NSX workloads, whose ct and recirculation it cannot express, its
// upcall handler installs an exact-match forward per microflow (the
// fabric's eBPF host), and the revalidation period flushes the map.
class EbpfBed : public Bed {
public:
    EbpfBed(const Workload& w, const Traffic& t) : Bed(Prov::Ebpf, w), dpif_(host_), traffic_(t)
    {
        p0_ = dpif_.add_port(*nic0_);
        p1_ = dpif_.add_port(*nic1_);
    }

    void deploy() override
    {
        if (w_.nsx) {
            dpif_.set_upcall_handler([this](std::uint32_t, net::Packet&& pkt, const net::FlowKey& key,
                                            sim::ExecContext& ctx) {
                const kern::OdpActions actions = {kern::OdpAction::output(p1_)};
                dpif_.flow_put(key, ovs::DpifEbpf::required_mask(), actions);
                dpif_.execute(std::move(pkt), actions, ctx);
            });
            return;
        }
        for (const net::Packet& p : traffic_.pool()) {
            net::Packet probe = p;
            probe.meta().in_port = p0_;
            dpif_.flow_put(net::parse_flow(probe), ovs::DpifEbpf::required_mask(),
                           {kern::OdpAction::output(p1_)});
        }
    }

    void set_now(sim::Nanos now) override { dpif_.set_now(now); }
    void revalidate() override { dpif_.flow_flush(); }
    std::uint64_t classifier_passes() const override { return dpif_.hits() + dpif_.misses(); }
    std::uint64_t profiler_packets() const override { return softirq_perf_packets(); }
    std::uint64_t upcalls() const override { return dpif_.misses(); }
    std::size_t flows() const override { return dpif_.flow_count(); }

protected:
    void add_stages(gen::RateMeasure& m) override { add_softirq_stage(m, true, 1); }

private:
    ovs::DpifEbpf dpif_;
    const Traffic& traffic_;
    std::uint32_t p0_ = 0, p1_ = 0;
};

std::unique_ptr<Bed> make_bed(Prov p, const Workload& w, const Traffic& t)
{
    switch (p) {
    case Prov::Netdev: return std::make_unique<NetdevBed>(w);
    case Prov::Kernel: return std::make_unique<KernelBed>(w);
    case Prov::Ebpf: return std::make_unique<EbpfBed>(w, t);
    }
    return nullptr;
}

// ---- the closed loop --------------------------------------------------------------

// Drives bursts through a bed, keeping the packet cursor and the
// virtual clock. With `spans`, every burst is a bench.burst root.
class Loop {
public:
    Loop(Bed& bed, const Workload& w, const Traffic& t) : bed_(bed), w_(w), t_(t) {}

    void burst(perfbench::SpanStore* spans)
    {
        const std::uint32_t id = ++burst_id_;
        if (spans) spans->begin(SpanName::Burst, id, wall_ns());
        const sim::Nanos now = static_cast<sim::Nanos>(cursor_ + 1) * kGapNs;
        if (spans) spans->begin(SpanName::Tick, id, wall_ns());
        bed_.set_now(now);
        if (spans) spans->end(wall_ns());
        if (w_.reval > 0 && now >= next_reval_) {
            next_reval_ = now + w_.reval;
            if (spans) spans->begin(SpanName::Revalidate, id, wall_ns());
            bed_.revalidate();
            if (spans) spans->end(wall_ns());
        }
        bed_.inject(t_, cursor_, w_.burst, spans, id);
        cursor_ += w_.burst;
        if (spans) spans->begin(SpanName::PmdPoll, id, wall_ns());
        bed_.poll();
        if (spans) spans->end(wall_ns());
        if (spans) spans->end(wall_ns());
    }

    std::uint32_t burst_size() const { return w_.burst; }

    void run_packets(std::uint64_t n)
    {
        for (std::uint64_t done = 0; done < n; done += w_.burst) burst(nullptr);
    }

private:
    Bed& bed_;
    const Workload& w_;
    const Traffic& t_;
    std::uint64_t cursor_ = 0;
    std::uint32_t burst_id_ = 0;
    sim::Nanos next_reval_ = 0;
};


// ---- per-provider run -----------------------------------------------------------

struct ProvResult {
    Prov prov = Prov::Netdev;
    std::vector<double> setup_s;
    std::vector<double> deploy_s;
    VirtResult virt;
    bool deterministic = true;
    std::vector<double> slice_kpps; // untraced slices of the timed loop
    std::uint64_t injected = 0;
    std::uint64_t delivered = 0;
    Drops drops;
    bool accounted = true;
    bool perf_matches = true;
    std::string perf_detail;
    std::size_t flows = 0;
    std::size_t ct_live = 0;
    // Traced slices (--trace 1).
    std::uint64_t traced_packets = 0;
    std::int64_t traced_ns = 0;
    std::int64_t untraced_equiv_ns = 0; // untraced time for the same bursts
    Counters traced_counts;
    std::uint64_t traced_upcalls = 0;
    std::uint64_t traced_passes = 0; // classifier passes, recirculation included
    std::uint64_t traced_xlates = 0;
};

std::vector<double> sorted(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v;
}

double median(std::vector<double> v)
{
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Host speed reference. The timed loop shares a host with other
// machines' work, and that host's speed drifts by tens of percent over
// minutes (memory-subsystem contention, mostly). Each round of the loop
// therefore also times this fixed piece of work, which does not depend
// on the program under test: dependent probes into a 4 MiB table plus
// byte hashing. Its rate fell and rose with the datapaths' (correlation
// 0.9 to 0.98 over a drift of 35%), and dividing by it cut the spread of
// wall rates across runs two to three times. Wall rates and set-up time
// are reported at kRefNominal, a typical rate of this loop.
class Reference {
public:
    Reference() : table_(std::size_t{1} << kBits)
    {
        std::uint64_t x = 0x9e3779b97f4a7c15ULL;
        for (auto& v : table_) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            v = static_cast<std::uint32_t>(x);
        }
    }

    // Runs for about `budget_ns`; returns operations per microsecond.
    double run(std::int64_t budget_ns)
    {
        const std::int64_t start = wall_ns();
        std::uint64_t ops = 0;
        std::int64_t now = start;
        do {
            for (int i = 0; i < 1024; ++i) {
                const auto idx = static_cast<std::size_t>((x_ * 0x9e3779b97f4a7c15ULL) >> (64 - kBits));
                x_ = (x_ ^ table_[idx]) * 1099511628211ULL + fnv1a(bytes_ + (x_ & 127), 64);
            }
            ops += 1024;
            now = wall_ns();
        } while (now - start < budget_ns);
        bytes_[0] = static_cast<std::uint8_t>(x_); // keep the chain observable
        return static_cast<double>(ops) / (static_cast<double>(now - start) / 1e3);
    }

private:
    static constexpr int kBits = 20;
    std::vector<std::uint32_t> table_;
    std::uint64_t x_ = 1;
    std::uint8_t bytes_[192] = {};
};

constexpr std::int64_t kRefSliceNs = 10'000'000;
constexpr double kRefNominal = 6.0; // ops/us

// The timed loop rotates over the providers in slices of this length,
// so every provider samples the whole run's machine noise alike rather
// than one contiguous stretch of it. Each untraced slice yields one
// rate. On a shared host, neighbours only ever slow a slice down, so a
// provider's wall_kpps is the 95th percentile of its slice rates (about
// 160 slices in a 50 s run): the rate of its least-disturbed slices,
// the min-of-N idea applied to slices. Across runs it was two to three
// times steadier than the median of the same slices.
constexpr std::int64_t kSliceNs = 100'000'000;
constexpr double kWallPercentile = 95;

struct Slice {
    std::uint64_t bursts = 0;
    std::uint64_t delivered = 0;
    std::int64_t elapsed_ns = 0;
    double kpps() const
    {
        return perfbench::ratio(static_cast<double>(delivered), static_cast<double>(elapsed_ns), 1e6);
    }
};

Slice run_slice(Loop& loop, Bed& bed, std::int64_t budget_ns, std::uint64_t max_bursts,
                perfbench::SpanStore* spans)
{
    Slice s;
    const std::uint64_t delivered0 = bed.delivered();
    const std::int64_t start = wall_ns();
    // Headroom: one burst opens at most five spans.
    while (s.bursts < max_bursts && !(spans && spans->full(5))) {
        loop.burst(spans);
        ++s.bursts;
        if (wall_ns() - start >= budget_ns) break;
    }
    s.elapsed_ns = wall_ns() - start;
    s.delivered = bed.delivered() - delivered0;
    return s;
}

struct Provider {
    ProvResult res;
    std::unique_ptr<Bed> bed;
    std::unique_ptr<Loop> loop;
    perfbench::SpanStore spans;
};

void check_profiler(Bed& bed, ProvResult& res)
{
    // pmd/perf-show packets must equal classifier passes (hits + misses)
    // over the phase, the cross-check DifferentialHarness::run_once makes.
    const std::uint64_t perf = bed.profiler_packets();
    const std::uint64_t passes = bed.phase_passes();
    if (perf != passes) {
        res.perf_matches = false;
        res.perf_detail = "profiler packets " + std::to_string(perf) + " != hits+misses " +
                          std::to_string(passes);
    }
}

void account(Bed& bed, ProvResult& res)
{
    const Drops d = bed.phase_drops();
    res.injected += bed.injected();
    res.delivered += bed.delivered();
    if (res.drops.rows.empty()) {
        res.drops = d;
    } else {
        for (std::size_t i = 0; i < d.rows.size(); ++i) res.drops.rows[i].second += d.rows[i].second;
    }
    const std::uint64_t lost = bed.injected() - std::min(bed.injected(), bed.delivered());
    if (bed.delivered() > bed.injected() || d.total() < lost) res.accounted = false;
}

// Set-up repetitions and the virtual phase; leaves the last testbed
// warm for the timed loop.
void set_up(Provider& pv, Prov prov, const Workload& w, const Traffic& traffic,
            perfbench::SpanStore* setup_spans)
{
    ProvResult& res = pv.res;
    res.prov = prov;
    const bool nsx = w.nsx && prov != Prov::Ebpf;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        pv.loop.reset();
        pv.bed.reset();
        // Set-up: testbed build, ruleset deploy, warm-up.
        const std::int64_t t0 = wall_ns();
        pv.bed = make_bed(prov, w, traffic);
        if (setup_spans && nsx) setup_spans->begin(SpanName::NsxDeploy, 0, wall_ns());
        const std::int64_t d0 = wall_ns();
        pv.bed->deploy();
        const std::int64_t d1 = wall_ns();
        if (setup_spans && nsx) setup_spans->end(d1);
        if (nsx) res.deploy_s.push_back(static_cast<double>(d1 - d0) / 1e9);
        pv.loop = std::make_unique<Loop>(*pv.bed, w, traffic);
        if (setup_spans) setup_spans->begin(SpanName::Warmup, 0, wall_ns());
        pv.bed->begin_phase(false);
        pv.loop->run_packets(w.warmup);
        account(*pv.bed, res);
        if (setup_spans) setup_spans->end(wall_ns());
        res.setup_s.push_back(static_cast<double>(wall_ns() - t0) / 1e9);

        // Virtual phase: a fixed packet count on the virtual clock.
        pv.bed->begin_phase(true);
        pv.loop->run_packets(w.virt);
        const VirtResult v = pv.bed->virt_result(w.virt);
        check_profiler(*pv.bed, res);
        account(*pv.bed, res);
        if (rep == 0) res.virt = v;
        else if (!v.same_virtual(res.virt)) res.deterministic = false;
    }
    pv.bed->begin_phase(false);
}

// One slice of the timed loop. Traced: an untraced half, then the same
// number of bursts with spans (as many as the span buffer holds), with
// counters read around the traced part only.
void timed_slice(Provider& pv, bool trace)
{
    ProvResult& res = pv.res;
    Bed& bed = *pv.bed;
    if (!trace) {
        res.slice_kpps.push_back(run_slice(*pv.loop, bed, kSliceNs, ~std::uint64_t{0}, nullptr).kpps());
        return;
    }
    const Slice plain = run_slice(*pv.loop, bed, kSliceNs / 2, ~std::uint64_t{0}, nullptr);
    res.slice_kpps.push_back(plain.kpps());
    if (pv.spans.full(5)) return;
    const Counters before = coverage_now();
    const std::uint64_t up0 = bed.upcalls(), x0 = bed.xlates(), pass0 = bed.classifier_passes();
    const Slice traced = run_slice(*pv.loop, bed, std::numeric_limits<std::int64_t>::max(),
                                   plain.bursts, &pv.spans);
    for (const auto& [n, v] : perfbench::counter_delta(before, coverage_now())) res.traced_counts[n] += v;
    res.traced_upcalls += bed.upcalls() - up0;
    res.traced_xlates += bed.xlates() - x0;
    res.traced_passes += bed.classifier_passes() - pass0;
    res.traced_packets += traced.bursts * pv.loop->burst_size();
    res.traced_ns += traced.elapsed_ns;
    res.untraced_equiv_ns += static_cast<std::int64_t>(
        static_cast<double>(plain.elapsed_ns) * static_cast<double>(traced.bursts) /
        static_cast<double>(std::max<std::uint64_t>(plain.bursts, 1)));
}

void finish(Provider& pv)
{
    check_profiler(*pv.bed, pv.res);
    account(*pv.bed, pv.res);
    pv.res.flows = pv.bed->flows();
    pv.res.ct_live = pv.bed->ct_live();
}

double peak_rss_mb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB -> MiB
        }
    }
    return 0;
}

// ---- output ------------------------------------------------------------------------

class Metrics {
public:
    void add(const std::string& name, double value, const char* unit)
    {
        rows_.push_back({name, value, unit});
    }
    std::string json() const
    {
        std::ostringstream os;
        os << "{";
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.17g",
                          std::isfinite(rows_[i].value) ? rows_[i].value : 0.0);
            os << (i ? ", " : "") << "\"" << rows_[i].name << "\": {\"value\": " << buf
               << ", \"unit\": \"" << rows_[i].unit << "\"}";
        }
        os << "}";
        return os.str();
    }
    void print() const
    {
        for (const auto& r : rows_) std::printf("  %-44s %18.6f %s\n", r.name.c_str(), r.value, r.unit);
    }

private:
    struct Row {
        std::string name;
        double value;
        const char* unit;
    };
    std::vector<Row> rows_;
};

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const char* v = argv[i + 1];
        if (k == "--workload") a.workload = v;
        else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
        else if (k == "--seconds") a.seconds = std::strtod(v, nullptr);
        else if (k == "--trace") a.trace = std::atoi(v);
        else if (k == "--trace-out") a.trace_out = v;
        else return false;
    }
    return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

void per_layer_metrics(Metrics& m, const std::vector<Provider>& provs)
{
    using perfbench::get;
    using perfbench::ratio;
    const auto idx = [](SpanName n) { return static_cast<std::size_t>(n); };
    std::int64_t burst_self = 0;
    std::uint64_t traced_pkts = 0;
    std::vector<double> deploys;
    std::int64_t untraced_ns = 0, traced_ns = 0;
    for (const Provider& pv : provs) {
        const ProvResult& r = pv.res;
        const std::string p = name(r.prov);
        const auto& c = r.traced_counts;
        const perfbench::SpanTotals st = perfbench::span_totals(pv.spans.spans());
        const double pkts = static_cast<double>(r.traced_packets);
        burst_self += st.self_ns[idx(SpanName::Burst)];
        traced_pkts += r.traced_packets;
        deploys.insert(deploys.end(), r.deploy_s.begin(), r.deploy_s.end());
        untraced_ns += r.untraced_equiv_ns;
        traced_ns += r.traced_ns;

        m.add("kern.rx_ns_per_pkt." + p, ratio(static_cast<double>(st.total_ns[idx(SpanName::KernRx)]), pkts), "ns");
        if (r.prov == Prov::Kernel) {
            // From the datapath's own hits/misses: the kdp.* coverage
            // counters see only the first pass, not recirculations.
            m.add("kern.kdp_hit_ratio",
                  ratio(static_cast<double>(r.traced_passes - r.traced_upcalls),
                        static_cast<double>(r.traced_passes)), "ratio");
        }
        if (r.prov == Prov::Netdev) {
            m.add("ovs.pmd_poll_ns_per_pkt.netdev", ratio(static_cast<double>(st.total_ns[idx(SpanName::PmdPoll)]), pkts), "ns");
            m.add("ovs.emc_hit_ratio.netdev", ratio(get(c, "emc.hit"), get(c, "emc.hit") + get(c, "emc.miss")), "ratio");
            m.add("ovs.megaflow_hit_ratio.netdev",
                  ratio(get(c, "megaflow.hit"), get(c, "megaflow.hit") + get(c, "megaflow.miss")), "ratio");
            m.add("ovs.batch_occupancy.netdev", ratio(get(c, "batch.occupancy"), get(c, "batch.flush")), "pkts");
            m.add("ovs.revalidate_ms.netdev",
                  ratio(static_cast<double>(st.total_ns[idx(SpanName::Revalidate)]) / 1e6,
                        static_cast<double>(st.count[idx(SpanName::Revalidate)])), "ms");
            m.add("afxdp.rx_bursts_per_kpkt", ratio(get(c, "afxdp.rx_burst"), pkts, 1e3), "count");
            m.add("afxdp.tx_kicks_per_kpkt", ratio(get(c, "afxdp.tx_kick"), pkts, 1e3), "count");
            m.add("afxdp.umempool_locks_per_pkt", ratio(get(c, "umempool.lock"), pkts), "count");
        }
        m.add("ovs.upcalls_per_kpkt." + p, ratio(static_cast<double>(r.traced_upcalls), pkts, 1e3), "count");
        if (r.prov != Prov::Ebpf) {
            m.add("ovs.megaflows." + p, static_cast<double>(r.flows), "count");
            m.add("ovs.xlates_per_kpkt." + p, ratio(static_cast<double>(r.traced_xlates), pkts, 1e3), "count");
            const char* lookup = r.prov == Prov::Netdev ? "userspace_ct.lookup" : "ct.lookup";
            m.add("ct.lookups_per_pkt." + p, ratio(get(c, lookup), pkts), "count");
            m.add("ct.live." + p, static_cast<double>(r.ct_live), "count");
            m.add("ct.expired_per_kpkt." + p, ratio(get(c, "ct.wheel.expired"), pkts, 1e3), "count");
            m.add("ct.wheel_visited_per_tick." + p, ratio(get(c, "ct.wheel.visited"), get(c, "ct.shard.ticks")), "count");
            m.add("ct.tick_ns." + p,
                  ratio(static_cast<double>(st.total_ns[idx(SpanName::Tick)]),
                        static_cast<double>(st.count[idx(SpanName::Tick)])), "ns");
        } else {
            m.add("ebpf.flows", static_cast<double>(r.flows), "count");
            m.add("ebpf.hit_ratio", ratio(get(c, "ebpf.hit"), get(c, "ebpf.hit") + get(c, "ebpf.miss")), "ratio");
            // The eBPF datapath runs at the TC hook (no xdp.run); each
            // program run ends in exactly one ebpf.hit or ebpf.miss.
            m.add("ebpf.prog_runs_per_pkt", ratio(get(c, "ebpf.hit") + get(c, "ebpf.miss"), pkts), "count");
        }
        for (std::size_t s = 0; s < obs::kPerfStages; ++s) {
            const char* stage = obs::to_string(static_cast<obs::PerfStage>(s));
            double v = 0;
            for (const auto& [n, ns] : r.virt.stage_ns) {
                if (n == stage) v = ns;
            }
            m.add(std::string("sim.stage_ns_per_pkt.") + stage + "." + p, v, "vns");
        }
        // Virtual-clock quantities carry the units vns/vus: they are exact
        // per seed (and for some providers the same on every seed), never
        // wall-clock times.
        m.add("sim.cpu_ht." + p, r.virt.cpu_ht, "HT");
        m.add("virt_lat_us_p50." + p, r.virt.lat_p50_us, "vus");
        m.add("virt_lat_us_p99." + p, r.virt.lat_p99_us, "vus");
    }
    m.add("nsx.deploy_s", median(deploys), "s");
    m.add("obs.trace_overhead_pct", ratio(static_cast<double>(traced_ns - untraced_ns), static_cast<double>(untraced_ns), 100), "%");
    m.add("gen.inject_self_ns_per_pkt", ratio(static_cast<double>(burst_self), static_cast<double>(traced_pkts)), "ns");
}

bool write_spans(const std::string& path, const perfbench::SpanStore& setup,
                 const std::vector<Provider>& provs)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "store\tindex\tname\tid\tparent\tstart_ns\tend_ns\n");
    setup.write_tsv(f, "setup");
    for (const Provider& pv : provs) pv.spans.write_tsv(f, name(pv.res.prov));
    return std::fclose(f) == 0;
}

} // namespace

int main(int argc, char** argv)
{
    Args args;
    if (!parse_args(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perfbench_workload --workload NAME --seed N --seconds S --trace 0|1"
                     " [--trace-out PATH]\n");
        return 2;
    }
    const auto wl = find_workload(args.workload);
    if (!wl) {
        std::fprintf(stderr, "perfbench_workload: unknown workload '%s'\n", args.workload.c_str());
        return 2;
    }
    const Workload& w = *wl;
    std::printf("workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n", w.name.c_str(), args.seed,
                args.seconds, args.trace);

    // Inputs first, before any timing.
    const Traffic traffic(w, args.seed);

    const bool trace = args.trace != 0;
    // ~20 MB of spans per run, split over the providers' traced slices.
    constexpr std::size_t kSpanCap = 600'000;
    perfbench::SpanStore setup_spans(trace ? 64 : 0);
    std::vector<Provider> provs(std::size(kProvs));
    for (std::size_t i = 0; i < provs.size(); ++i) {
        provs[i].spans = perfbench::SpanStore(trace ? kSpanCap / provs.size() : 0);
        set_up(provs[i], kProvs[i], w, traffic, trace ? &setup_spans : nullptr);
    }

    // Timed loop: rotate over the providers until --seconds is spent.
    const std::int64_t budget_ns = static_cast<std::int64_t>(args.seconds * 1e9);
    const std::int64_t t0 = wall_ns();
    Reference reference;
    std::vector<double> ref_rates;
    while (wall_ns() - t0 < budget_ns) {
        ref_rates.push_back(reference.run(kRefSliceNs));
        for (Provider& pv : provs) timed_slice(pv, trace);
    }
    const double ref = median(ref_rates);
    const double to_nominal = kRefNominal / ref; // speed factor: rates *, times /
    std::vector<ProvResult> results;
    for (Provider& pv : provs) {
        finish(pv);
        results.push_back(pv.res);
    }

    // ---- correctness ----------------------------------------------------
    bool correct = true;
    std::uint64_t attempted = 0, failed = 0;
    for (const ProvResult& r : results) {
        attempted += r.injected;
        const std::uint64_t lost = r.injected - std::min(r.injected, r.delivered);
        failed += lost;
        std::printf("%s: injected=%" PRIu64 " delivered=%" PRIu64 " loss_ratio=%.9f\n", name(r.prov),
                    r.injected, r.delivered,
                    perfbench::ratio(static_cast<double>(lost), static_cast<double>(r.injected)));
        for (const auto& [n, v] : r.drops.rows) std::printf("    drop %-26s %" PRIu64 "\n", n.c_str(), v);
        if (!r.accounted) {
            std::printf("  FAIL %s: loss not covered by named drop counters\n", name(r.prov));
            correct = false;
        }
        if (!r.perf_matches) {
            std::printf("  FAIL %s: %s\n", name(r.prov), r.perf_detail.c_str());
            correct = false;
        }
        if (!r.deterministic) {
            std::printf("  FAIL %s: virtual metrics differ across set-ups with seed %" PRIu64 "\n",
                        name(r.prov), args.seed);
            correct = false;
        }
        if (r.virt.digest != results[0].virt.digest || r.virt.delivered != results[0].virt.delivered) {
            std::printf("  FAIL %s: delivered frames differ from %s (digest %016" PRIx64
                        " vs %016" PRIx64 ")\n",
                        name(r.prov), name(results[0].prov), r.virt.digest, results[0].virt.digest);
            correct = false;
        }
    }
    std::printf("determinism: virt_* bit-identical across %d set-ups per provider with seed %" PRIu64
                ": %s\n",
                kSetupReps, args.seed, correct ? "yes" : "see FAIL lines");

    // Virtual latency is reported with the per-layer metrics and printed
    // here on both kinds of run.
    for (const ProvResult& r : results) {
        std::printf("virt_lat_us_p50.%s %.3f vus  virt_lat_us_p99.%s %.3f vus  (samples=%zu)\n",
                    name(r.prov), r.virt.lat_p50_us, name(r.prov), r.virt.lat_p99_us,
                    r.virt.lat_samples);
    }
    std::printf("loss_ratio %.9f (%" PRIu64 " of %" PRIu64 " packets)\n",
                perfbench::ratio(static_cast<double>(failed), static_cast<double>(attempted)),
                failed, attempted);

    // Wall rates are scaled to the nominal host speed. Their spread
    // across runs on a shared host exceeds any bound the end-to-end set
    // may carry, so they are printed here and reported with the
    // per-layer metrics (from the untraced halves of a traced run).
    std::printf("host reference %.4f ops/us (nominal %.1f)\n", ref, kRefNominal);
    Metrics m;
    for (const ProvResult& r : results) {
        const double kpps = perfbench::percentile(sorted(r.slice_kpps), kWallPercentile);
        std::printf("wall_kpps.%s %.2f kpps (unscaled %.2f)\n", name(r.prov), kpps * to_nominal, kpps);
        if (trace) m.add(std::string("wall_kpps.") + name(r.prov), kpps * to_nominal, "kpps");
    }

    if (!trace) {
        for (const ProvResult& r : results) m.add(std::string("virt_mpps.") + name(r.prov), r.virt.mpps, "Mpps");
        double setup = 0;
        for (const ProvResult& r : results) setup += median(r.setup_s);
        std::printf("setup_s unscaled %.4f s\n", setup);
        m.add("setup_s", setup / to_nominal, "s");
        m.add("peak_rss_mb", peak_rss_mb(), "MiB");
        const double lost = static_cast<double>(failed);
        m.add("delivered_ratio", perfbench::ratio(static_cast<double>(attempted) - lost, static_cast<double>(attempted)), "ratio");
    } else {
        per_layer_metrics(m, provs);
        m.add("gen.ref_ops_per_us", ref, "1/us");
        if (!args.trace_out.empty() && !write_spans(args.trace_out, setup_spans, provs)) {
            std::printf("  FAIL could not write spans to %s\n", args.trace_out.c_str());
            correct = false;
        }
    }
    m.print();
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"metrics\": %s}\n",
                correct ? "true" : "false", attempted, failed, m.json().c_str());
    return 0;
}
