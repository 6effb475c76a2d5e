#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "kern/kernel.h"
#include "kern/nic.h"
#include "kern/stack.h"
#include "kern/timer_wheel.h"
#include "net/builder.h"
#include "net/headers.h"
#include "obs/appctl.h"
#include "obs/latency.h"
#include "obs/trace.h"
#include "obs/value.h"
#include "ovs/dpif_netdev.h"
#include "ovs/netdev_afxdp.h"
#include "ovs/vswitch.h"

namespace ovsx::ovs {
namespace {

using net::ipv4;

net::Packet udp64(std::uint16_t sport = 1000, std::uint32_t dst = ipv4(10, 0, 0, 2))
{
    net::UdpSpec spec;
    spec.src_mac = net::MacAddr::from_id(1);
    spec.dst_mac = net::MacAddr::from_id(2);
    spec.src_ip = ipv4(10, 0, 0, 1);
    spec.dst_ip = dst;
    spec.src_port = sport;
    spec.dst_port = 2000;
    return net::build_udp(spec);
}

// A two-NIC AF_XDP forwarding fixture: the canonical P2P setup.
class DpifNetdevTest : public ::testing::Test {
protected:
    void SetUp() override
    {
        nic0 = &kernel.add_device<kern::PhysicalDevice>("eth0", net::MacAddr::from_id(1));
        nic1 = &kernel.add_device<kern::PhysicalDevice>("eth1", net::MacAddr::from_id(2));
        nic1->connect_wire([this](net::Packet&& p) { out1.push_back(std::move(p)); });
        nic0->connect_wire([this](net::Packet&& p) { out0.push_back(std::move(p)); });

        dpif = std::make_unique<DpifNetdev>(kernel);
        p0 = dpif->add_port(std::make_unique<NetdevAfxdp>(*nic0));
        p1 = dpif->add_port(std::make_unique<NetdevAfxdp>(*nic1));
        pmd = dpif->add_pmd("pmd0");
        dpif->pmd_assign(pmd, p0, 0);
        dpif->pmd_assign(pmd, p1, 0);
    }

    // Datapath flows always match recirc_id (as real OVS does), so that
    // recirculated packets don't re-hit pre-recirculation flows.
    net::FlowMask port_mask()
    {
        net::FlowMask m;
        m.bits.in_port = 0xffffffff;
        m.bits.recirc_id = 0xffffffff;
        return m;
    }

    net::FlowKey key_on_port(std::uint32_t port, std::uint16_t sport = 1000)
    {
        net::Packet probe = udp64(sport);
        probe.meta().in_port = port;
        return net::parse_flow(probe);
    }

    kern::Kernel kernel;
    kern::PhysicalDevice* nic0 = nullptr;
    kern::PhysicalDevice* nic1 = nullptr;
    std::unique_ptr<DpifNetdev> dpif;
    std::uint32_t p0 = 0, p1 = 0;
    int pmd = 0;
    std::vector<net::Packet> out0, out1;
};

TEST_F(DpifNetdevTest, AfxdpEndToEndForwarding)
{
    dpif->flow_put(key_on_port(p0), port_mask(), {kern::OdpAction::output(p1)});

    // Wire -> XDP redirect -> XSK ring -> PMD poll -> pipeline -> tx.
    nic0->rx_from_wire(udp64());
    EXPECT_EQ(dpif->pmd_poll_once(pmd), 1u);
    ASSERT_EQ(out1.size(), 1u);
    EXPECT_EQ(net::parse_flow(out1[0]).nw_dst, ipv4(10, 0, 0, 2));
    // Both the softirq (XDP+rings) and the PMD (userspace) did work.
    EXPECT_GT(nic0->softirq_ctx(0).total_busy(), 0);
    EXPECT_GT(dpif->pmd_ctx(pmd).total_busy(), 0);
}

TEST_F(DpifNetdevTest, EmcShortCircuitsSecondPacket)
{
    dpif->set_emc_insert_inv_prob(1); // always insert, for determinism here
    dpif->flow_put(key_on_port(p0), port_mask(), {kern::OdpAction::output(p1)});
    nic0->rx_from_wire(udp64());
    dpif->pmd_poll_once(pmd);
    EXPECT_EQ(dpif->emc().misses(), 1u); // first packet missed EMC

    nic0->rx_from_wire(udp64());
    dpif->pmd_poll_once(pmd);
    EXPECT_EQ(dpif->emc().hits(), 1u); // second hit it
    EXPECT_EQ(out1.size(), 2u);
}

TEST_F(DpifNetdevTest, UpcallInstallsAndForwards)
{
    int upcalls = 0;
    dpif->set_upcall_handler([&](std::uint32_t in_port, net::Packet&& pkt,
                                 const net::FlowKey& key, sim::ExecContext& ctx) {
        ++upcalls;
        EXPECT_EQ(in_port, p0);
        dpif->flow_put(key, port_mask(), {kern::OdpAction::output(p1)});
        dpif->execute(std::move(pkt), {kern::OdpAction::output(p1)}, ctx);
    });

    nic0->rx_from_wire(udp64());
    dpif->pmd_poll_once(pmd);
    EXPECT_EQ(upcalls, 1);
    EXPECT_EQ(out1.size(), 1u);

    nic0->rx_from_wire(udp64(2000));
    dpif->pmd_poll_once(pmd);
    EXPECT_EQ(upcalls, 1); // megaflow covered the new microflow
    EXPECT_EQ(out1.size(), 2u);
}

TEST_F(DpifNetdevTest, SetNowRanksHotMaskFirst)
{
    // Three cold masks are installed before the hot one, so the hot
    // flow is probed last until a set_now quantum re-ranks the
    // subtables by hits.
    dpif->set_emc_insert_inv_prob(1u << 30); // keep the EMC out of the way
    for (int m = 0; m < 3; ++m) {
        net::FlowMask mask = port_mask();
        mask.bits.tp_dst = 0xffff;
        mask.bits.nw_src = 0xffffff00u << m;
        dpif->flow_put(key_on_port(p1), mask, {kern::OdpAction::drop()});
    }
    dpif->flow_put(key_on_port(p0), port_mask(), {kern::OdpAction::output(p1)});
    for (std::uint16_t i = 0; i < 8; ++i) nic0->rx_from_wire(udp64(i));
    while (dpif->pmd_poll_once(pmd) > 0) {
    }
    EXPECT_EQ(out1.size(), 8u);

    const net::FlowKey hot = key_on_port(p0);
    EXPECT_EQ(dpif->megaflow().lookup(hot).probes, 4);
    dpif->set_now(1); // same quantum as the start: no ranking yet
    EXPECT_EQ(dpif->megaflow().lookup(hot).probes, 4);
    dpif->set_now(sim::Nanos{1} << kern::TimerWheel<std::uint64_t>::kDefaultTickShift);
    EXPECT_EQ(dpif->megaflow().lookup(hot).probes, 1);
}

TEST_F(DpifNetdevTest, RecirculationThroughCt)
{
    // Pass 1: ct + recirc(5); pass 2 (recirc=5, established|new): output.
    kern::CtSpec ct{.zone = 3, .commit = true};
    dpif->flow_put(key_on_port(p0), port_mask(),
                   {kern::OdpAction::conntrack(ct), kern::OdpAction::recirc(5)});

    net::FlowKey k2 = key_on_port(p0);
    k2.recirc_id = 5;
    k2.ct_state = net::kCtStateTracked | net::kCtStateNew;
    k2.ct_zone = 3;
    net::FlowMask m2 = port_mask();
    m2.bits.recirc_id = 0xffffffff;
    m2.bits.ct_state = 0xff;
    m2.bits.ct_zone = 0xffff;
    dpif->flow_put(k2, m2, {kern::OdpAction::output(p1)});
    net::FlowKey k3 = k2;
    k3.ct_state = net::kCtStateTracked | net::kCtStateEstablished;
    dpif->flow_put(k3, m2, {kern::OdpAction::output(p1)});

    nic0->rx_from_wire(udp64());
    dpif->pmd_poll_once(pmd);
    ASSERT_EQ(out1.size(), 1u);
    EXPECT_EQ(dpif->ct().size(), 1u);

    nic0->rx_from_wire(udp64());
    dpif->pmd_poll_once(pmd);
    EXPECT_EQ(out1.size(), 2u);
}

// The userspace datapath labels its ct trace hop with the connection
// state; the label comes from the state bits conntrack returns.
TEST_F(DpifNetdevTest, CtTraceHopCarriesStateLabel)
{
    kern::CtSpec ct;
    ct.zone = 3;
    ct.commit = true;
    dpif->flow_put(key_on_port(p0), port_mask(),
                   {kern::OdpAction::conntrack(ct), kern::OdpAction::output(p1)});
    obs::tracer().enable();
    obs::tracer().set_domain("netdev");
    const auto ct_hop = [&] {
        net::Packet pkt = udp64();
        const std::uint32_t id = obs::tracer().next_packet_id();
        pkt.meta().trace_id = id;
        nic0->rx_from_wire(std::move(pkt));
        dpif->pmd_poll_once(pmd);
        for (const auto& ev : obs::tracer().events_for(id)) {
            if (ev.hop == obs::Hop::Ct) return ev;
        }
        return obs::TraceEvent{};
    };

    const obs::TraceEvent first = ct_hop();
    EXPECT_EQ(first.hop, obs::Hop::Ct);
    EXPECT_STREQ(first.verdict, "new");
    EXPECT_EQ(first.a, 3u);
    EXPECT_EQ(first.b, net::kCtStateTracked | net::kCtStateNew);

    const obs::TraceEvent second = ct_hop();
    EXPECT_STREQ(second.verdict, "established");
    EXPECT_EQ(second.b, net::kCtStateTracked | net::kCtStateEstablished);
    obs::tracer().disable();
    EXPECT_EQ(out1.size(), 2u);
}

TEST_F(DpifNetdevTest, MeterDropsExcess)
{
    dpif->meters().set(1, {.rate_kbps = 0, .rate_pps = 1000, .burst = 2});
    dpif->flow_put(key_on_port(p0), port_mask(),
                   {kern::OdpAction::meter(1), kern::OdpAction::output(p1)});
    for (int i = 0; i < 5; ++i) nic0->rx_from_wire(udp64());
    dpif->pmd_poll_once(pmd);
    EXPECT_EQ(out1.size(), 2u); // burst of 2, rest dropped by the meter
    EXPECT_EQ(dpif->meters().dropped(1), 3u);
}

TEST_F(DpifNetdevTest, UserspaceActionPunts)
{
    dpif->flow_put(key_on_port(p0), port_mask(), {kern::OdpAction::userspace()});
    nic0->rx_from_wire(udp64());
    dpif->pmd_poll_once(pmd);
    EXPECT_EQ(dpif->punted().size(), 1u);
    EXPECT_TRUE(out1.empty());
}

TEST_F(DpifNetdevTest, TunnelEncapDecapAcrossDpifs)
{
    // This host encapsulates into Geneve; verify outer headers, then feed
    // the wire bytes into a second host's dpif and check decap.
    kernel.stack().add_address(nic1->ifindex(), ipv4(172, 16, 0, 1), 24);
    kernel.stack().add_neighbor(ipv4(172, 16, 0, 2), net::MacAddr::from_id(99),
                                nic1->ifindex());
    const auto tun = dpif->add_tunnel_port("geneve0", net::TunnelType::Geneve,
                                           ipv4(172, 16, 0, 1));

    net::TunnelKey tkey;
    tkey.tun_id = 88;
    tkey.ip_dst = ipv4(172, 16, 0, 2);
    dpif->flow_put(key_on_port(p0), port_mask(),
                   {kern::OdpAction::set_tunnel(tkey), kern::OdpAction::output(tun)});

    nic0->rx_from_wire(udp64());
    dpif->pmd_poll_once(pmd);
    ASSERT_EQ(out1.size(), 1u);
    const net::FlowKey outer = net::parse_flow(out1[0]);
    EXPECT_EQ(outer.nw_src, ipv4(172, 16, 0, 1));
    EXPECT_EQ(outer.nw_dst, ipv4(172, 16, 0, 2));
    EXPECT_EQ(outer.tp_dst, net::kGenevePort);
    EXPECT_EQ(outer.dl_dst, net::MacAddr::from_id(99));

    // ---- second host decapsulates --------------------------------------
    kern::Kernel hostb("hostb");
    auto& b_nic = hostb.add_device<kern::PhysicalDevice>("eth0", net::MacAddr::from_id(99));
    std::vector<net::Packet> b_out;
    auto& b_nic2 = hostb.add_device<kern::PhysicalDevice>("eth1", net::MacAddr::from_id(98));
    b_nic2.connect_wire([&](net::Packet&& p) { b_out.push_back(std::move(p)); });

    DpifNetdev bdp(hostb);
    const auto b_uplink = bdp.add_port(std::make_unique<NetdevAfxdp>(b_nic));
    const auto b_port2 = bdp.add_port(std::make_unique<NetdevAfxdp>(b_nic2));
    const auto b_tun = bdp.add_tunnel_port("geneve0", net::TunnelType::Geneve,
                                           ipv4(172, 16, 0, 2));
    (void)b_uplink;
    const int b_pmd = bdp.add_pmd("pmd0");
    bdp.pmd_assign(b_pmd, b_uplink, 0);

    // Flow: traffic from the tunnel vport with tun_id 88 -> port2.
    net::Packet probe = udp64();
    probe.meta().in_port = b_tun;
    probe.meta().tunnel.tun_id = 88;
    probe.meta().tunnel.ip_src = ipv4(172, 16, 0, 1);
    probe.meta().tunnel.ip_dst = ipv4(172, 16, 0, 2);
    net::FlowMask b_mask;
    b_mask.bits.in_port = 0xffffffff;
    b_mask.bits.tun_id = ~std::uint64_t{0};
    bdp.flow_put(net::parse_flow(probe), b_mask, {kern::OdpAction::output(b_port2)});

    b_nic.rx_from_wire(std::move(out1[0]));
    bdp.pmd_poll_once(b_pmd);
    ASSERT_EQ(b_out.size(), 1u);
    // Inner frame restored.
    const auto inner = net::parse_flow(b_out[0]);
    EXPECT_EQ(inner.nw_dst, ipv4(10, 0, 0, 2));
    EXPECT_EQ(inner.tp_dst, 2000);
}

TEST_F(DpifNetdevTest, XskFillRingExhaustionDropsLosslessly)
{
    dpif->flow_put(key_on_port(p0), port_mask(), {kern::OdpAction::output(p1)});
    // Flood more packets than fill frames without polling: the XSK layer
    // must drop the excess (this is exactly the "maximum lossless rate"
    // boundary the paper measures).
    for (int i = 0; i < 5000; ++i) nic0->rx_from_wire(udp64());
    auto& sock = dynamic_cast<NetdevAfxdp*>(dpif->port_netdev(p0))->xsk(0);
    EXPECT_GT(sock.rx_dropped_no_frame + sock.rx_dropped_ring_full, 0u);

    // After polling, the ring drains and forwarding resumes.
    while (dpif->pmd_poll_once(pmd) > 0) {
    }
    EXPECT_GT(out1.size(), 0u);
    const auto drained = out1.size();
    nic0->rx_from_wire(udp64());
    dpif->pmd_poll_once(pmd);
    EXPECT_EQ(out1.size(), drained + 1);
}

TEST_F(DpifNetdevTest, VSwitchDrivesUpcallsThroughOfproto)
{
    auto dpif_owned = std::make_unique<DpifNetdev>(kernel);
    auto* raw = dpif_owned.get();
    const auto vp0 = raw->add_port(std::make_unique<NetdevAfxdp>(*nic0));
    const auto vp1 = raw->add_port(std::make_unique<NetdevAfxdp>(*nic1));
    const int vpmd = raw->add_pmd("pmd0");
    raw->pmd_assign(vpmd, vp0, 0);

    VSwitch vswitch(std::move(dpif_owned));
    Match m;
    m.key.in_port = vp0;
    m.mask.bits.in_port = 0xffffffff;
    vswitch.ofproto().add_rule({.table = 0, .priority = 1, .match = m,
                                .actions = {OfAction::output(vp1)}});

    nic0->rx_from_wire(udp64());
    raw->pmd_poll_once(vpmd);
    EXPECT_EQ(vswitch.upcalls_handled(), 1u);
    EXPECT_EQ(raw->flow_count(), 1u);
    ASSERT_EQ(out1.size(), 1u);

    // Fast path now: no further upcalls.
    nic0->rx_from_wire(udp64(1001));
    raw->pmd_poll_once(vpmd);
    EXPECT_EQ(vswitch.upcalls_handled(), 1u);
    EXPECT_EQ(out1.size(), 2u);
}

// ---- §4.2 windowed rxq telemetry + auto-load-balancing ------------------

// Skewed 4-queue fixture: queues 0 and 1 (both pinned to pmd0) carry
// ~90% of the traffic via forced-queue injection.
struct AutoLbRun {
    std::vector<std::string> events;
    std::string rxq_show_json;
    std::uint64_t checks = 0;
};

AutoLbRun run_skewed_autolb(bool enable_lb)
{
    kern::Kernel kernel;
    kern::NicConfig cfg;
    cfg.num_queues = 4;
    auto& nic0 = kernel.add_device<kern::PhysicalDevice>("eth0", net::MacAddr::from_id(1), cfg);
    auto& nic1 = kernel.add_device<kern::PhysicalDevice>("eth1", net::MacAddr::from_id(2));
    nic1.connect_wire([](net::Packet&&) {});

    DpifNetdev dp(kernel);
    dp.set_emc_insert_inv_prob(1);
    const auto p0 = dp.add_port(std::make_unique<NetdevAfxdp>(nic0));
    const auto p1 = dp.add_port(std::make_unique<NetdevAfxdp>(nic1));
    const int pmd0 = dp.add_pmd("pmd0");
    const int pmd1 = dp.add_pmd("pmd1");
    dp.pmd_assign(pmd0, p0, 0);
    dp.pmd_assign(pmd0, p0, 1);
    dp.pmd_assign(pmd1, p0, 2);
    dp.pmd_assign(pmd1, p0, 3);

    net::Packet probe = udp64();
    probe.meta().in_port = p0;
    net::FlowMask mask;
    mask.bits.in_port = 0xffffffff;
    mask.bits.recirc_id = 0xffffffff;
    dp.flow_put(net::parse_flow(probe), mask, {kern::OdpAction::output(p1)});

    dp.set_window_interval(1'000'000);
    dp.set_auto_lb(enable_lb, 1.25);

    sim::Nanos now = 0;
    for (int i = 0; i < 3000; ++i) {
        now += 10'000;
        dp.set_now(now);
        // 9 of 10 packets to the pmd0 queues, alternating 0/1.
        const std::uint32_t q = (i % 10 < 9) ? static_cast<std::uint32_t>(i % 2)
                                             : 2 + static_cast<std::uint32_t>(i % 2);
        nic0.rx_from_wire(udp64(), q);
        while (dp.pmd_poll_once(pmd0) > 0) {
        }
        while (dp.pmd_poll_once(pmd1) > 0) {
        }
    }

    AutoLbRun out;
    for (const auto& ev : dp.rebalance_events()) {
        out.events.push_back("at=" + std::to_string(ev.at) +
                             " window=" + std::to_string(ev.window) + " " + ev.detail);
    }
    obs::Appctl appctl;
    dp.register_appctl(appctl);
    out.rxq_show_json = appctl.run("dpif-netdev/pmd-rxq-show", {}, obs::Appctl::Format::Json);
    return out;
}

TEST(DpifNetdevAutoLb, PmdRxqShowReportsWindowedBusyPct)
{
    const AutoLbRun run = run_skewed_autolb(false);
    EXPECT_TRUE(run.events.empty()); // auto-LB disabled: telemetry only
    const auto doc = obs::json_parse(run.rxq_show_json);
    ASSERT_TRUE(doc.has_value());
    const auto* pmds = doc->find("pmds");
    ASSERT_NE(pmds, nullptr);
    ASSERT_EQ(pmds->items().size(), 2u);
    double hot = 0, cold = 0;
    for (const auto& pmd : pmds->items()) {
        for (const auto& rxq : pmd.find("rxqs")->items()) {
            EXPECT_GT(rxq.find("windows")->as_uint(), 0u);
            const double pct = rxq.find("busy_pct")->as_double();
            if (rxq.find("queue")->as_uint() < 2) {
                hot += pct;
            } else {
                cold += pct;
            }
        }
    }
    // The skew is visible in the windowed utilization numbers.
    EXPECT_GT(hot, cold * 3);
}

TEST(DpifNetdevAutoLb, SkewTriggersReproducibleRebalance)
{
    const AutoLbRun a = run_skewed_autolb(true);
    ASSERT_FALSE(a.events.empty());
    EXPECT_NE(a.events.front().find("moved"), std::string::npos);

    // Identical runs make identical decisions: the rebalance is fully
    // determined by the published windowed metrics.
    const AutoLbRun b = run_skewed_autolb(true);
    EXPECT_EQ(a.events, b.events);
}

TEST_F(DpifNetdevTest, RebalanceWithoutLoadReportsNoImprovement)
{
    obs::Appctl appctl;
    dpif->register_appctl(appctl);
    const auto v = appctl.run_value("dpif-netdev/pmd-rebalance");
    ASSERT_NE(v.find("rebalanced"), nullptr);
    EXPECT_FALSE(v.find("rebalanced")->as_bool());
    EXPECT_TRUE(dpif->rebalance_events().empty());
}

// Batching must not change latency accounting granularity: the vector
// spine's one-classify-pass-per-burst still emits one trace span per
// PACKET per tier, so the per-tier histograms record exactly as many
// samples as the scalar spine does for the same traffic. (A batch that
// recorded one span per burst would deflate the count 32x and silently
// skew every percentile in Figs. 10/11.)
TEST_F(DpifNetdevTest, VectorSpineRecordsOneLatencySpanPerPacket)
{
    struct TierCounts {
        std::uint64_t emc, megaflow, tx;
    };
    // Each run uses its own source port so the second starts EMC-cold
    // like the first (the megaflow rule below is port-masked only).
    const auto traced_run = [&](bool scalar, std::size_t n, std::uint16_t sport) {
        obs::latency_reset();
        obs::tracer().enable();
        obs::tracer().set_domain("netdev");
        dpif->set_scalar_spine(scalar);
        dpif->set_emc_insert_inv_prob(1); // always insert: pkt 2+ hit the EMC
        std::size_t sent = 0;
        while (sent < n) {
            // Inject a full burst (last one partial) then poll, so the
            // vector side sees real 32-wide bursts.
            const std::size_t burst = std::min<std::size_t>(n - sent, 32);
            for (std::size_t i = 0; i < burst; ++i) {
                net::Packet pkt = udp64(sport);
                pkt.meta().trace_id = obs::tracer().next_packet_id();
                nic0->rx_from_wire(std::move(pkt));
            }
            dpif->pmd_poll_once(pmd);
            sent += burst;
        }
        const auto count = [](const obs::LatencyHistogram* h) {
            return h ? h->count() : std::uint64_t{0};
        };
        TierCounts c{count(obs::latency_histogram("netdev", obs::Hop::Emc)),
                     count(obs::latency_histogram("netdev", obs::Hop::Megaflow)),
                     count(obs::latency_histogram("netdev", obs::Hop::Tx))};
        obs::tracer().disable();
        obs::latency_reset();
        return c;
    };

    dpif->flow_put(key_on_port(p0), port_mask(), {kern::OdpAction::output(p1)});
    constexpr std::size_t kPackets = 69; // two full bursts + a partial one

    const TierCounts vec = traced_run(/*scalar=*/false, kPackets, 1000);
    // Every packet resolves in exactly one classifier tier (the EMC miss
    // of packet 1 doesn't close a span — its megaflow hit does) and
    // transmits exactly once.
    EXPECT_EQ(vec.emc + vec.megaflow, kPackets);
    EXPECT_EQ(vec.tx, kPackets);
    EXPECT_GE(vec.megaflow, 1u); // packet 1, before its EMC insert

    ASSERT_EQ(out1.size(), kPackets);
    out1.clear();

    // The scalar spine on identical traffic must produce identical
    // per-tier sample counts — span-per-packet, not span-per-burst.
    const TierCounts sca = traced_run(/*scalar=*/true, kPackets, 1001);
    EXPECT_EQ(sca.emc, vec.emc);
    EXPECT_EQ(sca.megaflow, vec.megaflow);
    EXPECT_EQ(sca.tx, vec.tx);
}

} // namespace
} // namespace ovsx::ovs
