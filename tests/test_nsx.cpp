#include <gtest/gtest.h>

#include <iterator>

#include "gen/testbed.h"
#include "kern/nic.h"
#include "kern/timer_wheel.h"
#include "net/builder.h"
#include "net/headers.h"
#include "nsx/nsx.h"
#include "ovs/dpif_netdev.h"
#include "ovs/netdev_afxdp.h"
#include "ovs/netdev_vhost.h"
#include "sim/rng.h"

namespace ovsx::nsx {
namespace {

using net::ipv4;

// Small-scale NSX deployment (fewer ACL rules for test speed) with two
// local vhost VMs and a Geneve uplink.
struct NsxRig {
    NsxRig()
    {
        uplink = &host.add_device<kern::PhysicalDevice>("uplink0", net::MacAddr::from_id(1));
        host.stack().add_address(uplink->ifindex(), ipv4(172, 16, 0, 1), 16);
        host.stack().add_neighbor(ipv4(172, 16, 1, 1), net::MacAddr::from_id(0xb0),
                                  uplink->ifindex());
        uplink->connect_wire([this](net::Packet&& p) { wire_out.push_back(std::move(p)); });

        auto dpif = std::make_unique<ovs::DpifNetdev>(host);
        dpif_raw = dpif.get();
        uplink_port = dpif->add_port(std::make_unique<ovs::NetdevAfxdp>(*uplink));
        tunnel_port = dpif->add_tunnel_port("geneve0", net::TunnelType::Geneve,
                                            ipv4(172, 16, 0, 1));

        vm_a = std::make_unique<gen::VhostVm>(host.costs(), "vmA",
                                              net::MacAddr::from_id(0x5000), ipv4(10, 1, 0, 10));
        vm_b = std::make_unique<gen::VhostVm>(host.costs(), "vmB",
                                              net::MacAddr::from_id(0x5001), ipv4(10, 1, 0, 11));
        port_a = dpif->add_port(std::make_unique<ovs::NetdevVhost>("vhost-a", vm_a->channel()));
        port_b = dpif->add_port(std::make_unique<ovs::NetdevVhost>("vhost-b", vm_b->channel()));
        pmd = dpif->add_pmd("pmd0");
        dpif->pmd_assign(pmd, uplink_port, 0);
        dpif->pmd_assign(pmd, port_a, 0);
        dpif->pmd_assign(pmd, port_b, 0);

        vswitch = std::make_unique<ovs::VSwitch>(std::move(dpif));

        cfg = make_production_config(ipv4(172, 16, 0, 1), tunnel_port, {port_a, port_b},
                                     /*local_vm_count=*/1, /*total_vms=*/15, /*tunnels=*/291);
        cfg.target_rules = 4000; // keep the unit test quick; the bench uses 103302
        // Align the first two interface specs with the actual VMs.
        cfg.vms[0].mac = vm_a->vnic().mac();
        cfg.vms[0].ip = vm_a->ip();
        cfg.vms[1].mac = vm_b->vnic().mac();
        cfg.vms[1].ip = vm_b->ip();
        agent = std::make_unique<NsxAgent>(*vswitch, cfg);
        agent->deploy();

        // Guest ARP entries so VMs can address each other directly.
        vm_a->kernel().stack().add_neighbor(vm_b->ip(), vm_b->vnic().mac(), 1);
        vm_b->kernel().stack().add_neighbor(vm_a->ip(), vm_a->vnic().mac(), 1);
    }

    // VM A -> VM B UDP from `src` (a raw frame, so the source need not
    // be VM A's own address).
    void send_from(std::uint32_t src, std::uint16_t sport, std::uint16_t dport)
    {
        net::UdpSpec spec;
        spec.src_mac = vm_a->vnic().mac();
        spec.dst_mac = vm_b->vnic().mac();
        spec.src_ip = src;
        spec.dst_ip = vm_b->ip();
        spec.src_port = sport;
        spec.dst_port = dport;
        vm_a->vnic().transmit(net::build_udp(spec), vm_a->vcpu());
    }

    kern::Kernel host{"hostA"};
    kern::PhysicalDevice* uplink = nullptr;
    ovs::DpifNetdev* dpif_raw = nullptr;
    std::unique_ptr<ovs::VSwitch> vswitch;
    std::unique_ptr<gen::VhostVm> vm_a, vm_b;
    std::unique_ptr<NsxAgent> agent;
    NsxConfig cfg;
    std::uint32_t uplink_port = 0, tunnel_port = 0, port_a = 0, port_b = 0;
    int pmd = 0;
    std::vector<net::Packet> wire_out;
};

class NsxTest : public ::testing::Test, protected NsxRig {};

TEST_F(NsxTest, RulesetShapeMatchesConfig)
{
    const auto stats = agent->stats();
    EXPECT_EQ(stats.tunnels, 291u);
    EXPECT_EQ(stats.vms, 15u);
    EXPECT_EQ(stats.rules, 4000u);
    EXPECT_GE(stats.matching_fields, 18);
    EXPECT_GE(stats.tables, 15u);
}

TEST_F(NsxTest, ProductionScaleRuleCount)
{
    // Full Table 3 scale (only built once here; the bench reuses it).
    cfg.target_rules = 103302;
    NsxAgent big(*vswitch, cfg);
    big.deploy();
    const auto stats = big.stats();
    EXPECT_EQ(stats.rules, 103302u);
    EXPECT_GE(stats.tables, 15u);
}

TEST_F(NsxTest, IntraHostVmToVmPassesFirewall)
{
    // VM A sends a UDP datagram to VM B through the full NSX pipeline.
    gen::Sink sink;
    gen::bind_udp_sink(vm_b->kernel().stack(), 7777, sink);

    ASSERT_TRUE(vm_a->kernel().stack().send_udp(vm_b->ip(), 1234, 7777, 64, vm_a->vcpu()));
    // The frame sits in the vhost ring; poll the PMD to run the pipeline.
    dpif_raw->pmd_poll_once(pmd);
    EXPECT_EQ(sink.packets, 1u);
    // Connection tracked in the VNI's zone.
    EXPECT_GE(dpif_raw->ct().size(), 1u);
    // The pipeline recirculated: at least one upcall per pass.
    EXPECT_GE(vswitch->upcalls_handled(), 2u);
}

TEST_F(NsxTest, SecondPacketUsesMegaflows)
{
    gen::Sink sink;
    gen::bind_udp_sink(vm_b->kernel().stack(), 7777, sink);
    vm_a->kernel().stack().send_udp(vm_b->ip(), 1234, 7777, 64, vm_a->vcpu());
    dpif_raw->pmd_poll_once(pmd);
    const auto upcalls_first = vswitch->upcalls_handled();
    ASSERT_EQ(sink.packets, 1u);

    vm_a->kernel().stack().send_udp(vm_b->ip(), 1234, 7777, 64, vm_a->vcpu());
    dpif_raw->pmd_poll_once(pmd);
    EXPECT_EQ(sink.packets, 2u);
    // Established path still upcalls once (new ct_state -> new megaflow),
    // then the third packet is pure fast path.
    vm_a->kernel().stack().send_udp(vm_b->ip(), 1234, 7777, 64, vm_a->vcpu());
    const auto upcalls_second = vswitch->upcalls_handled();
    dpif_raw->pmd_poll_once(pmd);
    EXPECT_EQ(sink.packets, 3u);
    EXPECT_EQ(vswitch->upcalls_handled(), upcalls_second);
    EXPECT_GE(upcalls_second, upcalls_first);
}

TEST_F(NsxTest, CrossHostTrafficIsGeneveEncapsulated)
{
    // Send to a remote VM (vm2's first interface lives behind a VTEP).
    const VmSpec* remote = nullptr;
    for (const auto& vm : cfg.vms) {
        if (vm.of_port == 0) {
            remote = &vm;
            break;
        }
    }
    ASSERT_NE(remote, nullptr);

    // Resolve the remote VTEP in the host kernel (the netlink replica
    // cache picks it up via the change listener).
    host.stack().add_neighbor(remote->remote_vtep, net::MacAddr::from_id(0xb0),
                              uplink->ifindex());
    // Address the remote VM's MAC directly; the guest needs an on-link
    // route to the other logical segment.
    vm_a->kernel().stack().add_route(ipv4(10, 0, 0, 0), 8, 0, 1);
    vm_a->kernel().stack().add_neighbor(remote->ip, remote->mac, 1);
    ASSERT_TRUE(vm_a->kernel().stack().send_udp(remote->ip, 999, 53, 64, vm_a->vcpu()));
    dpif_raw->pmd_poll_once(pmd);

    ASSERT_EQ(wire_out.size(), 1u);
    const auto outer = net::parse_flow(wire_out[0]);
    EXPECT_EQ(outer.tp_dst, net::kGenevePort);
    EXPECT_EQ(outer.nw_src, ipv4(172, 16, 0, 1));
    EXPECT_EQ(outer.nw_dst, remote->remote_vtep);
}

TEST_F(NsxTest, DisallowedTrafficIsDropped)
{
    // Source prefix outside every allow rule: firewall drops it.
    gen::Sink sink;
    gen::bind_udp_sink(vm_b->kernel().stack(), 7777, sink);
    send_from(ipv4(203, 0, 113, 9), 1, 7777); // not in any allow prefix
    dpif_raw->pmd_poll_once(pmd);
    EXPECT_EQ(sink.packets, 0u);
}

TEST_F(NsxTest, FreshConnectionsDoNotUpcall)
{
    // Fresh 5-tuples of 4 packets each from one allowed prefix. The
    // firewall decides on ct_state, zone and the source /8, so one
    // megaflow per pass covers every connection: the upcall and megaflow
    // counts stop growing after the first connection.
    gen::Sink sink;
    gen::bind_udp_sink(vm_b->kernel().stack(), 7777, sink);
    std::uint32_t next = 0;
    auto connect = [&](std::uint32_t conns) {
        for (std::uint32_t c = 0; c < conns; ++c, ++next) {
            for (int p = 0; p < 4; ++p) {
                send_from(ipv4(10, 1, 0, 0) + next, static_cast<std::uint16_t>(1024 + next),
                          7777);
                dpif_raw->pmd_poll_once(pmd);
            }
        }
    };
    connect(4);
    const auto upcalls = vswitch->upcalls_handled();
    const auto megaflows = dpif_raw->flow_count();
    connect(124);
    EXPECT_EQ(sink.packets, 4u * 128u);
    EXPECT_EQ(dpif_raw->ct().size(), 128u);
    EXPECT_EQ(vswitch->upcalls_handled(), upcalls);
    EXPECT_EQ(dpif_raw->flow_count(), megaflows);
    // +new: classify/ct, ACL/commit, egress; +est: ACL straight to egress.
    EXPECT_EQ(upcalls, 4u);
    EXPECT_EQ(megaflows, 4u);
}

TEST_F(NsxTest, RankingTicksLeaveVerdictsUnchanged)
{
    // The same traffic through two identical deployments, one of them
    // clocked every 4 packets so its megaflow subtables are re-ranked
    // throughout; every packet gets the same verdict on both.
    NsxRig ticked;
    NsxRig& plain = *this;
    gen::Sink sink_plain, sink_ticked;
    gen::bind_udp_sink(plain.vm_b->kernel().stack(), 7777, sink_plain);
    gen::bind_udp_sink(ticked.vm_b->kernel().stack(), 7777, sink_ticked);
    const std::uint32_t sources[] = {ipv4(10, 1, 0, 10), ipv4(48, 0, 0, 7),
                                     ipv4(203, 0, 113, 9), ipv4(100, 2, 0, 1),
                                     ipv4(169, 254, 3, 3)};
    sim::Rng rng(7);
    std::uint64_t delivered = 0;
    for (int i = 0; i < 600; ++i) {
        const std::uint32_t src = sources[rng.below(std::size(sources))];
        const auto sport = static_cast<std::uint16_t>(rng.below(2) ? 68 : 1000 + rng.below(40));
        for (NsxRig* rig : {&plain, &ticked}) {
            rig->send_from(src, sport, 7777);
            rig->dpif_raw->pmd_poll_once(rig->pmd);
        }
        if (i % 4 == 3) {
            ticked.dpif_raw->set_now(static_cast<sim::Nanos>(i / 4 + 1)
                                     << kern::TimerWheel<std::uint64_t>::kDefaultTickShift);
        }
        ASSERT_EQ(sink_ticked.packets, sink_plain.packets) << "packet " << i;
        delivered = sink_plain.packets;
    }
    EXPECT_GT(delivered, 100u);
    EXPECT_LT(delivered, 500u);
    EXPECT_EQ(ticked.vswitch->upcalls_handled(), plain.vswitch->upcalls_handled());
    // A rerank that moves a subtable bumps the megaflow epoch: the
    // ticks did reorder the cache.
    EXPECT_GT(ticked.dpif_raw->megaflow().epoch(), plain.dpif_raw->megaflow().epoch() + 100);
}

} // namespace
} // namespace ovsx::nsx
