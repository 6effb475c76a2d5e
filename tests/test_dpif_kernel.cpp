#include <gtest/gtest.h>

#include <utility>

#include "kern/kernel.h"
#include "kern/nic.h"
#include "kern/virtio.h"
#include "net/builder.h"
#include "nsx/nsx.h"
#include "ovs/dpif_kernel.h"
#include "ovs/dpif_netdev.h"
#include "ovs/netdev_afxdp.h"
#include "ovs/vswitch.h"

namespace ovsx::ovs {
namespace {

using net::ipv4;

net::Packet udp64(std::uint16_t sport = 1000)
{
    net::UdpSpec spec;
    spec.src_ip = ipv4(10, 0, 0, 1);
    spec.dst_ip = ipv4(10, 0, 0, 2);
    spec.src_port = sport;
    spec.dst_port = 2000;
    return net::build_udp(spec);
}

// The traditional split architecture driven through the same VSwitch /
// ofproto control plane as the AF_XDP datapath — the point of the Dpif
// abstraction.
TEST(DpifKernelTest, VSwitchDrivesTheKernelModule)
{
    kern::Kernel host("host");
    auto& nic0 = host.add_device<kern::PhysicalDevice>("eth0", net::MacAddr::from_id(1));
    auto& nic1 = host.add_device<kern::PhysicalDevice>("eth1", net::MacAddr::from_id(2));
    std::uint64_t forwarded = 0;
    nic1.connect_wire([&](net::Packet&&) { ++forwarded; });

    auto& kdp = host.ovs_datapath();
    const auto p0 = kdp.add_port(nic0);
    const auto p1 = kdp.add_port(nic1);

    VSwitch vswitch(std::make_unique<DpifKernel>(kdp));
    Match m;
    m.key.in_port = p0;
    m.mask.bits.in_port = 0xffffffff;
    vswitch.ofproto().add_rule({.table = 0, .priority = 1, .match = m,
                                .actions = {OfAction::output(p1)}});

    // First packet: kernel upcall -> ofproto xlate -> kernel flow_put +
    // re-inject. Later packets hit the kernel flow table directly.
    nic0.rx_from_wire(udp64());
    EXPECT_EQ(vswitch.upcalls_handled(), 1u);
    EXPECT_EQ(forwarded, 1u);
    EXPECT_EQ(kdp.flow_count(), 1u);

    for (std::uint16_t s = 0; s < 50; ++s) nic0.rx_from_wire(udp64(s));
    EXPECT_EQ(forwarded, 51u);
    EXPECT_EQ(vswitch.upcalls_handled(), 1u); // megaflow covered them all
    EXPECT_EQ(kdp.hits(), 50u);
    // All datapath work was kernel softirq — no userspace PMD exists.
    EXPECT_GT(nic0.softirq_ctx(0).busy(sim::CpuClass::Softirq), 0);
}

TEST(DpifKernelTest, FlowFlushForcesReUpcall)
{
    kern::Kernel host("host");
    auto& nic0 = host.add_device<kern::PhysicalDevice>("eth0", net::MacAddr::from_id(1));
    auto& nic1 = host.add_device<kern::PhysicalDevice>("eth1", net::MacAddr::from_id(2));
    nic1.connect_wire([](net::Packet&&) {});
    auto& kdp = host.ovs_datapath();
    const auto p0 = kdp.add_port(nic0);
    const auto p1 = kdp.add_port(nic1);

    VSwitch vswitch(std::make_unique<DpifKernel>(kdp));
    Match m;
    m.key.in_port = p0;
    m.mask.bits.in_port = 0xffffffff;
    vswitch.ofproto().add_rule({.table = 0, .priority = 1, .match = m,
                                .actions = {OfAction::output(p1)}});

    nic0.rx_from_wire(udp64());
    EXPECT_EQ(vswitch.upcalls_handled(), 1u);
    vswitch.dpif().flow_flush(); // e.g. a revalidation after rule changes
    EXPECT_EQ(vswitch.dpif().flow_count(), 0u);
    nic0.rx_from_wire(udp64());
    EXPECT_EQ(vswitch.upcalls_handled(), 2u);
}

TEST(DpifKernelTest, SameRulesDifferentDatapaths)
{
    // The same ofproto pipeline drives either datapath provider — the
    // architectural claim behind "OVS with AF_XDP needs no NSX changes"
    // (§4: NSX accesses features via OVSDB/OpenFlow, not the kernel).
    for (const bool use_kernel : {true, false}) {
        kern::Kernel host("host");
        auto& nic0 = host.add_device<kern::PhysicalDevice>("eth0", net::MacAddr::from_id(1));
        auto& nic1 = host.add_device<kern::PhysicalDevice>("eth1", net::MacAddr::from_id(2));
        std::uint64_t forwarded = 0;
        nic1.connect_wire([&](net::Packet&&) { ++forwarded; });

        std::unique_ptr<Dpif> dpif;
        std::uint32_t p0, p1;
        DpifNetdev* nd = nullptr;
        int pmd = -1;
        if (use_kernel) {
            auto& kdp = host.ovs_datapath();
            p0 = kdp.add_port(nic0);
            p1 = kdp.add_port(nic1);
            dpif = std::make_unique<DpifKernel>(kdp);
        } else {
            auto owned = std::make_unique<DpifNetdev>(host);
            nd = owned.get();
            p0 = nd->add_port(std::make_unique<NetdevAfxdp>(nic0));
            p1 = nd->add_port(std::make_unique<NetdevAfxdp>(nic1));
            pmd = nd->add_pmd("pmd0");
            nd->pmd_assign(pmd, p0, 0);
            dpif = std::move(owned);
        }
        VSwitch vswitch(std::move(dpif));
        Match m;
        m.key.in_port = p0;
        m.mask.bits.in_port = 0xffffffff;
        vswitch.ofproto().add_rule({.table = 0, .priority = 1, .match = m,
                                    .actions = {OfAction::output(p1)}});

        for (int i = 0; i < 10; ++i) nic0.rx_from_wire(udp64());
        if (nd) {
            while (nd->pmd_poll_once(pmd) > 0) {
            }
        }
        EXPECT_EQ(forwarded, 10u) << (use_kernel ? "kernel" : "afxdp");
    }
}

// The NSX ruleset on the kernel module: `conns` fresh 5-tuples of 4
// packets each from one allowed prefix (48/8). Returns the upcalls and
// the kernel flows they installed.
std::pair<std::uint64_t, std::size_t> nsx_fresh_connections(std::uint32_t conns)
{
    kern::Kernel host("host");
    auto& nic0 = host.add_device<kern::PhysicalDevice>("eth0", net::MacAddr::from_id(1));
    auto& nic1 = host.add_device<kern::PhysicalDevice>("eth1", net::MacAddr::from_id(2));
    std::uint64_t forwarded = 0;
    nic1.connect_wire([&](net::Packet&&) { ++forwarded; });
    auto& kdp = host.ovs_datapath();
    const auto p0 = kdp.add_port(nic0);
    const auto p1 = kdp.add_port(nic1);
    const auto tun = kdp.add_tunnel_port("geneve0", net::TunnelType::Geneve, ipv4(172, 16, 0, 1));

    VSwitch vswitch(std::make_unique<DpifKernel>(kdp));
    nsx::NsxConfig cfg = nsx::make_production_config(ipv4(172, 16, 0, 1), tun, {p0, p1}, 1);
    cfg.target_rules = 4000;
    nsx::NsxAgent agent(vswitch, cfg);
    agent.deploy();

    for (std::uint32_t c = 0; c < conns; ++c) {
        net::UdpSpec spec;
        spec.dst_mac = cfg.vms[1].mac; // VM0's second interface, on p1
        spec.src_ip = ipv4(48, 1, 0, 0) + c;
        spec.dst_ip = ipv4(16, 0, 0, 1);
        spec.src_port = static_cast<std::uint16_t>(1024 + c);
        spec.dst_port = 12;
        for (int p = 0; p < 4; ++p) nic0.rx_from_wire(net::build_udp(spec));
    }
    EXPECT_EQ(forwarded, 4u * conns);
    EXPECT_EQ(host.conntrack().size(), conns);
    return {vswitch.upcalls_handled(), kdp.flow_count()};
}

TEST(DpifKernelTest, NsxFreshConnectionsDoNotUpcall)
{
    // One kernel flow per NSX pass covers the whole prefix, so the
    // counts do not grow with the number of connections.
    const auto few = nsx_fresh_connections(4);
    EXPECT_EQ(nsx_fresh_connections(128), few);
    // +new: classify/ct, ACL/commit, egress; +est: ACL straight to egress.
    EXPECT_EQ(few.first, 4u);
    EXPECT_EQ(few.second, 4u);
}

TEST(VhostChannelTest, RingFullDropsAreCounted)
{
    kern::Kernel host("host");
    kern::VhostUserChannel chan(host.costs(), {}, /*ring_size=*/4);
    sim::ExecContext guest("vcpu", sim::CpuClass::Guest);
    // The backend never polls: the guest's 5th packet finds no slot.
    for (int i = 0; i < 6; ++i) chan.guest_tx(udp64(), guest);
    EXPECT_EQ(chan.drops(), 2u);
    // Draining restores capacity.
    sim::ExecContext pmd("pmd", sim::CpuClass::User);
    while (chan.backend_rx(pmd)) {
    }
    EXPECT_TRUE(chan.guest_tx(udp64(), guest));
    EXPECT_EQ(chan.drops(), 2u);
}

TEST(VhostChannelTest, KickChargedOnlyForInterruptGuests)
{
    kern::Kernel host("host");
    kern::VirtioFeatures polling;
    polling.guest_polling = true;
    kern::VhostUserChannel poll_chan(host.costs(), polling);
    kern::VhostUserChannel irq_chan(host.costs(), {});
    poll_chan.set_guest_rx([](net::Packet&&, sim::ExecContext&) {});
    irq_chan.set_guest_rx([](net::Packet&&, sim::ExecContext&) {});

    sim::ExecContext c1("a", sim::CpuClass::User), c2("b", sim::CpuClass::User);
    poll_chan.backend_tx(udp64(), c1);
    irq_chan.backend_tx(udp64(), c2);
    EXPECT_GT(c2.total_busy(), c1.total_busy()); // the eventfd kick
}

} // namespace
} // namespace ovsx::ovs
