// Ablation: the userspace datapath's caching hierarchy.
//
// The paper's architecture (and its §2.1 history — the kernel
// maintainers' rejection of the exact-match cache, the eBPF datapath's
// inability to host the megaflow cache) is a bet on this hierarchy.
// This bench quantifies each layer on the NSX pipeline:
//   1. EMC insertion probability sweep (1 = always .. never)
//   2. megaflow subtable re-ranking on/off
//   3. full pipeline (3 recirculation passes) vs flat L2 forwarding
#include <cstdio>
#include <memory>

#include "gen/measure.h"
#include "gen/traffic.h"
#include "kern/kernel.h"
#include "kern/nic.h"
#include "nsx/nsx.h"
#include "ovs/dpif_netdev.h"
#include "ovs/netdev_afxdp.h"

using namespace ovsx;

namespace {

constexpr std::uint64_t kPackets = 30000;

struct Rig {
    explicit Rig(kern::Kernel& host) : dpif(host)
    {
        nic0 = &host.add_device<kern::PhysicalDevice>("eth0", net::MacAddr::from_id(1));
        nic1 = &host.add_device<kern::PhysicalDevice>("eth1", net::MacAddr::from_id(2));
        nic1->connect_wire([](net::Packet&&) {});
        p0 = dpif.add_port(std::make_unique<ovs::NetdevAfxdp>(*nic0));
        p1 = dpif.add_port(std::make_unique<ovs::NetdevAfxdp>(*nic1));
        pmd = dpif.add_pmd("pmd0");
        dpif.pmd_assign(pmd, p0, 0);
    }

    double run(std::uint32_t n_flows)
    {
        gen::TrafficGen gen({.n_flows = n_flows});
        for (std::uint64_t i = 0; i < kPackets; ++i) {
            nic0->rx_from_wire(gen.next());
            if ((i & 31) == 31) {
                while (dpif.pmd_poll_once(pmd) > 0) {
                }
            }
        }
        while (dpif.pmd_poll_once(pmd) > 0) {
        }
        gen::RateMeasure m;
        m.add_stage({"pmd", &dpif.pmd_ctx(pmd), gen::StageKind::Polling, 1});
        return m.report(kPackets, sim::line_rate_pps(25, 64)).mpps();
    }

    ovs::DpifNetdev dpif;
    kern::PhysicalDevice* nic0 = nullptr;
    kern::PhysicalDevice* nic1 = nullptr;
    std::uint32_t p0 = 0, p1 = 0;
    int pmd = 0;
};

void forward_flow(Rig& rig)
{
    net::FlowKey key;
    key.in_port = rig.p0;
    net::FlowMask mask;
    mask.bits.in_port = 0xffffffff;
    mask.bits.recirc_id = 0xffffffff;
    rig.dpif.flow_put(key, mask, {kern::OdpAction::output(rig.p1)});
}

} // namespace

int main()
{
    std::printf("Ablation 1: EMC insertion probability (1000 flows, 64B)\n\n");
    std::printf("%-24s %10s %14s %14s\n", "emc-insert-inv-prob", "Mpps", "EMC hitrate",
                "megaflow hits");
    for (const std::uint32_t inv_prob : {1u, 20u, 100u, 1000000u}) {
        kern::Kernel host("host");
        Rig rig(host);
        forward_flow(rig);
        rig.dpif.set_emc_insert_inv_prob(inv_prob);
        const double mpps = rig.run(1000);
        const auto& emc = rig.dpif.emc();
        const double hitrate =
            static_cast<double>(emc.hits()) /
            static_cast<double>(emc.hits() + emc.misses());
        std::printf("%-24u %10.2f %13.0f%% %14llu\n", inv_prob, mpps, hitrate * 100,
                    static_cast<unsigned long long>(rig.dpif.megaflow().hits()));
    }

    std::printf("\nAblation 2: megaflow subtable re-ranking (many masks, 1000 flows)\n\n");
    for (const bool rerank : {false, true}) {
        kern::Kernel host("host");
        Rig rig(host);
        rig.dpif.set_emc_insert_inv_prob(1u << 30); // isolate the megaflow layer
        // Install cold, specific subtables first so the hot mask is
        // probed last unless re-ranking kicks in.
        for (int m = 0; m < 12; ++m) {
            net::FlowKey key;
            key.in_port = 9999; // never matches
            key.tp_dst = static_cast<std::uint16_t>(m);
            net::FlowMask mask;
            mask.bits.in_port = 0xffffffff;
            mask.bits.recirc_id = 0xffffffff;
            mask.bits.tp_dst = 0xffff;
            mask.bits.nw_src = 0xffffff00 << (m % 4);
            rig.dpif.flow_put(key, mask, {kern::OdpAction::drop()});
        }
        forward_flow(rig);
        if (rerank) {
            // Warm, then let the revalidator re-rank.
            rig.run(1000);
            rig.dpif.revalidate();
            rig.dpif.pmd_ctx(rig.pmd).reset();
        }
        const double mpps = rig.run(1000);
        std::printf("  rerank=%-5s %8.2f Mpps\n", rerank ? "on" : "off", mpps);
    }

    std::printf("\nAblation 3: NSX pipeline (3 datapath passes) vs flat forwarding\n\n");
    {
        kern::Kernel host("host");
        Rig rig(host);
        forward_flow(rig);
        std::printf("  flat L2 forward:          %8.2f Mpps\n", rig.run(1000));
    }
    {
        kern::Kernel host("host");
        auto dpif_owned = std::make_unique<ovs::DpifNetdev>(host);
        auto* dpifp = dpif_owned.get();
        auto& nic0 = host.add_device<kern::PhysicalDevice>("eth0", net::MacAddr::from_id(1));
        auto& nic1 = host.add_device<kern::PhysicalDevice>("eth1", net::MacAddr::from_id(2));
        nic1.connect_wire([](net::Packet&&) {});
        const auto p0 = dpifp->add_port(std::make_unique<ovs::NetdevAfxdp>(nic0));
        const auto p1 = dpifp->add_port(std::make_unique<ovs::NetdevAfxdp>(nic1));
        const auto tun = dpifp->add_tunnel_port("geneve0", net::TunnelType::Geneve,
                                                net::ipv4(172, 16, 0, 1));
        (void)tun;
        const int pmd = dpifp->add_pmd("pmd0");
        dpifp->pmd_assign(pmd, p0, 0);
        ovs::VSwitch vswitch(std::move(dpif_owned));
        // VM0's two interfaces are our ingress (p0) and egress (p1)
        // ports; the generator's destination MAC belongs to iface 1.
        nsx::NsxConfig cfg = nsx::make_production_config(net::ipv4(172, 16, 0, 1), tun,
                                                         {p0, p1}, 1, 15, 291);
        cfg.vms[1].mac = net::MacAddr::from_id(0x200);
        cfg.vms[1].ip = net::ipv4(16, 0, 0, 1);
        nsx::NsxAgent agent(vswitch, cfg);
        agent.deploy();

        // Warm the caches first (upcalls are control-plane, not
        // steady-state), let the revalidator re-rank, then measure.
        for (int round = 0; round < 2; ++round) {
            if (round == 1) {
                dpifp->revalidate();
                dpifp->pmd_ctx(pmd).reset();
            }
            gen::TrafficGen gen({.n_flows = 1000});
            for (std::uint64_t i = 0; i < kPackets; ++i) {
                nic0.rx_from_wire(gen.next());
                if ((i & 31) == 31) {
                    while (dpifp->pmd_poll_once(pmd) > 0) {
                    }
                }
            }
            while (dpifp->pmd_poll_once(pmd) > 0) {
            }
        }
        gen::RateMeasure m;
        m.add_stage({"pmd", &dpifp->pmd_ctx(pmd), gen::StageKind::Polling, 1});
        std::printf("  NSX pipeline (ct+recirc): %8.2f Mpps  (%llu upcalls, %zu megaflows,"
                    " %zu conns)\n",
                    m.report(kPackets, sim::line_rate_pps(25, 64)).mpps(),
                    static_cast<unsigned long long>(vswitch.upcalls_handled()),
                    dpifp->flow_count(), dpifp->ct().size());
    }

    std::printf("\nEach recirculation pass re-runs parse + cache lookup; the paper's\n"
                "NSX traffic pays the pipeline three times per packet (Sec. 5.1).\n");
    return 0;
}
