// dpif-kernel: the traditional split design — the datapath lives in the
// kernel module (kern/ovs_kmod.h); ovs-vswitchd only sees upcalls and
// installs flows over the (simulated) openvswitch netlink channel.
#pragma once

#include "kern/kernel.h"
#include "kern/nic.h"
#include "kern/ovs_kmod.h"
#include "ovs/appctl_render.h"
#include "ovs/dpif.h"

namespace ovsx::ovs {

class DpifKernel : public Dpif {
public:
    explicit DpifKernel(kern::OvsKernelDatapath& dp) : dp_(dp) {}

    const char* type() const override { return "system"; }

    void set_upcall_handler(UpcallHandler handler) override
    {
        dp_.set_upcall_handler(
            [handler = std::move(handler)](std::uint32_t port_no, net::Packet&& pkt,
                                           const net::FlowKey& key, sim::ExecContext& ctx) {
                handler(port_no, std::move(pkt), key, ctx);
            });
    }

    void flow_put(const net::FlowKey& key, const net::FlowMask& mask,
                  kern::OdpActions actions) override
    {
        dp_.flow_put(key, mask, std::move(actions));
    }

    void flow_flush() override { dp_.flow_flush(); }
    std::size_t flow_count() const override { return dp_.flow_count(); }
    std::vector<kern::OdpFlowEntry> flow_dump() const override { return dp_.flow_dump(); }
    void san_check(san::Site site) const override { dp_.san_check(site); }

    void register_appctl(obs::Appctl& appctl) override
    {
        appctl.register_command("dpif-netdev/pmd-stats-show", "datapath statistics",
                                [this](const obs::Appctl::Args&) {
                                    // No PMD threads: packets are processed in
                                    // softirq context, so the pmds array is empty.
                                    return render_pmd_stats(type(), dp_.hits(), dp_.misses(),
                                                            dp_.lost());
                                });
        appctl.register_command("dpctl/dump-flows", "installed datapath flows",
                                [this](const obs::Appctl::Args&) {
                                    return render_flow_dump(dp_.flow_dump());
                                });
        appctl.register_command("conntrack/show", "tracked connections",
                                [this](const obs::Appctl::Args&) {
                                    return render_ct_snapshot(
                                        dp_.kernel().conntrack().snapshot());
                                });
        appctl.register_command("xsk/ring-stats", "AF_XDP socket ring statistics",
                                [](const obs::Appctl::Args&) {
                                    // The kernel datapath owns no XSK sockets.
                                    return render_xsk_rings({});
                                });
        appctl.register_command("dpif-netdev/pmd-rxq-show",
                                "rxq-to-PMD assignment with windowed busy%",
                                [this](const obs::Appctl::Args&) {
                                    // Softirq processing: no PMD threads.
                                    return render_pmd_rxq(type(), {});
                                });
        appctl.register_command("dpif-netdev/pmd-rebalance",
                                "rebalance rxqs across PMDs now",
                                [this](const obs::Appctl::Args&) {
                                    obs::Value v = obs::Value::object();
                                    v.set("datapath", type());
                                    v.set("rebalanced", false);
                                    v.set("detail", "no PMD threads");
                                    return v;
                                });
        appctl.register_command(
            "pmd/perf-show",
            "per-PMD cycle profiler: stage cycles and iteration histograms",
            [this](const obs::Appctl::Args&) {
                return render_pmd_perf(type(), softirq_perfs());
            });
        appctl.register_command(
            "pmd/perf-log", "suspicious-iteration thresholds and flight-recorder dumps",
            [this](const obs::Appctl::Args&) {
                return render_pmd_perf_log(type(), softirq_perfs());
            });
    }

    void execute(net::Packet&& pkt, const kern::OdpActions& actions,
                 sim::ExecContext& ctx) override
    {
        dp_.execute(std::move(pkt), actions, ctx);
    }

    void set_now(sim::Nanos now) override { dp_.set_now(now); }

    kern::OvsKernelDatapath& datapath() { return dp_; }

private:
    // The kernel datapath's execution contexts are the NIC softirq
    // handlers of its device-backed ports: one pmd/perf-show row per
    // physical queue, the softirq analogue of a PMD thread.
    std::vector<const obs::PmdPerf*> softirq_perfs() const
    {
        std::vector<const obs::PmdPerf*> rows;
        for (const kern::Vport* vport : dp_.ports()) {
            auto* nic = dynamic_cast<kern::PhysicalDevice*>(vport->dev);
            if (!nic) continue;
            for (std::uint32_t q = 0; q < nic->config().num_queues; ++q) {
                if (const obs::PmdPerf* perf = nic->softirq_ctx(q).perf()) {
                    rows.push_back(perf);
                }
            }
        }
        return rows;
    }

    kern::OvsKernelDatapath& dp_;
};

} // namespace ovsx::ovs
