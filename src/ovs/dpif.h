// Dpif: the datapath interface ofproto programs against. Three
// providers exist, mirroring the paper's comparison matrix:
//   - DpifNetdev  (ovs/dpif_netdev.h)  userspace datapath (AF_XDP/DPDK)
//   - DpifKernel  (ovs/dpif_kernel.h)  the traditional kernel module
//   - DpifEbpf    (ovs/dpif_ebpf.h)    the rejected all-eBPF datapath
#pragma once

#include <functional>
#include <vector>

#include "kern/odp.h"
#include "net/flow.h"
#include "net/packet.h"
#include "obs/appctl.h"
#include "san/report.h"
#include "sim/context.h"

namespace ovsx::ovs {

class Dpif {
public:
    // Flow-table miss: ofproto must translate and (usually) install a
    // datapath flow, then re-inject the packet via execute().
    using UpcallHandler = std::function<void(std::uint32_t in_port, net::Packet&&,
                                             const net::FlowKey&, sim::ExecContext&)>;

    virtual ~Dpif() = default;

    virtual const char* type() const = 0;
    virtual void set_upcall_handler(UpcallHandler handler) = 0;

    virtual void flow_put(const net::FlowKey& key, const net::FlowMask& mask,
                          kern::OdpActions actions) = 0;
    virtual void flow_flush() = 0;
    virtual std::size_t flow_count() const = 0;
    // Every installed datapath flow (OVS_FLOW_CMD_DUMP), for per-entry
    // end-state diffing across providers.
    virtual std::vector<kern::OdpFlowEntry> flow_dump() const = 0;
    // Cross-checks the san table audits against the provider's real
    // tables; violations are reported through san::report.
    virtual void san_check(san::Site site) const { (void)site; }

    // Registers this provider's introspection commands. Every provider
    // answers the same command set (dpctl/dump-flows, conntrack/show,
    // dpif-netdev/pmd-stats-show, xsk/ring-stats) so tooling works
    // unchanged across datapaths; commands that do not apply return the
    // same shape with empty collections. Handlers capture `this`: the
    // registry must not outlive the provider.
    virtual void register_appctl(obs::Appctl& appctl) { (void)appctl; }

    virtual void execute(net::Packet&& pkt, const kern::OdpActions& actions,
                         sim::ExecContext& ctx) = 0;

    // Virtual clock: meter refill, conntrack timestamps and timer-wheel
    // expiry, and (once per ~1ms wheel quantum) classifier ranking.
    virtual void set_now(sim::Nanos now) = 0;
};

} // namespace ovsx::ovs
