// The in-kernel OVS datapath module (openvswitch.ko of the original
// split design): a masked flow table (tuple-space search) populated from
// userspace, vports over kernel devices and tunnel endpoints, upcalls on
// misses, and an action executor using kernel facilities (conntrack,
// tunnels, devices).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "kern/device.h"
#include "kern/meter.h"
#include "kern/odp.h"
#include "net/flow.h"
#include "net/tunnel.h"
#include "san/report.h"
#include "sim/time.h"

namespace ovsx::kern {

class Kernel;

struct KernelFlowStats {
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
};

// One datapath port.
struct Vport {
    std::uint32_t port_no = 0;
    std::string name;
    Device* dev = nullptr;                    // device-backed port
    std::optional<net::TunnelType> tunnel;    // tunnel vport
    std::uint32_t tunnel_local_ip = 0;        // local endpoint for tunnel vports
};

class OvsKernelDatapath {
public:
    // Upcall: flow-table miss. The handler (ovs-vswitchd) is expected to
    // install a flow and/or re-inject the packet with execute().
    using UpcallHandler =
        std::function<void(std::uint32_t port_no, net::Packet&&, const net::FlowKey&,
                           sim::ExecContext&)>;

    explicit OvsKernelDatapath(Kernel& kernel);
    ~OvsKernelDatapath();

    Kernel& kernel() { return kernel_; }

    // ---- ports ---------------------------------------------------------
    std::uint32_t add_port(Device& dev);
    std::uint32_t add_tunnel_port(const std::string& name, net::TunnelType type,
                                  std::uint32_t local_ip);
    void del_port(std::uint32_t port_no);
    const Vport* port(std::uint32_t port_no) const;
    const Vport* port_by_name(const std::string& name) const;
    std::vector<const Vport*> ports() const;

    // ---- flow table ----------------------------------------------------------
    void flow_put(const net::FlowKey& key, const net::FlowMask& mask, OdpActions actions);
    bool flow_del(const net::FlowKey& key, const net::FlowMask& mask);
    void flow_flush();
    std::size_t flow_count() const;
    // Every installed flow, for per-entry end-state diffing.
    std::vector<OdpFlowEntry> flow_dump() const;

    // Copy-free walk over (masked key, mask, actions): the differential
    // harness digests end state through this and only materializes the
    // full dump when digests disagree.
    template <typename Fn> void for_each_entry(Fn&& fn) const
    {
        for (const auto& sub : subtables_) {
            for (const auto& [hash, bucket] : sub.flows) {
                for (const auto& [k, actions] : bucket) fn(k, sub.mask, *actions);
            }
        }
    }

    // Cross-checks the san table audit against the real table.
    void san_check(san::Site site) const;

    void set_upcall_handler(UpcallHandler handler) { upcall_ = std::move(handler); }

    // ---- meters / virtual time ------------------------------------------
    MeterTable& meters() { return meters_; }
    const MeterTable& meters() const { return meters_; }

    // Virtual clock used for meter refill and conntrack timestamps, the
    // same convention as DpifNetdev::set_now. Also drives the host
    // conntrack's timer-wheel tick and, once per ~1ms wheel quantum,
    // re-ranks the masks by hits since the previous ranking.
    void set_now(sim::Nanos now);
    sim::Nanos now() const { return now_; }

    // ---- datapath ---------------------------------------------------------------
    // Ingress entry (wired as the rx handler of every device port).
    void receive(std::uint32_t port_no, net::Packet&& pkt, sim::ExecContext& ctx);

    // Burst ingress: the whole vector is admitted at once (one rx
    // doorbell amortized over the burst), then each packet runs the
    // per-packet path — the kernel datapath has no compute batching,
    // which is exactly the paper's Table 4 story. Publishes the same
    // batch.occupancy/batch.flush telemetry as the userspace spine.
    void receive_batch(std::uint32_t port_no, std::vector<net::Packet>&& pkts,
                       sim::ExecContext& ctx);

    // Executes actions on a packet (also the userspace re-injection path,
    // OVS_PACKET_CMD_EXECUTE).
    void execute(net::Packet&& pkt, const OdpActions& actions, sim::ExecContext& ctx);

    // ---- in-band telemetry (INT) ---------------------------------------
    // Same semantics as DpifNetdev::IntConfig: attach the Geneve INT
    // option at encap, stamp one hop record per transmitted frame that
    // carries the option, pop+export at tunnel decap.
    struct IntConfig {
        bool enabled = false;
        std::uint32_t switch_id = 0;
        std::uint8_t tier = 0; // net::kIntTier{Host,Leaf,Spine}
        std::uint8_t max_hops = 8;
        bool attach_on_encap = true;
    };
    void set_int(const IntConfig& cfg) { int_cfg_ = cfg; }
    const IntConfig& int_config() const { return int_cfg_; }

    // ---- statistics -----------------------------------------------------------------
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t lost() const { return lost_; } // misses with no upcall handler

    // Masks currently in the table (diagnostic; the paper's megaflow
    // discussions are about keeping this small).
    std::size_t mask_count() const { return subtables_.size(); }

private:
    // Actions are held by shared_ptr so a lookup result stays valid
    // while its packet executes, even when execution re-enters flow_put
    // and replaces the entry (previously guarded by a per-packet deep
    // copy of the action list).
    using ActionsRef = std::shared_ptr<const OdpActions>;

    struct Subtable {
        net::FlowMask mask;
        std::unordered_map<std::uint64_t, std::vector<std::pair<net::FlowKey, ActionsRef>>>
            flows; // hash(masked key) -> entries
        std::size_t size = 0;
        std::uint64_t hits = 0; // lookups matched here since the last ranking
    };

    struct LookupResult {
        ActionsRef actions;
        int probes = 0;
    };

    LookupResult lookup(const net::FlowKey& key, sim::ExecContext& ctx);
    // receive() minus the profiler iteration bracket (receive_batch
    // opens one iteration for the whole burst; a solo receive() opens
    // its own around a single call).
    void receive_one(std::uint32_t port_no, net::Packet&& pkt, sim::ExecContext& ctx);
    void do_output(net::Packet&& pkt, std::uint32_t port_no, sim::ExecContext& ctx);
    void tunnel_rx(net::Packet&& pkt, const net::FlowKey& key, sim::ExecContext& ctx);
    void maybe_int_stamp(net::Packet& pkt, sim::ExecContext& ctx);

    Kernel& kernel_;
    std::map<std::uint32_t, Vport> ports_;
    std::uint32_t next_port_no_ = 1;
    // Probe order: ranked by hits once per set_now quantum; a new mask
    // re-sorts the table most specific first (also the tie-break).
    std::vector<Subtable> subtables_;
    std::uint64_t rank_quantum_ = 0; // set_now quantum of the last ranking
    UpcallHandler upcall_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t lost_ = 0;
    int recursion_ = 0;
    MeterTable meters_;
    sim::Nanos now_ = 0;
    IntConfig int_cfg_;
    std::uint16_t last_batch_occupancy_ = 1; // INT queue/batch occupancy field
    std::uint64_t san_scope_;
};

} // namespace ovsx::kern
