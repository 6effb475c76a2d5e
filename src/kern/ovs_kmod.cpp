#include "kern/ovs_kmod.h"

#include <algorithm>

#include "kern/int_sink.h"
#include "kern/kernel.h"
#include "kern/stack.h"
#include "kern/timer_wheel.h"
#include "net/headers.h"
#include "net/int_hdr.h"
#include "net/rewrite.h"
#include "obs/coverage.h"
#include "obs/perf.h"
#include "obs/trace.h"
#include "san/audit.h"
#include "san/packet_ledger.h"

namespace ovsx::kern {

namespace {

// Audit identity of a flow-table entry: the masked key hashed with the
// mask (FlowKey bytes are fully defined, so this is deterministic).
std::uint64_t flow_audit_key(const net::FlowKey& masked, const net::FlowMask& mask)
{
    return masked.hash(mask.hash());
}

} // namespace

OvsKernelDatapath::OvsKernelDatapath(Kernel& kernel)
    : kernel_(kernel), san_scope_(san::new_scope())
{
}

void OvsKernelDatapath::set_now(sim::Nanos now)
{
    now_ = now;
    // Occupancy counters + amortized timer-wheel expiry on the host
    // conntrack (bounded per tick; never an O(table) scan).
    kernel_.conntrack().tick(now);
    // Mask ranking (Linux's ovs_flow_masks_rebalance) on the same
    // quantum: most hits since the last pass first, most specific first
    // among equals.
    const std::uint64_t quantum =
        static_cast<std::uint64_t>(now) >> TimerWheel<std::uint64_t>::kDefaultTickShift;
    if (quantum == rank_quantum_) return;
    rank_quantum_ = quantum;
    std::stable_sort(subtables_.begin(), subtables_.end(),
                     [](const Subtable& a, const Subtable& b) {
                         if (a.hits != b.hits) return a.hits > b.hits;
                         return a.mask.exact_bytes() > b.mask.exact_bytes();
                     });
    for (auto& sub : subtables_) sub.hits = 0;
}

OvsKernelDatapath::~OvsKernelDatapath()
{
    for (const auto& [no, vport] : ports_) {
        if (vport.dev) san::ref_dec(0, "netdev.ref", vport.dev->ifindex(), OVSX_SITE);
    }
    san::audit_clear(san_scope_, "kdp.flow");
}

std::uint32_t OvsKernelDatapath::add_port(Device& dev)
{
    const std::uint32_t port_no = next_port_no_++;
    Vport vport;
    vport.port_no = port_no;
    vport.name = dev.name();
    vport.dev = &dev;
    ports_[port_no] = vport;
    san::ref_inc(0, "netdev.ref", dev.ifindex(), OVSX_SITE);
    dev.set_rx_handler([this, port_no](Device&, net::Packet&& pkt, sim::ExecContext& ctx) {
        receive(port_no, std::move(pkt), ctx);
    });
    return port_no;
}

std::uint32_t OvsKernelDatapath::add_tunnel_port(const std::string& name, net::TunnelType type,
                                                 std::uint32_t local_ip)
{
    const std::uint32_t port_no = next_port_no_++;
    Vport vport;
    vport.port_no = port_no;
    vport.name = name;
    vport.tunnel = type;
    vport.tunnel_local_ip = local_ip;
    ports_[port_no] = vport;

    // Terminate tunnel traffic arriving at the local stack.
    IpStack& stack = kernel_.stack(0);
    if (type == net::TunnelType::Geneve || type == net::TunnelType::Vxlan) {
        const std::uint16_t port =
            type == net::TunnelType::Geneve ? net::kGenevePort : net::kVxlanPort;
        stack.bind(static_cast<std::uint8_t>(net::IpProto::Udp), port,
                   [this](net::Packet&& pkt, const net::FlowKey& key, sim::ExecContext& ctx) {
                       tunnel_rx(std::move(pkt), key, ctx);
                   });
    } else {
        stack.bind(static_cast<std::uint8_t>(net::IpProto::Gre), 0,
                   [this](net::Packet&& pkt, const net::FlowKey& key, sim::ExecContext& ctx) {
                       tunnel_rx(std::move(pkt), key, ctx);
                   });
    }
    return port_no;
}

void OvsKernelDatapath::del_port(std::uint32_t port_no)
{
    auto it = ports_.find(port_no);
    if (it == ports_.end()) return;
    if (it->second.dev) {
        it->second.dev->clear_rx_handler();
        san::ref_dec(0, "netdev.ref", it->second.dev->ifindex(), OVSX_SITE);
    }
    ports_.erase(it);
}

const Vport* OvsKernelDatapath::port(std::uint32_t port_no) const
{
    auto it = ports_.find(port_no);
    return it == ports_.end() ? nullptr : &it->second;
}

const Vport* OvsKernelDatapath::port_by_name(const std::string& name) const
{
    for (const auto& [no, vport] : ports_) {
        if (vport.name == name) return &vport;
    }
    return nullptr;
}

std::vector<const Vport*> OvsKernelDatapath::ports() const
{
    std::vector<const Vport*> out;
    for (const auto& [no, vport] : ports_) out.push_back(&vport);
    return out;
}

void OvsKernelDatapath::flow_put(const net::FlowKey& key, const net::FlowMask& mask,
                                 OdpActions actions)
{
    const net::FlowKey masked = mask.apply(key);
    auto ref = std::make_shared<const OdpActions>(std::move(actions));
    for (auto& sub : subtables_) {
        if (sub.mask == mask) {
            auto& bucket = sub.flows[masked.hash()];
            for (auto& [k, a] : bucket) {
                if (k == masked) {
                    a = std::move(ref);
                    return;
                }
            }
            bucket.emplace_back(masked, std::move(ref));
            ++sub.size;
            san::audit_add(san_scope_, "kdp.flow", flow_audit_key(masked, mask), OVSX_SITE);
            return;
        }
    }
    Subtable sub;
    sub.mask = mask;
    sub.flows[masked.hash()].emplace_back(masked, std::move(ref));
    sub.size = 1;
    subtables_.push_back(std::move(sub));
    san::audit_add(san_scope_, "kdp.flow", flow_audit_key(masked, mask), OVSX_SITE);
    // A new mask re-sorts most specific first, so probe order favours
    // specific masks until set_now ranks by use. Stable: equally
    // specific masks keep their ranked order.
    std::stable_sort(subtables_.begin(), subtables_.end(),
                     [](const Subtable& a, const Subtable& b) {
                         return a.mask.exact_bytes() > b.mask.exact_bytes();
                     });
}

bool OvsKernelDatapath::flow_del(const net::FlowKey& key, const net::FlowMask& mask)
{
    const net::FlowKey masked = mask.apply(key);
    for (auto& sub : subtables_) {
        if (!(sub.mask == mask)) continue;
        auto it = sub.flows.find(masked.hash());
        if (it == sub.flows.end()) return false;
        auto& bucket = it->second;
        for (auto bit = bucket.begin(); bit != bucket.end(); ++bit) {
            if (bit->first == masked) {
                bucket.erase(bit);
                --sub.size;
                san::audit_remove(san_scope_, "kdp.flow", flow_audit_key(masked, mask),
                                  OVSX_SITE);
                return true;
            }
        }
    }
    return false;
}

void OvsKernelDatapath::flow_flush()
{
    subtables_.clear();
    san::audit_clear(san_scope_, "kdp.flow");
}

std::size_t OvsKernelDatapath::flow_count() const
{
    std::size_t n = 0;
    for (const auto& sub : subtables_) n += sub.size;
    return n;
}

std::vector<OdpFlowEntry> OvsKernelDatapath::flow_dump() const
{
    std::vector<OdpFlowEntry> out;
    for (const auto& sub : subtables_) {
        for (const auto& [hash, bucket] : sub.flows) {
            for (const auto& [k, actions] : bucket) {
                out.push_back(OdpFlowEntry{k, sub.mask, *actions});
            }
        }
    }
    return out;
}

void OvsKernelDatapath::san_check(san::Site site) const
{
    san::audit_expect_size(san_scope_, "kdp.flow", flow_count(), site);
}

OvsKernelDatapath::LookupResult OvsKernelDatapath::lookup(const net::FlowKey& key,
                                                          sim::ExecContext& ctx)
{
    LookupResult res;
    for (auto& sub : subtables_) {
        ++res.probes;
        ctx.charge(kernel_.costs().kdp_flow_probe);
        auto it = sub.flows.find(sub.mask.masked_hash(key));
        if (it == sub.flows.end()) continue;
        for (const auto& [k, actions] : it->second) {
            if (sub.mask.matches(key, k)) {
                ++sub.hits;
                res.actions = actions;
                return res;
            }
        }
    }
    return res;
}

void OvsKernelDatapath::receive(std::uint32_t port_no, net::Packet&& pkt, sim::ExecContext& ctx)
{
    obs::PmdPerf* perf = ctx.perf();
    // A solo receive (not under receive_batch) is its own profiler
    // iteration of one packet; recirculation still counts extra
    // classifier passes, matching pmd-stats-show hits+misses.
    if (!perf || perf->in_iteration()) {
        receive_one(port_no, std::move(pkt), ctx);
        return;
    }
    const std::uint64_t classified_before = hits_ + misses_;
    perf->begin_iteration();
    receive_one(port_no, std::move(pkt), ctx);
    perf->end_iteration(hits_ + misses_ - classified_before);
}

void OvsKernelDatapath::receive_one(std::uint32_t port_no, net::Packet&& pkt,
                                    sim::ExecContext& ctx)
{
    const auto& costs = kernel_.costs();
    obs::PmdPerf* perf = ctx.perf();
    san::skb_transition(pkt.san_id(), san::SkbState::Datapath, OVSX_SITE);
    {
        obs::PerfStageScope rx(perf, obs::PerfStage::RxPoll);
        ctx.charge(costs.kdp_base);
    }
    pkt.meta().latency_ns += costs.kdp_base;
    pkt.meta().in_port = port_no;

    const net::FlowKey key = net::parse_flow(pkt);
    LookupResult res;
    {
        obs::PerfStageScope mf(perf, obs::PerfStage::MegaflowLookup);
        res = lookup(key, ctx);
    }
    pkt.meta().latency_ns += static_cast<sim::Nanos>(res.probes) * costs.kdp_flow_probe;
    if (res.actions) {
        ++hits_;
        OVSX_COVERAGE_CTX(ctx, "kdp.hit");
        if (pkt.meta().trace_id) {
            obs::trace(pkt.meta().trace_id, obs::Hop::KernelFlow, pkt.meta().latency_ns,
                       "hit", res.probes);
        }
        // The shared reference keeps the actions alive even if execution
        // installs a replacement flow and re-enters.
        execute(std::move(pkt), *res.actions, ctx);
        return;
    }
    ++misses_;
    OVSX_COVERAGE_CTX(ctx, "kdp.miss");
    if (perf) perf->note_upcall();
    if (pkt.meta().trace_id) {
        obs::trace(pkt.meta().trace_id, obs::Hop::KernelFlow, pkt.meta().latency_ns, "miss",
                   res.probes);
    }
    if (!upcall_) {
        ++lost_;
        if (pkt.meta().trace_id) {
            obs::trace(pkt.meta().trace_id, obs::Hop::Drop, pkt.meta().latency_ns, "lost");
        }
        return;
    }
    if (pkt.meta().trace_id) {
        obs::trace(pkt.meta().trace_id, obs::Hop::Upcall, pkt.meta().latency_ns, "");
    }
    obs::PerfStageScope up(perf, obs::PerfStage::Upcall);
    ctx.charge(costs.upcall / 10); // kernel-side upcall enqueue share
    upcall_(port_no, std::move(pkt), key, ctx);
}

void OvsKernelDatapath::receive_batch(std::uint32_t port_no, std::vector<net::Packet>&& pkts,
                                      sim::ExecContext& ctx)
{
    if (pkts.empty()) return;
    obs::PmdPerf* perf = ctx.perf();
    const bool iterate = perf && !perf->in_iteration();
    const std::uint64_t classified_before = hits_ + misses_;
    if (iterate) perf->begin_iteration();
    OVSX_COVERAGE_CTX(ctx, "batch.flush");
    OVSX_COVERAGE_CTX_N(ctx, "batch.occupancy", pkts.size());
    last_batch_occupancy_ =
        static_cast<std::uint16_t>(std::min<std::size_t>(pkts.size(), 0xffff));
    for (auto& pkt : pkts) {
        receive_one(port_no, std::move(pkt), ctx);
    }
    pkts.clear();
    if (iterate) perf->end_iteration(hits_ + misses_ - classified_before);
}

void OvsKernelDatapath::tunnel_rx(net::Packet&& pkt, const net::FlowKey& key,
                                  sim::ExecContext& ctx)
{
    auto res = net::decapsulate_auto(pkt);
    if (!res) return;
    int_sink(*res);
    // Find the vport for this tunnel type.
    for (const auto& [no, vport] : ports_) {
        if (vport.tunnel && *vport.tunnel == res->type) {
            pkt.meta().tunnel = res->key;
            pkt.meta().csum_verified = true; // validated with the outer frame
            (void)key;
            receive(no, std::move(pkt), ctx);
            return;
        }
    }
}

void OvsKernelDatapath::do_output(net::Packet&& pkt, std::uint32_t port_no,
                                  sim::ExecContext& ctx)
{
    const Vport* vport = port(port_no);
    if (!vport) {
        if (pkt.meta().trace_id) {
            obs::trace(pkt.meta().trace_id, obs::Hop::Drop, pkt.meta().latency_ns,
                       "no-such-port", port_no);
        }
        return;
    }
    if (pkt.meta().trace_id) {
        obs::trace(pkt.meta().trace_id, obs::Hop::Tx, pkt.meta().latency_ns, "", port_no);
    }
    if (vport->dev) {
        if (int_cfg_.enabled) maybe_int_stamp(pkt, ctx);
        obs::PerfStageScope tx(ctx.perf(), obs::PerfStage::Tx);
        vport->dev->transmit(std::move(pkt), ctx);
        return;
    }
    if (vport->tunnel) {
        // Encapsulate using staged tunnel metadata, then route the outer
        // packet through the local stack.
        net::TunnelKey tkey = pkt.meta().tunnel;
        if (tkey.ip_src == 0) tkey.ip_src = vport->tunnel_local_ip;
        if (tkey.ip_dst == 0) return; // no destination staged
        IpStack& stack = kernel_.stack(0);
        const auto route = stack.route_lookup(tkey.ip_dst);
        if (!route) return;
        Device* out = kernel_.device(route->ifindex);
        const std::uint32_t next_hop = route->gateway ? route->gateway : tkey.ip_dst;
        const auto nh_mac = stack.neighbor_lookup(next_hop);
        if (!out || !nh_mac) return;

        net::EncapParams params;
        params.outer_src_mac = out->mac();
        params.outer_dst_mac = *nh_mac;
        params.udp_src_port = static_cast<std::uint16_t>(0xc000 | (pkt.meta().rxhash & 0x3fff));
        const auto& costs = kernel_.costs();
        net::encapsulate(pkt, *vport->tunnel, tkey, params);
        ctx.charge(costs.copy(static_cast<std::int64_t>(net::encap_overhead(*vport->tunnel))));
        pkt.meta().tunnel = net::TunnelKey{};
        if (int_cfg_.enabled && int_cfg_.attach_on_encap &&
            *vport->tunnel == net::TunnelType::Geneve) {
            net::int_attach(pkt, int_cfg_.max_hops);
        }
        if (int_cfg_.enabled) maybe_int_stamp(pkt, ctx);
        obs::PerfStageScope tx(ctx.perf(), obs::PerfStage::Tx);
        out->transmit(std::move(pkt), ctx);
        return;
    }
}

void OvsKernelDatapath::maybe_int_stamp(net::Packet& pkt, sim::ExecContext& ctx)
{
    net::IntHop hop;
    hop.switch_id = int_cfg_.switch_id;
    hop.ingress_tier = int_cfg_.tier;
    hop.egress_tier = int_cfg_.tier;
    hop.occupancy = last_batch_occupancy_;
    hop.latency_ticks = static_cast<std::uint32_t>(pkt.meta().latency_ns / net::kIntTickNs);
    if (net::int_stamp(pkt, hop)) {
        OVSX_COVERAGE_CTX(ctx, "int.stamped");
        const auto c =
            kernel_.costs().copy(static_cast<std::int64_t>(sizeof(net::IntHopRecord)));
        ctx.charge(c);
        pkt.meta().latency_ns += c;
    }
}

void OvsKernelDatapath::execute(net::Packet&& pkt, const OdpActions& actions,
                                sim::ExecContext& ctx)
{
    if (recursion_ > 8) return; // mirror the kernel's recursion limit
    ++recursion_;
    const auto& costs = kernel_.costs();
    obs::PmdPerf* perf = ctx.perf();
    obs::PerfStageScope act_scope(perf, obs::PerfStage::Actions);

    for (std::size_t i = 0; i < actions.size(); ++i) {
        const OdpAction& act = actions[i];
        switch (act.type) {
        case OdpAction::Type::Output: {
            const bool last = (i + 1 == actions.size());
            if (last) {
                do_output(std::move(pkt), act.port, ctx);
                --recursion_;
                return;
            }
            net::Packet clone = pkt; // multicast/mirror copy
            ctx.charge(costs.copy(static_cast<std::int64_t>(pkt.size())));
            do_output(std::move(clone), act.port, ctx);
            break;
        }
        case OdpAction::Type::PushVlan:
            net::push_vlan(pkt, act.vlan_tci);
            break;
        case OdpAction::Type::PopVlan:
            net::pop_vlan(pkt);
            break;
        case OdpAction::Type::SetField:
            net::apply_rewrite(pkt, act.set_value, act.set_mask);
            ctx.charge(costs.kdp_base / 4);
            break;
        case OdpAction::Type::SetTunnel:
            pkt.meta().tunnel = act.tunnel;
            break;
        case OdpAction::Type::Ct: {
            obs::PerfStageScope ct_scope(perf, obs::PerfStage::Ct);
            const net::FlowKey key = net::parse_flow(pkt);
            kernel_.conntrack().process(pkt, key, act.ct, ctx, now_);
            if (pkt.meta().trace_id) {
                obs::trace(pkt.meta().trace_id, obs::Hop::Ct, pkt.meta().latency_ns, "",
                           act.ct.zone, pkt.meta().ct_state);
            }
            break;
        }
        case OdpAction::Type::Recirc: {
            pkt.meta().recirc_id = act.recirc_id;
            const net::FlowKey key = net::parse_flow(pkt);
            ctx.charge(costs.kdp_base / 2); // recirculation re-entry
            pkt.meta().latency_ns += costs.kdp_base / 2;
            LookupResult res;
            {
                obs::PerfStageScope mf(perf, obs::PerfStage::MegaflowLookup);
                res = lookup(key, ctx);
            }
            if (res.actions) {
                ++hits_;
                execute(std::move(pkt), *res.actions, ctx);
            } else {
                ++misses_;
                if (perf) perf->note_upcall();
                if (upcall_) {
                    obs::PerfStageScope up(perf, obs::PerfStage::Upcall);
                    upcall_(pkt.meta().in_port, std::move(pkt), key, ctx);
                } else {
                    ++lost_;
                }
            }
            --recursion_;
            return;
        }
        case OdpAction::Type::Meter:
            // Token-bucket policing, same semantics as the userspace
            // datapath (kern/meter.h).
            if (!meters_.admit(act.meter_id, pkt.size(), now_)) {
                --recursion_;
                return;
            }
            break;
        case OdpAction::Type::Userspace:
            if (upcall_) {
                const net::FlowKey key = net::parse_flow(pkt);
                upcall_(pkt.meta().in_port, std::move(pkt), key, ctx);
            }
            --recursion_;
            return;
        case OdpAction::Type::Drop:
            --recursion_;
            return;
        }
    }
    --recursion_;
}

} // namespace ovsx::kern
