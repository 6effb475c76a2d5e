// ODP ("Open vSwitch datapath") actions: the flat action language both
// datapaths execute — the kernel module (dpif-kernel baseline) and the
// userspace datapath (dpif-netdev). ofproto compiles OpenFlow actions
// down to these.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/flow.h"
#include "net/tunnel_key.h"

namespace ovsx::kern {

// NAT half of a ct() action: ct(commit,nat(src=ip:min-max)) and the
// dst= equivalent. Both conntrack implementations (kern/conntrack.h and
// ovs/ct.h) honor it with identical semantics — the differential
// harness diffs their end state entry by entry.
struct NatSpec {
    bool enabled = false;
    bool snat = false;          // true = SNAT (rewrite source), false = DNAT
    std::uint32_t ip = 0;       // translated address (0 = keep original)
    std::uint16_t port_min = 0; // 0 = keep the original port
    std::uint16_t port_max = 0; // 0 = exactly port_min (no range)

    friend bool operator==(const NatSpec&, const NatSpec&) = default;

    static NatSpec src(std::uint32_t ip, std::uint16_t port_min = 0, std::uint16_t port_max = 0)
    {
        return {true, true, ip, port_min, port_max};
    }
    static NatSpec dst(std::uint32_t ip, std::uint16_t port_min = 0, std::uint16_t port_max = 0)
    {
        return {true, false, ip, port_min, port_max};
    }
};

struct CtSpec {
    std::uint16_t zone = 0;
    bool commit = false;
    bool set_mark = false; // ct(commit,mark=M): store M on the connection
    std::uint32_t mark = 0;
    NatSpec nat;

    friend bool operator==(const CtSpec&, const CtSpec&) = default;
};

struct OdpAction {
    enum class Type {
        Output,    // forward out of datapath port `port`
        PushVlan,  // push 802.1Q tag `vlan_tci`
        PopVlan,
        SetField,  // masked header rewrite (set_value/set_mask)
        SetTunnel, // stage tunnel metadata for a subsequent tunnel-port Output
        Ct,        // run connection tracking, then continue
        Recirc,    // re-run the pipeline with recirc_id
        Meter,     // police through meter `meter_id`, may drop
        Userspace, // punt to userspace (controller / slow path)
        Drop,
    };

    Type type = Type::Drop;
    std::uint32_t port = 0;
    std::uint16_t vlan_tci = 0;
    net::FlowKey set_value;
    net::FlowMask set_mask;
    net::TunnelKey tunnel;
    CtSpec ct;
    std::uint32_t recirc_id = 0;
    std::uint32_t meter_id = 0;

    static OdpAction output(std::uint32_t port)
    {
        OdpAction a;
        a.type = Type::Output;
        a.port = port;
        return a;
    }
    static OdpAction push_vlan(std::uint16_t tci)
    {
        OdpAction a;
        a.type = Type::PushVlan;
        a.vlan_tci = tci;
        return a;
    }
    static OdpAction pop_vlan()
    {
        OdpAction a;
        a.type = Type::PopVlan;
        return a;
    }
    static OdpAction set_field(const net::FlowKey& value, const net::FlowMask& mask)
    {
        OdpAction a;
        a.type = Type::SetField;
        a.set_value = value;
        a.set_mask = mask;
        return a;
    }
    static OdpAction set_tunnel(const net::TunnelKey& key)
    {
        OdpAction a;
        a.type = Type::SetTunnel;
        a.tunnel = key;
        return a;
    }
    static OdpAction conntrack(const CtSpec& spec)
    {
        OdpAction a;
        a.type = Type::Ct;
        a.ct = spec;
        return a;
    }
    static OdpAction recirc(std::uint32_t id)
    {
        OdpAction a;
        a.type = Type::Recirc;
        a.recirc_id = id;
        return a;
    }
    static OdpAction meter(std::uint32_t id)
    {
        OdpAction a;
        a.type = Type::Meter;
        a.meter_id = id;
        return a;
    }
    static OdpAction userspace()
    {
        OdpAction a;
        a.type = Type::Userspace;
        return a;
    }
    static OdpAction drop()
    {
        OdpAction a;
        a.type = Type::Drop;
        return a;
    }

    std::string to_string() const;
};

using OdpActions = std::vector<OdpAction>;

std::string actions_to_string(const OdpActions& actions);

// One installed datapath flow, as dumped for end-state comparison
// (OVS_FLOW_CMD_DUMP equivalent). `key` is already masked.
struct OdpFlowEntry {
    net::FlowKey key;
    net::FlowMask mask;
    OdpActions actions;

    // Canonical form for cross-datapath diffing and sorting.
    std::string to_string() const
    {
        return "key{" + key.to_string() + "} mask{" + mask.bits.to_string() +
               "} actions{" + actions_to_string(actions) + "}";
    }
};

} // namespace ovsx::kern
