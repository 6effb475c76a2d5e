// ofproto: the OpenFlow-speaking control layer of ovs-vswitchd.
//
// Holds the multi-table rule pipeline (NSX installs ~103k rules across
// ~40 tables — Table 3), classifies upcalled packets through it, and
// translates ("xlate") the matched action chain into flat datapath
// actions plus a megaflow wildcard mask — the union of every mask
// probed, so the installed cache entry is exactly as wildcarded as the
// decision that produced it. Subtables are probed in descending order
// of their highest rule priority and the probe stops once no remaining
// subtable can beat the match (tuple priority sorting), so a
// high-priority hit leaves the lower subtables' fields wildcarded.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "kern/odp.h"
#include "net/flow.h"
#include "net/tunnel_key.h"

namespace ovsx::ovs {

struct Match {
    net::FlowKey key;
    net::FlowMask mask;

    // The masked key (computed on construction of the rule).
    net::FlowKey masked() const { return mask.apply(key); }
};

struct OfAction {
    enum class Type {
        Output,     // forward to OpenFlow port
        SetField,
        PushVlan,
        PopVlan,
        SetTunnel,
        Ct,         // conntrack, then recirculate into `ct_table`
        GotoTable,
        Meter,
        Controller, // punt to the controller (odp Userspace)
        Drop,
    };

    Type type = Type::Drop;
    std::uint32_t port = 0;
    net::FlowKey set_value;
    net::FlowMask set_mask;
    std::uint16_t vlan_tci = 0;
    net::TunnelKey tunnel;
    kern::CtSpec ct;
    int ct_table = -1; // table to resume in after ct recirculation
    std::uint8_t table = 0;
    std::uint32_t meter_id = 0;

    static OfAction output(std::uint32_t port);
    static OfAction set_field(const net::FlowKey& v, const net::FlowMask& m);
    static OfAction push_vlan(std::uint16_t tci);
    static OfAction pop_vlan();
    static OfAction set_tunnel(const net::TunnelKey& key);
    static OfAction conntrack(const kern::CtSpec& spec, int recirc_table);
    static OfAction goto_table(std::uint8_t table);
    static OfAction meter(std::uint32_t id);
    static OfAction controller();
    static OfAction drop();
};

struct OfRule {
    std::uint8_t table = 0;
    std::int32_t priority = 0;
    Match match;
    std::vector<OfAction> actions;
    std::uint64_t cookie = 0;
    mutable std::uint64_t n_matched = 0; // xlate hits
};

// Result of translating one flow through the pipeline.
struct XlateResult {
    kern::OdpActions actions;
    net::FlowMask wildcards;  // fields the decision depended on
    int tables_visited = 0;
    int rules_matched = 0;
    bool dropped = false;
};

class Ofproto {
public:
    Ofproto();

    // ---- rule management ---------------------------------------------
    void add_rule(OfRule rule);
    std::size_t rule_count() const { return rule_count_; }
    std::size_t table_count() const; // tables with at least one rule
    // Distinct fields matched across all rules (Table 3's "matching
    // fields among all rules" statistic).
    int distinct_match_fields() const;
    void clear();

    // ---- translation ------------------------------------------------------
    // Classifies `key` starting at table 0 (or at the resume point for
    // recirculated keys, identified by key.recirc_id) and returns the
    // flattened datapath actions + wildcards.
    XlateResult xlate(const net::FlowKey& key) const;

    // Number of distinct recirculation ids handed out.
    std::size_t recirc_ids() const { return recirc_resume_.size(); }

    std::uint64_t xlate_count() const { return xlate_count_; }

private:
    struct Subtable {
        net::FlowMask mask;
        std::unordered_map<std::uint64_t, std::vector<const OfRule*>> rules;
        std::int32_t max_priority = 0; // highest priority of any rule here
        std::size_t created = 0;       // creation index within the table
    };

    struct Table {
        // Sorted by max_priority, descending; among equal max_priority
        // the subtable created first is probed first.
        std::vector<Subtable> subtables;
        std::size_t n_rules = 0;
    };

    const OfRule* classify(const Table& table, const net::FlowKey& key,
                           net::FlowMask* wildcards) const;
    std::uint32_t recirc_id_for(std::uint8_t resume_table, std::uint16_t zone) const;

    std::vector<std::unique_ptr<OfRule>> rules_;
    std::map<std::uint8_t, Table> tables_;
    std::size_t rule_count_ = 0;
    mutable std::map<std::pair<std::uint8_t, std::uint16_t>, std::uint32_t> recirc_alloc_;
    mutable std::map<std::uint32_t, std::uint8_t> recirc_resume_; // id -> resume table
    mutable std::uint32_t next_recirc_id_ = 1;
    mutable std::uint64_t xlate_count_ = 0;
};

} // namespace ovsx::ovs
