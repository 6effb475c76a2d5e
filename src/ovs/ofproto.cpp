#include "ovs/ofproto.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <set>

namespace ovsx::ovs {

OfAction OfAction::output(std::uint32_t port)
{
    OfAction a;
    a.type = Type::Output;
    a.port = port;
    return a;
}
OfAction OfAction::set_field(const net::FlowKey& v, const net::FlowMask& m)
{
    OfAction a;
    a.type = Type::SetField;
    a.set_value = v;
    a.set_mask = m;
    return a;
}
OfAction OfAction::push_vlan(std::uint16_t tci)
{
    OfAction a;
    a.type = Type::PushVlan;
    a.vlan_tci = tci;
    return a;
}
OfAction OfAction::pop_vlan()
{
    OfAction a;
    a.type = Type::PopVlan;
    return a;
}
OfAction OfAction::set_tunnel(const net::TunnelKey& key)
{
    OfAction a;
    a.type = Type::SetTunnel;
    a.tunnel = key;
    return a;
}
OfAction OfAction::conntrack(const kern::CtSpec& spec, int recirc_table)
{
    OfAction a;
    a.type = Type::Ct;
    a.ct = spec;
    a.ct_table = recirc_table;
    return a;
}
OfAction OfAction::goto_table(std::uint8_t table)
{
    OfAction a;
    a.type = Type::GotoTable;
    a.table = table;
    return a;
}
OfAction OfAction::meter(std::uint32_t id)
{
    OfAction a;
    a.type = Type::Meter;
    a.meter_id = id;
    return a;
}
OfAction OfAction::controller()
{
    OfAction a;
    a.type = Type::Controller;
    return a;
}
OfAction OfAction::drop()
{
    OfAction a;
    a.type = Type::Drop;
    return a;
}

Ofproto::Ofproto() = default;

void Ofproto::add_rule(OfRule rule)
{
    auto owned = std::make_unique<OfRule>(std::move(rule));
    const OfRule* ptr = owned.get();
    Table& table = tables_[ptr->table];
    auto sub = std::find_if(table.subtables.begin(), table.subtables.end(),
                            [&](const Subtable& s) { return s.mask == ptr->match.mask; });
    bool reorder = false;
    if (sub == table.subtables.end()) {
        table.subtables.push_back(Subtable{.mask = ptr->match.mask,
                                           .rules = {},
                                           .max_priority = ptr->priority,
                                           .created = table.subtables.size()});
        sub = std::prev(table.subtables.end());
        reorder = true;
    } else if (ptr->priority > sub->max_priority) {
        sub->max_priority = ptr->priority;
        reorder = true;
    }
    sub->rules[ptr->match.masked().hash()].push_back(ptr);
    if (reorder) {
        std::sort(table.subtables.begin(), table.subtables.end(),
                  [](const Subtable& a, const Subtable& b) {
                      if (a.max_priority != b.max_priority) {
                          return a.max_priority > b.max_priority;
                      }
                      return a.created < b.created;
                  });
    }
    ++table.n_rules;
    ++rule_count_;
    rules_.push_back(std::move(owned));
}

std::size_t Ofproto::table_count() const
{
    std::size_t n = 0;
    for (const auto& [id, table] : tables_) {
        if (table.n_rules > 0) ++n;
    }
    return n;
}

int Ofproto::distinct_match_fields() const
{
    // Count FlowKey byte positions used by at least one rule's mask —
    // grouped into logical fields by known offsets is overkill; we count
    // distinct *fields* using a fixed field table.
    struct Field {
        std::size_t off;
        std::size_t len;
    };
    static const Field kFields[] = {
        {offsetof(net::FlowKey, tun_id), 8},   {offsetof(net::FlowKey, tun_src), 4},
        {offsetof(net::FlowKey, tun_dst), 4},  {offsetof(net::FlowKey, in_port), 4},
        {offsetof(net::FlowKey, recirc_id), 4},{offsetof(net::FlowKey, ct_mark), 4},
        {offsetof(net::FlowKey, ct_zone), 2},  {offsetof(net::FlowKey, ct_state), 1},
        {offsetof(net::FlowKey, dl_src), 6},   {offsetof(net::FlowKey, dl_dst), 6},
        {offsetof(net::FlowKey, dl_type), 2},  {offsetof(net::FlowKey, vlan_tci), 2},
        {offsetof(net::FlowKey, nw_src), 4},   {offsetof(net::FlowKey, nw_dst), 4},
        {offsetof(net::FlowKey, nw_proto), 1}, {offsetof(net::FlowKey, nw_tos), 1},
        {offsetof(net::FlowKey, nw_ttl), 1},   {offsetof(net::FlowKey, nw_frag), 1},
        {offsetof(net::FlowKey, ipv6_src), 16},{offsetof(net::FlowKey, ipv6_dst), 16},
        {offsetof(net::FlowKey, tp_src), 2},   {offsetof(net::FlowKey, tp_dst), 2},
        {offsetof(net::FlowKey, tcp_flags), 1},{offsetof(net::FlowKey, icmp_type), 1},
        {offsetof(net::FlowKey, icmp_code), 1},
    };
    std::set<std::size_t> used;
    for (const auto& rule : rules_) {
        const auto* m = reinterpret_cast<const std::uint8_t*>(&rule->match.mask.bits);
        for (const auto& f : kFields) {
            if (used.contains(f.off)) continue;
            for (std::size_t i = 0; i < f.len; ++i) {
                if (m[f.off + i]) {
                    used.insert(f.off);
                    break;
                }
            }
        }
    }
    return static_cast<int>(used.size());
}

void Ofproto::clear()
{
    rules_.clear();
    tables_.clear();
    rule_count_ = 0;
    recirc_alloc_.clear();
    recirc_resume_.clear();
}

const OfRule* Ofproto::classify(const Table& table, const net::FlowKey& key,
                                net::FlowMask* wildcards) const
{
    const OfRule* best = nullptr;
    for (const auto& sub : table.subtables) {
        // Subtables are sorted by max_priority, so no rule from here on
        // can beat `best` (ties go to the earlier one). The unprobed
        // masks stay out of the wildcards: whatever the packet holds in
        // those bits, the decision cannot change.
        if (best && sub.max_priority <= best->priority) break;
        // Every probed mask contributes to the wildcards: the cached
        // megaflow must be at least as specific as everything examined.
        auto* wc = reinterpret_cast<std::uint8_t*>(&wildcards->bits);
        const auto* sm = reinterpret_cast<const std::uint8_t*>(&sub.mask.bits);
        for (std::size_t i = 0; i < sizeof(net::FlowKey); i += sizeof(std::uint64_t)) {
            std::uint64_t w, s;
            std::memcpy(&w, wc + i, sizeof w);
            std::memcpy(&s, sm + i, sizeof s);
            w |= s;
            std::memcpy(wc + i, &w, sizeof w);
        }

        auto it = sub.rules.find(sub.mask.masked_hash(key));
        if (it == sub.rules.end()) continue;
        for (const OfRule* rule : it->second) {
            // All rules of a subtable share its mask, so comparing the
            // unmasked rule key under sub.mask is masked() == masked.
            if (sub.mask.same_masked(key, rule->match.key) &&
                (!best || rule->priority > best->priority)) {
                best = rule;
            }
        }
    }
    return best;
}

std::uint32_t Ofproto::recirc_id_for(std::uint8_t resume_table, std::uint16_t zone) const
{
    const auto key = std::make_pair(resume_table, zone);
    auto it = recirc_alloc_.find(key);
    if (it != recirc_alloc_.end()) return it->second;
    const std::uint32_t id = next_recirc_id_++;
    recirc_alloc_[key] = id;
    recirc_resume_[id] = resume_table;
    return id;
}

XlateResult Ofproto::xlate(const net::FlowKey& key) const
{
    ++xlate_count_;
    XlateResult res;
    // Decisions always depend on metadata.
    res.wildcards.bits.in_port = 0xffffffff;
    res.wildcards.bits.recirc_id = 0xffffffff;

    // Resume point for recirculated flows.
    std::uint8_t table_id = 0;
    if (key.recirc_id != 0) {
        auto it = recirc_resume_.find(key.recirc_id);
        if (it == recirc_resume_.end()) {
            res.dropped = true;
            return res;
        }
        table_id = it->second;
    }

    net::FlowKey working = key;
    int hops = 0;
    while (hops++ < 64) {
        auto tit = tables_.find(table_id);
        if (tit == tables_.end()) {
            res.dropped = true; // empty table: OpenFlow table-miss -> drop
            break;
        }
        ++res.tables_visited;
        const OfRule* rule = classify(tit->second, working, &res.wildcards);
        if (!rule) {
            res.dropped = true;
            break;
        }
        ++rule->n_matched;
        ++res.rules_matched;

        bool advanced = false;
        for (const OfAction& act : rule->actions) {
            switch (act.type) {
            case OfAction::Type::Output:
                res.actions.push_back(kern::OdpAction::output(act.port));
                break;
            case OfAction::Type::SetField:
                res.actions.push_back(kern::OdpAction::set_field(act.set_value, act.set_mask));
                working = [&] {
                    // Keep classifying against the rewritten fields.
                    net::FlowKey w = working;
                    const auto* v = reinterpret_cast<const std::uint8_t*>(&act.set_value);
                    const auto* m = reinterpret_cast<const std::uint8_t*>(&act.set_mask.bits);
                    auto* out = reinterpret_cast<std::uint8_t*>(&w);
                    for (std::size_t i = 0; i < sizeof(net::FlowKey); ++i) {
                        out[i] = static_cast<std::uint8_t>((out[i] & ~m[i]) | (v[i] & m[i]));
                    }
                    return w;
                }();
                break;
            case OfAction::Type::PushVlan:
                res.actions.push_back(kern::OdpAction::push_vlan(act.vlan_tci));
                working.vlan_tci = static_cast<std::uint16_t>(act.vlan_tci | 0x1000);
                break;
            case OfAction::Type::PopVlan:
                res.actions.push_back(kern::OdpAction::pop_vlan());
                working.vlan_tci = 0;
                break;
            case OfAction::Type::SetTunnel:
                res.actions.push_back(kern::OdpAction::set_tunnel(act.tunnel));
                break;
            case OfAction::Type::Ct: {
                res.actions.push_back(kern::OdpAction::conntrack(act.ct));
                if (act.ct_table >= 0) {
                    const std::uint32_t rid =
                        recirc_id_for(static_cast<std::uint8_t>(act.ct_table), act.ct.zone);
                    res.actions.push_back(kern::OdpAction::recirc(rid));
                    return res; // translation resumes on the recirculated upcall
                }
                break;
            }
            case OfAction::Type::GotoTable:
                table_id = act.table;
                advanced = true;
                break;
            case OfAction::Type::Meter:
                res.actions.push_back(kern::OdpAction::meter(act.meter_id));
                break;
            case OfAction::Type::Controller:
                res.actions.push_back(kern::OdpAction::userspace());
                break;
            case OfAction::Type::Drop:
                res.dropped = true;
                return res;
            }
            if (advanced) break;
        }
        if (!advanced) break; // no goto: pipeline ends here
    }
    if (res.actions.empty() && !res.dropped) res.dropped = true;
    return res;
}

} // namespace ovsx::ovs
