#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "kern/kernel.h"
#include "net/builder.h"
#include "net/headers.h"
#include "nsx/nsx.h"
#include "ovs/dpif_netdev.h"
#include "ovs/ofproto.h"
#include "ovs/vswitch.h"
#include "sim/rng.h"

namespace ovsx::ovs {
namespace {

using net::ipv4;

net::FlowKey udp_key(std::uint32_t in_port, std::uint16_t dport = 2000,
                     std::uint32_t dst = ipv4(10, 0, 0, 2))
{
    net::UdpSpec spec;
    spec.src_ip = ipv4(10, 0, 0, 1);
    spec.dst_ip = dst;
    spec.src_port = 1000;
    spec.dst_port = dport;
    net::Packet p = net::build_udp(spec);
    p.meta().in_port = in_port;
    return net::parse_flow(p);
}

Match match_in_port(std::uint32_t port)
{
    Match m;
    m.key.in_port = port;
    m.mask.bits.in_port = 0xffffffff;
    return m;
}

TEST(Ofproto, SingleTableOutput)
{
    Ofproto of;
    of.add_rule({.table = 0, .priority = 10, .match = match_in_port(1),
                 .actions = {OfAction::output(2)}});
    const auto res = of.xlate(udp_key(1));
    ASSERT_EQ(res.actions.size(), 1u);
    EXPECT_EQ(res.actions[0].type, kern::OdpAction::Type::Output);
    EXPECT_EQ(res.actions[0].port, 2u);
    EXPECT_FALSE(res.dropped);
    EXPECT_EQ(res.tables_visited, 1);
}

TEST(Ofproto, PriorityWins)
{
    Ofproto of;
    of.add_rule({.table = 0, .priority = 1, .match = match_in_port(1),
                 .actions = {OfAction::output(2)}});
    Match specific = match_in_port(1);
    specific.key.tp_dst = 2000;
    specific.mask.bits.tp_dst = 0xffff;
    of.add_rule({.table = 0, .priority = 100, .match = specific,
                 .actions = {OfAction::output(9)}});

    EXPECT_EQ(of.xlate(udp_key(1, 2000)).actions[0].port, 9u);
    EXPECT_EQ(of.xlate(udp_key(1, 53)).actions[0].port, 2u);
}

TEST(Ofproto, NoMatchDrops)
{
    Ofproto of;
    of.add_rule({.table = 0, .priority = 10, .match = match_in_port(1),
                 .actions = {OfAction::output(2)}});
    const auto res = of.xlate(udp_key(5));
    EXPECT_TRUE(res.dropped);
    EXPECT_TRUE(res.actions.empty());
}

TEST(Ofproto, GotoTableChains)
{
    Ofproto of;
    of.add_rule({.table = 0, .priority = 10, .match = match_in_port(1),
                 .actions = {OfAction::push_vlan(7), OfAction::goto_table(5)}});
    Match any; // match-all
    of.add_rule({.table = 5, .priority = 0, .match = any,
                 .actions = {OfAction::output(3)}});

    const auto res = of.xlate(udp_key(1));
    ASSERT_EQ(res.actions.size(), 2u);
    EXPECT_EQ(res.actions[0].type, kern::OdpAction::Type::PushVlan);
    EXPECT_EQ(res.actions[1].port, 3u);
    EXPECT_EQ(res.tables_visited, 2);
}

TEST(Ofproto, WildcardsCoverProbedMasks)
{
    Ofproto of;
    // Table 0 has two masks: in_port-only and in_port+dport.
    of.add_rule({.table = 0, .priority = 1, .match = match_in_port(1),
                 .actions = {OfAction::output(2)}});
    Match specific = match_in_port(1);
    specific.key.tp_dst = 443;
    specific.mask.bits.tp_dst = 0xffff;
    of.add_rule({.table = 0, .priority = 100, .match = specific,
                 .actions = {OfAction::drop()}});

    // A packet to dport 2000 matches the broad rule, but the cache entry
    // must still be specific on tp_dst (else a 443 packet would hit it).
    const auto res = of.xlate(udp_key(1, 2000));
    EXPECT_EQ(res.actions[0].port, 2u);
    EXPECT_EQ(res.wildcards.bits.tp_dst, 0xffff);
    EXPECT_EQ(res.wildcards.bits.in_port, 0xffffffffu);
}

TEST(Ofproto, HigherPrioritySubtableHitLeavesLowerMasksWildcarded)
{
    Ofproto of;
    // Added low priority first: the probe order follows priority, not
    // insertion, so the tp_dst subtable is never reached.
    Match specific = match_in_port(1);
    specific.key.tp_dst = 443;
    specific.mask.bits.tp_dst = 0xffff;
    of.add_rule({.table = 0, .priority = 1, .match = specific,
                 .actions = {OfAction::drop()}});
    of.add_rule({.table = 0, .priority = 100, .match = match_in_port(1),
                 .actions = {OfAction::output(2)}});

    const auto res = of.xlate(udp_key(1, 443));
    ASSERT_EQ(res.actions.size(), 1u);
    EXPECT_EQ(res.actions[0].port, 2u);
    EXPECT_EQ(res.wildcards.bits.tp_dst, 0);
    EXPECT_EQ(res.wildcards.bits.in_port, 0xffffffffu);
}

// ---- classifier properties on a random multi-table ruleset ------------

// Rules over a handful of mask shapes, with key values from small pools
// so that masks overlap and most keys match something. Priorities are
// distinct within a table (no ties), and every rule outputs to its own
// port, so the output sequence names the rule chosen in each table.
struct RandomRuleset {
    static constexpr int kTables = 4;
    static constexpr int kRulesPerTable = 40;

    explicit RandomRuleset(std::uint64_t seed) : rng(seed)
    {
        for (int t = 0; t < kTables; ++t) {
            std::vector<std::int32_t> prio(kRulesPerTable);
            for (int i = 0; i < kRulesPerTable; ++i) prio[static_cast<std::size_t>(i)] = 1 + 3 * i;
            for (std::size_t i = prio.size() - 1; i > 0; --i) {
                std::swap(prio[i], prio[rng.below(i + 1)]);
            }
            for (int i = 0; i < kRulesPerTable; ++i) {
                OfRule rule;
                rule.table = static_cast<std::uint8_t>(t);
                rule.priority = prio[static_cast<std::size_t>(i)];
                rule.match.mask = random_mask();
                rule.match.key = random_key();
                rule.actions.push_back(OfAction::output(static_cast<std::uint32_t>(100 * t + i)));
                if (t + 1 < kTables && rng.below(2) == 0) {
                    const auto next = t + 1 + static_cast<int>(rng.below(
                                                  static_cast<std::uint64_t>(kTables - t - 1)));
                    rule.actions.push_back(OfAction::goto_table(static_cast<std::uint8_t>(next)));
                }
                rules.push_back(rule);
                of.add_rule(rule);
            }
        }
    }

    net::FlowMask random_mask()
    {
        net::FlowMask m;
        switch (rng.below(6)) {
        case 0: m.bits.in_port = 0xffffffff; break;
        case 1: m.bits.nw_src = 0xff000000; break;
        case 2: m.bits.nw_src = 0xffffff00; m.bits.tp_dst = 0xffff; break;
        case 3: m.bits.nw_dst = 0xffffffff; m.bits.nw_proto = 0xff; break;
        case 4: m.bits.in_port = 0xffffffff; m.bits.tcp_flags = 0x02; break;
        default: m.bits.tp_dst = 0xffff; m.bits.nw_proto = 0xff; break;
        }
        return m;
    }

    net::FlowKey random_key()
    {
        net::FlowKey k;
        k.in_port = 1 + static_cast<std::uint32_t>(rng.below(3));
        k.nw_src = ipv4(10, static_cast<std::uint8_t>(rng.below(3)), 0,
                        static_cast<std::uint8_t>(rng.below(4)));
        k.nw_dst = ipv4(20, 0, 0, static_cast<std::uint8_t>(rng.below(4)));
        k.nw_proto = rng.below(2) ? 6 : 17;
        k.tp_dst = static_cast<std::uint16_t>(80 + rng.below(3));
        k.tcp_flags = static_cast<std::uint8_t>(rng.below(2) ? 0x02 : 0x10);
        return k;
    }

    // Exhaustive reference: the highest-priority matching rule of each
    // table, found by scanning every rule; ports in visit order.
    std::vector<std::uint32_t> reference(const net::FlowKey& key, bool* dropped) const
    {
        std::vector<std::uint32_t> ports;
        int table = 0;
        *dropped = false;
        for (;;) {
            const OfRule* best = nullptr;
            for (const OfRule& r : rules) {
                if (r.table == table && r.match.mask.same_masked(key, r.match.key) &&
                    (!best || r.priority > best->priority)) {
                    best = &r;
                }
            }
            if (!best) {
                *dropped = true;
                return ports;
            }
            ports.push_back(best->actions[0].port);
            if (best->actions.size() == 1) return ports;
            table = best->actions[1].table;
        }
    }

    sim::Rng rng;
    std::vector<OfRule> rules;
    Ofproto of;
};

// `key` with every bit outside `wildcards` taken from `other`.
net::FlowKey perturb_outside(const net::FlowKey& key, const net::FlowMask& wildcards,
                             const net::FlowKey& other)
{
    net::FlowKey out = key;
    auto* o = reinterpret_cast<std::uint8_t*>(&out);
    const auto* w = reinterpret_cast<const std::uint8_t*>(&wildcards.bits);
    const auto* x = reinterpret_cast<const std::uint8_t*>(&other);
    for (std::size_t i = 0; i < sizeof out; ++i) {
        o[i] = static_cast<std::uint8_t>((o[i] & w[i]) | (x[i] & ~w[i]));
    }
    return out;
}

TEST(OfprotoProperty, EarlyExitPicksTheExhaustiveScanRule)
{
    RandomRuleset rs(11);
    int matched = 0;
    for (int i = 0; i < 4000; ++i) {
        const net::FlowKey key = rs.random_key();
        bool dropped = false;
        const std::vector<std::uint32_t> want = rs.reference(key, &dropped);
        const XlateResult res = rs.of.xlate(key);
        std::vector<std::uint32_t> got;
        for (const auto& a : res.actions) got.push_back(a.port);
        ASSERT_EQ(got, want) << key.to_string();
        ASSERT_EQ(res.dropped, dropped || want.empty()) << key.to_string();
        matched += want.empty() ? 0 : 1;
    }
    EXPECT_GT(matched, 2000); // the key pools keep the ruleset busy
}

TEST(OfprotoProperty, WildcardedBitsNeverChangeTheTranslation)
{
    RandomRuleset rs(12);
    for (int i = 0; i < 2000; ++i) {
        const net::FlowKey key = rs.random_key();
        const XlateResult res = rs.of.xlate(key);
        for (int j = 0; j < 8; ++j) {
            // Half the donors are keys the rules were drawn from, half
            // are random bytes.
            net::FlowKey donor = rs.random_key();
            if (j % 2) {
                auto* d = reinterpret_cast<std::uint8_t*>(&donor);
                for (std::size_t b = 0; b < sizeof donor; ++b) d[b] = static_cast<std::uint8_t>(rs.rng.u32());
            }
            const net::FlowKey moved = perturb_outside(key, res.wildcards, donor);
            const XlateResult again = rs.of.xlate(moved);
            ASSERT_EQ(kern::actions_to_string(again.actions), kern::actions_to_string(res.actions))
                << key.to_string() << " vs " << moved.to_string();
            ASSERT_EQ(again.dropped, res.dropped) << key.to_string();
        }
    }
}

// ---- megaflow soundness on the NSX ruleset -------------------------------

// Keys drawn from the values the NSX ruleset matches on (ports, VNIs,
// VTEPs, MACs, allowed and ACL prefixes, the field-coverage values).
net::FlowKey nsx_key(const nsx::NsxConfig& cfg, sim::Rng& rng)
{
    auto pick = [&](std::initializer_list<std::uint32_t> v) {
        return *(v.begin() + rng.below(v.size()));
    };
    net::FlowKey k;
    k.in_port = pick({1, 2, cfg.tunnel_of_port, 99});
    k.tun_id = pick({0, 5001, 5002, 5003, 5004, 5005});
    k.tun_src = rng.below(2) ? 0 : cfg.remote_vteps[rng.below(cfg.remote_vteps.size())];
    k.tun_dst = rng.below(2) ? 0 : cfg.local_vtep_ip;
    k.ct_state = static_cast<std::uint8_t>(
        pick({0, net::kCtStateTracked | net::kCtStateNew,
              net::kCtStateTracked | net::kCtStateEstablished,
              net::kCtStateTracked | net::kCtStateInvalid,
              net::kCtStateTracked | net::kCtStateRelated}));
    k.ct_zone = static_cast<std::uint16_t>(
        pick({0, 7, nsx::NsxAgent::zone_for_vni(5001), nsx::NsxAgent::zone_for_vni(5003)}));
    k.ct_mark = pick({0, 1});
    k.dl_src = rng.below(8) ? net::MacAddr::from_id(0x100) : net::MacAddr(0xde, 0xad, 0, 0, 0, 1);
    k.dl_dst = rng.below(8) ? cfg.vms[rng.below(cfg.vms.size())].mac : net::MacAddr::broadcast();
    k.dl_type = static_cast<std::uint16_t>(pick({0x0800, 0x0800, 0x86dd}));
    k.vlan_tci = static_cast<std::uint16_t>(rng.below(8) ? 0 : 0x1fa0);
    k.nw_src = pick({ipv4(10, 1, 0, 10), ipv4(48, 0, 3, 1), ipv4(16, 0, 0, 5),
                     ipv4(192, 168, 1, 1), ipv4(169, 254, 9, 9), ipv4(203, 0, 113, 9),
                     0x60000000u | (rng.u32() % 0x10000000u)});
    k.nw_dst = pick({ipv4(10, 1, 0, 11), ipv4(16, 0, 0, 1),
                     0x70000000u | (rng.u32() % 0x10000000u)});
    k.nw_proto = static_cast<std::uint8_t>(pick({6, 17, 1}));
    k.nw_tos = static_cast<std::uint8_t>(rng.below(8) ? 0 : 0xb8);
    k.nw_ttl = static_cast<std::uint8_t>(rng.below(8) ? 64 : 1);
    k.nw_frag = static_cast<std::uint8_t>(rng.below(8) ? 0 : net::kFragAny);
    k.ipv6_src.bytes[0] = static_cast<std::uint8_t>(rng.below(2) ? 0 : 0xfd);
    k.ipv6_dst.bytes[0] = static_cast<std::uint8_t>(rng.below(2) ? 0 : 0xfd);
    k.tp_src = static_cast<std::uint16_t>(rng.below(4) ? 1024 + rng.below(100) : 68);
    k.tp_dst = static_cast<std::uint16_t>(rng.below(2) ? 7777 : rng.u16());
    k.tcp_flags = static_cast<std::uint8_t>(pick({0, net::kTcpSyn, net::kTcpAck}));
    k.icmp_type = static_cast<std::uint8_t>(pick({0, 8}));
    return k;
}

TEST(OfprotoProperty, NsxRulesetWildcardsAreSound)
{
    // The same soundness check over a 20k-rule NSX ruleset, following
    // recirculation through all three passes. Translation needs no
    // datapath ports, so the config just names some.
    kern::Kernel host("host");
    VSwitch vswitch(std::make_unique<DpifNetdev>(host));
    nsx::NsxConfig cfg = nsx::make_production_config(ipv4(172, 16, 0, 1), /*tunnel_of_port=*/3,
                                                     {1, 2}, /*local_vm_count=*/1);
    cfg.target_rules = 20000;
    nsx::NsxAgent agent(vswitch, cfg);
    agent.deploy();
    const Ofproto& of = vswitch.ofproto();
    sim::Rng rng(2021);
    int recirculated = 0;
    for (int i = 0; i < 3000; ++i) {
        net::FlowKey key = nsx_key(cfg, rng);
        for (int pass = 0; pass < 3; ++pass) {
            const XlateResult res = of.xlate(key);
            for (int j = 0; j < 6; ++j) {
                const net::FlowKey moved = perturb_outside(key, res.wildcards, nsx_key(cfg, rng));
                const XlateResult again = of.xlate(moved);
                ASSERT_EQ(kern::actions_to_string(again.actions),
                          kern::actions_to_string(res.actions))
                    << key.to_string() << " vs " << moved.to_string();
                ASSERT_EQ(again.dropped, res.dropped) << key.to_string();
            }
            if (res.actions.empty() || res.actions.back().type != kern::OdpAction::Type::Recirc) {
                break;
            }
            // Next pass: the recirculated key with a conntrack verdict.
            ++recirculated;
            key.recirc_id = res.actions.back().recirc_id;
            key.ct_state = nsx_key(cfg, rng).ct_state;
            key.ct_zone = res.actions[res.actions.size() - 2].ct.zone;
        }
    }
    EXPECT_GT(recirculated, 500);
}

TEST(Ofproto, CtRecirculationSplitsTranslation)
{
    Ofproto of;
    kern::CtSpec ct{.zone = 7, .commit = false};
    of.add_rule({.table = 0, .priority = 10, .match = match_in_port(1),
                 .actions = {OfAction::conntrack(ct, /*recirc_table=*/4)}});
    Match est;
    est.key.ct_state = net::kCtStateTracked | net::kCtStateEstablished;
    est.mask.bits.ct_state = 0xff;
    of.add_rule({.table = 4, .priority = 10, .match = est,
                 .actions = {OfAction::output(8)}});

    // First pass ends in ct+recirc.
    const auto pass1 = of.xlate(udp_key(1));
    ASSERT_EQ(pass1.actions.size(), 2u);
    EXPECT_EQ(pass1.actions[0].type, kern::OdpAction::Type::Ct);
    EXPECT_EQ(pass1.actions[1].type, kern::OdpAction::Type::Recirc);
    const std::uint32_t rid = pass1.actions[1].recirc_id;
    EXPECT_NE(rid, 0u);
    EXPECT_EQ(of.recirc_ids(), 1u);

    // Second pass resumes at table 4 with ct_state set.
    net::FlowKey key2 = udp_key(1);
    key2.recirc_id = rid;
    key2.ct_state = net::kCtStateTracked | net::kCtStateEstablished;
    const auto pass2 = of.xlate(key2);
    ASSERT_EQ(pass2.actions.size(), 1u);
    EXPECT_EQ(pass2.actions[0].port, 8u);

    // Unknown recirc id drops.
    net::FlowKey key3 = udp_key(1);
    key3.recirc_id = 0xdead;
    EXPECT_TRUE(of.xlate(key3).dropped);
}

TEST(Ofproto, RecircIdsAreReusedPerResumePoint)
{
    Ofproto of;
    kern::CtSpec ct{.zone = 7, .commit = false};
    of.add_rule({.table = 0, .priority = 10, .match = match_in_port(1),
                 .actions = {OfAction::conntrack(ct, 4)}});
    const auto a = of.xlate(udp_key(1, 1111));
    const auto b = of.xlate(udp_key(1, 2222));
    EXPECT_EQ(a.actions[1].recirc_id, b.actions[1].recirc_id);
    EXPECT_EQ(of.recirc_ids(), 1u);
}

TEST(Ofproto, SetFieldAffectsLaterTables)
{
    Ofproto of;
    net::FlowKey rewrite;
    rewrite.nw_dst = ipv4(99, 0, 0, 1);
    net::FlowMask rmask;
    rmask.bits.nw_dst = 0xffffffff;
    of.add_rule({.table = 0, .priority = 10, .match = match_in_port(1),
                 .actions = {OfAction::set_field(rewrite, rmask), OfAction::goto_table(1)}});
    Match rewritten;
    rewritten.key.nw_dst = ipv4(99, 0, 0, 1);
    rewritten.mask.bits.nw_dst = 0xffffffff;
    of.add_rule({.table = 1, .priority = 10, .match = rewritten,
                 .actions = {OfAction::output(5)}});

    const auto res = of.xlate(udp_key(1)); // original dst 10.0.0.2
    ASSERT_EQ(res.actions.size(), 2u);
    EXPECT_EQ(res.actions[1].port, 5u);
}

TEST(Ofproto, StatsAndInventory)
{
    Ofproto of;
    of.add_rule({.table = 0, .priority = 1, .match = match_in_port(1),
                 .actions = {OfAction::output(1)}});
    Match m2 = match_in_port(2);
    m2.key.nw_dst = ipv4(1, 2, 3, 4);
    m2.mask.bits.nw_dst = 0xffffffff;
    of.add_rule({.table = 3, .priority = 1, .match = m2, .actions = {OfAction::output(1)}});

    EXPECT_EQ(of.rule_count(), 2u);
    EXPECT_EQ(of.table_count(), 2u);
    EXPECT_EQ(of.distinct_match_fields(), 2); // in_port, nw_dst
    of.xlate(udp_key(1));
    EXPECT_EQ(of.xlate_count(), 1u);
    of.clear();
    EXPECT_EQ(of.rule_count(), 0u);
}

TEST(Ofproto, ControllerAndMeterTranslate)
{
    Ofproto of;
    of.add_rule({.table = 0, .priority = 10, .match = match_in_port(1),
                 .actions = {OfAction::meter(3), OfAction::controller()}});
    const auto res = of.xlate(udp_key(1));
    ASSERT_EQ(res.actions.size(), 2u);
    EXPECT_EQ(res.actions[0].type, kern::OdpAction::Type::Meter);
    EXPECT_EQ(res.actions[1].type, kern::OdpAction::Type::Userspace);
}

} // namespace
} // namespace ovsx::ovs
