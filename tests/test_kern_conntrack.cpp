#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "gen/ct_corpus.h"
#include "kern/conntrack.h"
#include "net/headers.h"
#include "net/builder.h"

namespace ovsx::kern {
namespace {

using net::ipv4;

// One conntrack core, two profiles: every semantic case runs against
// both the kernel profile and the userspace datapath's profile, which
// may differ only in charged cost and observable names.
class ConntrackTest : public ::testing::TestWithParam<const CtProfile*> {
protected:
    net::Packet packet(std::uint32_t src, std::uint32_t dst, std::uint16_t sport,
                       std::uint16_t dport, std::uint8_t flags = net::kTcpAck)
    {
        net::TcpSpec spec;
        spec.src_ip = src;
        spec.dst_ip = dst;
        spec.src_port = sport;
        spec.dst_port = dport;
        spec.flags = flags;
        return net::build_tcp(spec);
    }

    std::uint8_t run(net::Packet& pkt, const CtSpec& spec, sim::Nanos now = 0)
    {
        return ct.process(pkt, net::parse_flow(pkt), spec, ctx, now);
    }

    std::uint8_t run(net::Packet& pkt, std::uint16_t zone, bool commit, sim::Nanos now = 0)
    {
        CtSpec spec;
        spec.zone = zone;
        spec.commit = commit;
        return run(pkt, spec, now);
    }

    static CtSpec commit_spec()
    {
        CtSpec spec;
        spec.commit = true;
        return spec;
    }

    Conntrack ct{*GetParam()};
    sim::ExecContext ctx{"softirq", sim::CpuClass::Softirq};
};

TEST_P(ConntrackTest, NewThenEstablished)
{
    auto p1 = packet(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 1000, 80, net::kTcpSyn);
    auto r1 = run(p1, 0, /*commit=*/true);
    EXPECT_TRUE(r1 & net::kCtStateTracked);
    EXPECT_TRUE(r1 & net::kCtStateNew);
    EXPECT_FALSE(r1 & net::kCtStateEstablished);
    EXPECT_EQ(ct.size(), 1u);

    auto p2 = packet(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 1000, 80);
    auto r2 = run(p2, 0, false);
    EXPECT_TRUE(r2 & net::kCtStateEstablished);
    EXPECT_FALSE(r2 & net::kCtStateNew);
    EXPECT_EQ(ct.size(), 1u); // same connection
}

TEST_P(ConntrackTest, ReplyDirectionIsRecognized)
{
    auto p1 = packet(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 1000, 80, net::kTcpSyn);
    run(p1, 0, true);
    auto p2 = packet(ipv4(2, 2, 2, 2), ipv4(1, 1, 1, 1), 80, 1000, net::kTcpSyn | net::kTcpAck);
    auto r2 = run(p2, 0, false);
    EXPECT_TRUE(r2 & net::kCtStateReply);
    EXPECT_TRUE(r2 & net::kCtStateEstablished);
    EXPECT_EQ(ct.size(), 1u);
}

TEST_P(ConntrackTest, UncommittedStaysNew)
{
    auto p1 = packet(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 1000, 80, net::kTcpSyn);
    run(p1, 0, /*commit=*/false);
    auto p2 = packet(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 1000, 80);
    auto r2 = run(p2, 0, false);
    // Without commit the connection is never confirmed -> still NEW.
    EXPECT_TRUE(r2 & net::kCtStateNew);
}

TEST_P(ConntrackTest, ZonesSeparateConnections)
{
    auto p1 = packet(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 1000, 80, net::kTcpSyn);
    run(p1, /*zone=*/1, true);
    auto p2 = packet(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 1000, 80, net::kTcpSyn);
    auto r2 = run(p2, /*zone=*/2, true);
    EXPECT_TRUE(r2 & net::kCtStateNew); // zone 2 has no such connection
    EXPECT_EQ(ct.size(), 2u);
    EXPECT_EQ(ct.zone_count(1), 1u);
    EXPECT_EQ(ct.zone_count(2), 1u);
}

TEST_P(ConntrackTest, ZoneLimitEnforced)
{
    // The per-zone connection limit feature the paper cites as a 600-line
    // kernel patch plus 700 lines of backports (§2.1.1).
    ct.set_zone_limit(5, 2);
    for (int i = 0; i < 2; ++i) {
        auto p = packet(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), static_cast<std::uint16_t>(1000 + i),
                        80, net::kTcpSyn);
        auto r = run(p, 5, true);
        EXPECT_TRUE(r & net::kCtStateNew);
    }
    auto p = packet(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 1002, 80, net::kTcpSyn);
    auto r = run(p, 5, true);
    EXPECT_TRUE(r & net::kCtStateInvalid);
    EXPECT_EQ(ct.zone_count(5), 2u);
    // Existing connections keep working.
    auto p2 = packet(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 1000, 80);
    EXPECT_TRUE(run(p2, 5, false) & net::kCtStateEstablished);
}

TEST_P(ConntrackTest, NonTrackableProtocolIsInvalid)
{
    net::Packet p = net::build_arp(true, net::MacAddr::from_id(1), ipv4(1, 1, 1, 1),
                                   net::MacAddr(), ipv4(2, 2, 2, 2));
    auto key = net::parse_flow(p);
    key.nw_proto = 47; // GRE
    auto r = ct.process(p, key, commit_spec(), ctx);
    EXPECT_TRUE(r & net::kCtStateInvalid);
    EXPECT_EQ(ct.size(), 0u);
}

TEST_P(ConntrackTest, LaterFragmentsAreInvalid)
{
    auto p = packet(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 1000, 80);
    auto key = net::parse_flow(p);
    key.nw_frag = net::kFragAny | net::kFragLater;
    auto r = ct.process(p, key, commit_spec(), ctx);
    EXPECT_TRUE(r & net::kCtStateInvalid);
}

TEST_P(ConntrackTest, ExpiryRemovesIdleConnections)
{
    auto p1 = packet(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 1000, 80, net::kTcpSyn);
    auto key = net::parse_flow(p1);
    run(p1, 0, true, /*now=*/100);
    auto p2 = packet(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 2000, 80, net::kTcpSyn);
    auto key2 = net::parse_flow(p2);
    run(p2, 0, true, /*now=*/5000);
    EXPECT_EQ(ct.size(), 2u);
    EXPECT_EQ(ct.expire_idle(/*cutoff=*/1000), 1u);
    EXPECT_EQ(ct.size(), 1u);
    EXPECT_EQ(ct.zone_count(0), 1u);
    // The expired tuple is gone from the index too.
    EXPECT_EQ(ct.find(CtTuple::from_key(key, 0)), nullptr);
    EXPECT_NE(ct.find(CtTuple::from_key(key2, 0)), nullptr);
}

TEST_P(ConntrackTest, MarkIsVisibleToSubsequentPackets)
{
    auto p1 = packet(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 1000, 80, net::kTcpSyn);
    run(p1, 0, true);
    // A later commit on the existing connection sets the mark...
    auto p2 = packet(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 1000, 80);
    CtSpec mark = commit_spec();
    mark.set_mark = true;
    mark.mark = 0xbeef;
    run(p2, mark);
    EXPECT_EQ(p2.meta().ct_mark, 0xbeefu);

    // ...and every packet after it, in either direction, carries it.
    auto p3 = packet(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 1000, 80);
    run(p3, 0, false);
    EXPECT_EQ(p3.meta().ct_mark, 0xbeefu);
    auto p4 = packet(ipv4(2, 2, 2, 2), ipv4(1, 1, 1, 1), 80, 1000);
    run(p4, 0, false);
    EXPECT_EQ(p4.meta().ct_mark, 0xbeefu);
}

TEST_P(ConntrackTest, MetadataWrittenToPacket)
{
    auto p = packet(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 1000, 80, net::kTcpSyn);
    run(p, 7, true);
    EXPECT_EQ(p.meta().ct_zone, 7);
    EXPECT_TRUE(p.meta().ct_state & net::kCtStateTracked);
}

TEST_P(ConntrackTest, RstMidHandshakeTearsDownEntry)
{
    auto seq = gen::ct_rst_mid_handshake();
    auto r1 = run(seq[0], 0, true); // SYN
    EXPECT_TRUE(r1 & net::kCtStateNew);
    EXPECT_EQ(ct.size(), 1u);

    auto r2 = run(seq[1], 0, false); // RST from the server
    EXPECT_TRUE(r2 & net::kCtStateReply);
    EXPECT_EQ(ct.size(), 0u); // entry gone

    auto r3 = run(seq[2], 0, true); // fresh SYN on the same tuple
    EXPECT_TRUE(r3 & net::kCtStateNew);
    EXPECT_FALSE(r3 & net::kCtStateEstablished);
    EXPECT_EQ(ct.size(), 1u);
}

TEST_P(ConntrackTest, RstOnUnknownTupleIsInvalid)
{
    auto p = packet(ipv4(9, 9, 9, 9), ipv4(8, 8, 8, 8), 5555, 80, net::kTcpRst);
    auto r = run(p, 0, false);
    EXPECT_TRUE(r & net::kCtStateInvalid);
    EXPECT_EQ(ct.size(), 0u);
}

TEST_P(ConntrackTest, IcmpErrorRelatedToTrackedConnection)
{
    auto seq = gen::ct_icmp_related();
    EXPECT_TRUE(run(seq[0], 0, true) & net::kCtStateNew); // the UDP datagram being cited

    auto r2 = run(seq[1], 0, false); // ICMP port-unreachable citing it
    EXPECT_TRUE(r2 & net::kCtStateRelated);
    EXPECT_FALSE(r2 & net::kCtStateNew);
    EXPECT_FALSE(r2 & net::kCtStateInvalid);
    // Related errors must not bump the cited connection's counters.
    const gen::CtCorpusTuple t;
    const auto* e = ct.find(CtTuple{t.client_ip, t.server_ip, t.client_port, t.server_port, 17, 0});
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->packets, 1u);
}

TEST_P(ConntrackTest, IcmpErrorCitingUnknownTupleIsInvalid)
{
    auto p = gen::ct_icmp_unrelated();
    auto r = run(p, 0, false);
    EXPECT_TRUE(r & net::kCtStateInvalid);
    EXPECT_FALSE(r & net::kCtStateRelated);
}

TEST_P(ConntrackTest, ExpiryUnderVirtualTime)
{
    auto p1 = packet(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 1000, 80, net::kTcpSyn);
    run(p1, 0, true, 1'000'000);
    auto p2 = packet(ipv4(3, 3, 3, 3), ipv4(4, 4, 4, 4), 1001, 80, net::kTcpSyn);
    run(p2, 0, true, 10'000'000);
    EXPECT_EQ(ct.size(), 2u);

    // Only the first connection is idle past the cutoff.
    EXPECT_EQ(ct.expire_idle(5'000'000), 1u);
    EXPECT_EQ(ct.size(), 1u);
    EXPECT_EQ(ct.zone_count(0), 1u);
    EXPECT_EQ(ct.expire_idle(20'000'000), 1u);
    EXPECT_TRUE(ct.snapshot().empty());
}

TEST_P(ConntrackTest, ExpiryAndFlush)
{
    for (std::uint16_t i = 0; i < 5; ++i) {
        auto p = packet(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), static_cast<std::uint16_t>(1000 + i),
                        80, net::kTcpSyn);
        run(p, 0, true, /*now=*/i * sim::kSecond);
    }
    EXPECT_EQ(ct.size(), 5u);
    EXPECT_EQ(ct.expire_idle(2 * sim::kSecond), 2u);
    EXPECT_EQ(ct.size(), 3u);
    ct.flush();
    EXPECT_EQ(ct.size(), 0u);
    EXPECT_EQ(ct.zone_count(0), 0u);
}

// ---- NAT ----------------------------------------------------------------

TEST_P(ConntrackTest, SnatRewritesAndUnNats)
{
    kern::CtSpec nat;
    nat.zone = 1;
    nat.commit = true;
    nat.nat = NatSpec::src(ipv4(5, 5, 5, 5));

    auto p1 = packet(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 1000, 80, net::kTcpSyn);
    ct.process(p1, net::parse_flow(p1), nat, ctx);
    EXPECT_EQ(net::parse_flow(p1).nw_src, ipv4(5, 5, 5, 5));
    EXPECT_TRUE(net::verify_l4_csum(p1, 14));

    // Reply arrives addressed to the NAT ip; conntrack restores it.
    kern::CtSpec check{.zone = 1, .commit = false};
    auto p2 = packet(ipv4(2, 2, 2, 2), ipv4(5, 5, 5, 5), 80, 1000, net::kTcpSyn | net::kTcpAck);
    const auto r = ct.process(p2, net::parse_flow(p2), check, ctx);
    EXPECT_TRUE(r & net::kCtStateReply);
    EXPECT_EQ(net::parse_flow(p2).nw_dst, ipv4(1, 1, 1, 1));
    EXPECT_TRUE(net::verify_l4_csum(p2, 14));
}

TEST_P(ConntrackTest, DnatRewritesDestination)
{
    kern::CtSpec nat;
    nat.zone = 2;
    nat.commit = true;
    nat.nat = NatSpec::dst(ipv4(10, 9, 9, 9), 8080);

    auto p1 = packet(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 1000, 80, net::kTcpSyn);
    ct.process(p1, net::parse_flow(p1), nat, ctx);
    const auto k1 = net::parse_flow(p1);
    EXPECT_EQ(k1.nw_dst, ipv4(10, 9, 9, 9));
    EXPECT_EQ(k1.tp_dst, 8080);

    kern::CtSpec check{.zone = 2, .commit = false};
    auto p2 = packet(ipv4(10, 9, 9, 9), ipv4(1, 1, 1, 1), 8080, 1000, net::kTcpAck);
    const auto r = ct.process(p2, net::parse_flow(p2), check, ctx);
    EXPECT_TRUE(r & net::kCtStateReply);
    const auto k2 = net::parse_flow(p2);
    EXPECT_EQ(k2.nw_src, ipv4(2, 2, 2, 2));
    EXPECT_EQ(k2.tp_src, 80);
}

TEST_P(ConntrackTest, NatPortRangeAllocatesDeterministically)
{
    kern::CtSpec nat;
    nat.commit = true;
    nat.nat = NatSpec::src(ipv4(5, 5, 5, 5), 40000, 40001);

    // Same server, different clients: each new connection takes the
    // first free port of the range, in order.
    auto p1 = packet(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 1000, 80, net::kTcpSyn);
    ct.process(p1, net::parse_flow(p1), nat, ctx);
    EXPECT_EQ(net::parse_flow(p1).tp_src, 40000);
    auto p2 = packet(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 1001, 80, net::kTcpSyn);
    ct.process(p2, net::parse_flow(p2), nat, ctx);
    EXPECT_EQ(net::parse_flow(p2).tp_src, 40001);

    // Range exhausted: untrackable, and nothing is inserted.
    auto p3 = packet(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 1002, 80, net::kTcpSyn);
    const auto r3 = ct.process(p3, net::parse_flow(p3), nat, ctx);
    EXPECT_TRUE(r3 & net::kCtStateInvalid);
    EXPECT_EQ(ct.size(), 2u);
    EXPECT_EQ(ct.zone_count(0), 2u);
    EXPECT_EQ(ct.nat_binding_count(), 2u);
}

// The satellite bug: expiry used to erase orig.reversed() from the
// index, which for a NATed connection is NOT the reply tuple — the
// translated tuple (and its allocated port) leaked forever. Expiry, RST
// teardown and flush must all release the port for reallocation, and
// the san table audit must agree at every step.
TEST_P(ConntrackTest, NatPortReleasedOnExpiryRstAndFlush)
{
    san::ScopedHardened hardened;
    san::ScopedCollect collect;
    kern::CtSpec nat;
    nat.commit = true;
    nat.nat = NatSpec::src(ipv4(5, 5, 5, 5), 40000, 40000); // width-1 range

    auto p1 = packet(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 1000, 80, net::kTcpSyn);
    ct.process(p1, net::parse_flow(p1), nat, ctx, /*now=*/1000);
    ct.san_check(OVSX_SITE);

    // While the binding is live, the sole port is taken.
    auto p2 = packet(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 1001, 80, net::kTcpSyn);
    EXPECT_TRUE(ct.process(p2, net::parse_flow(p2), nat, ctx, 1500) &
                net::kCtStateInvalid);

    // Expiry must drop the translated reply tuple from the index...
    EXPECT_EQ(ct.expire_idle(2000), 1u);
    ct.san_check(OVSX_SITE);
    EXPECT_EQ(ct.nat_binding_count(), 0u);
    EXPECT_EQ(ct.find(CtTuple{ipv4(2, 2, 2, 2), ipv4(5, 5, 5, 5), 80, 40000, 6, 0}), nullptr);

    // ...so the port can be reallocated.
    auto p3 = packet(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 1002, 80, net::kTcpSyn);
    EXPECT_TRUE(ct.process(p3, net::parse_flow(p3), nat, ctx, 3000) & net::kCtStateNew);
    EXPECT_EQ(net::parse_flow(p3).tp_src, 40000);
    ct.san_check(OVSX_SITE);

    // RST teardown releases it too (reply-direction RST, de-NATed).
    auto rst = packet(ipv4(2, 2, 2, 2), ipv4(5, 5, 5, 5), 80, 40000,
                      net::kTcpRst | net::kTcpAck);
    ct.process(rst, net::parse_flow(rst), kern::CtSpec{.zone = 0, .commit = false}, ctx, 3500);
    EXPECT_EQ(ct.size(), 0u);
    EXPECT_EQ(ct.zone_count(0), 0u);
    ct.san_check(OVSX_SITE);

    auto p4 = packet(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 1003, 80, net::kTcpSyn);
    EXPECT_TRUE(ct.process(p4, net::parse_flow(p4), nat, ctx, 4000) & net::kCtStateNew);
    ct.flush();
    ct.san_check(OVSX_SITE);
    EXPECT_EQ(ct.nat_binding_count(), 0u);

    EXPECT_TRUE(collect.take().empty());
}

TEST_P(ConntrackTest, UncommittedCtDoesNotBindNat)
{
    san::ScopedHardened hardened;
    san::ScopedCollect collect;
    kern::CtSpec nat;
    nat.commit = false; // ct(nat) without commit: no binding, no rewrite
    nat.nat = NatSpec::src(ipv4(5, 5, 5, 5), 40000, 40000);

    auto p1 = packet(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 1000, 80, net::kTcpSyn);
    ct.process(p1, net::parse_flow(p1), nat, ctx, 100);
    EXPECT_EQ(net::parse_flow(p1).nw_src, ipv4(1, 1, 1, 1));
    EXPECT_EQ(ct.nat_binding_count(), 0u);
    ct.san_check(OVSX_SITE);

    // The unconfirmed entry holds no port, so a committed connection can
    // take it; expiring the unconfirmed entry leaks nothing.
    EXPECT_EQ(ct.expire_idle(200), 1u);
    ct.san_check(OVSX_SITE);
    EXPECT_TRUE(collect.take().empty());
}

TEST_P(ConntrackTest, MarkFromSpecAppliedOnCommit)
{
    kern::CtSpec spec;
    spec.commit = true;
    spec.set_mark = true;
    spec.mark = 42;
    auto p1 = packet(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 1000, 80, net::kTcpSyn);
    ct.process(p1, net::parse_flow(p1), spec, ctx);
    EXPECT_EQ(p1.meta().ct_mark, 42u);

    const auto snap = ct.snapshot();
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].mark, 42u);
    EXPECT_FALSE(snap[0].nat);
    EXPECT_EQ(snap[0].reply, snap[0].orig.reversed());
}

// ---- tuple hash quality -------------------------------------------------

TEST(CtTupleHash, SeparatesReverseZoneAndFoldedVariants)
{
    const CtTuple::Hash h;
    const CtTuple t{ipv4(10, 0, 0, 1), ipv4(10, 0, 0, 2), 1234, 80, 6, 0};
    EXPECT_NE(h(t), h(t.reversed()));
    CtTuple zswap = t;
    zswap.zone = 1;
    EXPECT_NE(h(t), h(zswap));

    // The old XOR-fold collided these systematically: src bit 16 lands
    // on the same folded bit as sport bit 0.
    CtTuple a{0x00010000u, ipv4(10, 0, 0, 2), 0, 80, 6, 0};
    CtTuple b{0x00000000u, ipv4(10, 0, 0, 2), 1, 80, 6, 0};
    EXPECT_NE(h(a), h(b));
}

TEST(CtTupleHash, CollisionRateOverFuzzCorpusTuples)
{
    // Tuples shaped like the fuzzer's corpus (8 flow ips x 6 ports x 2
    // zones x 2 protos), plus every reverse — the exact population the
    // conntrack index hashes in the differential soak.
    const std::uint16_t ports[] = {53, 80, 443, 1234, 5001, 8080};
    std::vector<CtTuple> tuples;
    for (std::uint32_t s = 0; s < 8; ++s) {
        for (std::uint32_t d = 0; d < 8; ++d) {
            for (std::uint16_t sp : ports) {
                for (std::uint16_t zone = 0; zone < 2; ++zone) {
                    for (std::uint8_t proto : {std::uint8_t{6}, std::uint8_t{17}}) {
                        const CtTuple t{0x0a000001u + s, 0x0a000001u + d,
                                        static_cast<std::uint16_t>(10000 + sp), sp, proto, zone};
                        tuples.push_back(t);
                        tuples.push_back(t.reversed());
                    }
                }
            }
        }
    }
    std::sort(tuples.begin(), tuples.end());
    tuples.erase(std::unique(tuples.begin(), tuples.end()), tuples.end());

    const CtTuple::Hash h;
    std::vector<std::size_t> hashes;
    hashes.reserve(tuples.size());
    for (const auto& t : tuples) hashes.push_back(h(t));
    std::sort(hashes.begin(), hashes.end());
    const auto dup = std::adjacent_find(hashes.begin(), hashes.end());
    // Full 64-bit hashes over a few thousand structured tuples must not
    // collide at all; the old fold collided hundreds of pairs.
    EXPECT_EQ(dup, hashes.end()) << tuples.size() << " tuples";
}

INSTANTIATE_TEST_SUITE_P(Profiles, ConntrackTest,
                         ::testing::Values(&kKernelCtProfile, &kUserspaceCtProfile),
                         [](const auto& info) {
                             return std::string(info.param == &kKernelCtProfile ? "kernel"
                                                                                : "userspace");
                         });

} // namespace
} // namespace ovsx::kern
