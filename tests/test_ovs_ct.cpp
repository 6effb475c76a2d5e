// Cross-profile conntrack tests. The kernel and the userspace datapath
// run one conntrack core under two profiles (kern/conntrack.h); the
// per-case semantics are covered profile by profile in
// test_kern_conntrack.cpp. These tests run the same traffic through both
// profiles in one process and pin that nothing but the profile differs.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "gen/ct_corpus.h"
#include "net/builder.h"
#include "net/headers.h"
#include "ovs/ct.h"

namespace ovsx::ovs {
namespace {

using net::ipv4;

net::Packet tcp(std::uint32_t src, std::uint32_t dst, std::uint16_t sport, std::uint16_t dport,
                std::uint8_t flags = net::kTcpAck)
{
    net::TcpSpec spec;
    spec.src_ip = src;
    spec.dst_ip = dst;
    spec.src_port = sport;
    spec.dst_port = dport;
    spec.flags = flags;
    spec.payload_len = 16;
    return net::build_tcp(spec);
}

std::vector<std::uint8_t> bytes(const net::Packet& p)
{
    return std::vector<std::uint8_t>(p.data(), p.data() + p.size());
}

class UserCtTest : public ::testing::Test {
protected:
    UserspaceConntrack ct;
    sim::ExecContext ctx{"pmd", sim::CpuClass::User};
};

// The userspace and kernel trackers must leave identical state behind for
// the same packet sequence — the invariant the differential harness's
// end-state diff depends on.
TEST_F(UserCtTest, SnapshotMatchesKernelTrackerOnCorpusSequences)
{
    kern::Conntrack kct;
    kern::CtSpec commit{.zone = 0, .commit = true};

    std::vector<net::Packet> seq;
    for (auto& p : gen::ct_handshake()) seq.push_back(std::move(p));
    for (auto& p : gen::ct_rst_mid_handshake()) seq.push_back(std::move(p));
    for (auto& p : gen::ct_icmp_related()) seq.push_back(std::move(p));
    seq.push_back(gen::ct_icmp_unrelated());

    for (auto& p : seq) {
        net::Packet copy = p;
        const auto key = net::parse_flow(p);
        ct.process(p, key, commit, ctx);
        kct.process(copy, net::parse_flow(copy), commit, ctx);
    }
    EXPECT_EQ(ct.snapshot(), kct.snapshot());
    EXPECT_FALSE(ct.snapshot().empty());
}

// Same invariant under NAT: identical SNAT specs (with a port range and
// a mark) must leave byte-identical packets and identical snapshots —
// NAT reply tuples, marks and allocation order included.
TEST_F(UserCtTest, NatSnapshotAndBytesMatchKernelTracker)
{
    kern::Conntrack kct;
    kern::CtSpec nat;
    nat.zone = 0;
    nat.commit = true;
    nat.set_mark = true;
    nat.mark = 9;
    nat.nat = kern::NatSpec::src(ipv4(5, 5, 5, 5), 40000, 40001);
    kern::CtSpec check{.zone = 0, .commit = false};

    auto run_both = [&](net::Packet& p, const kern::CtSpec& spec) {
        net::Packet copy = p;
        const auto s_u = ct.process(p, net::parse_flow(p), spec, ctx);
        const auto s_k = kct.process(copy, net::parse_flow(copy), spec, ctx);
        EXPECT_EQ(s_u, s_k);
        EXPECT_EQ(bytes(p), bytes(copy));
        return s_u;
    };

    // Two clients behind the same SNAT ip: the second allocates the next
    // port; the third exhausts the two-port range and must be invalid in
    // BOTH trackers.
    for (std::uint16_t sp : {1000, 1001}) {
        auto p = tcp(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), sp, 80, net::kTcpSyn);
        EXPECT_TRUE(run_both(p, nat) & net::kCtStateNew);
        EXPECT_EQ(net::parse_flow(p).nw_src, ipv4(5, 5, 5, 5));
    }
    auto p3 = tcp(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 1002, 80, net::kTcpSyn);
    EXPECT_TRUE(run_both(p3, nat) & net::kCtStateInvalid);

    // Replies to each allocated port de-NAT back to the right client.
    auto r1 = tcp(ipv4(2, 2, 2, 2), ipv4(5, 5, 5, 5), 80, 40000, net::kTcpSyn | net::kTcpAck);
    EXPECT_TRUE(run_both(r1, check) & net::kCtStateReply);
    EXPECT_EQ(net::parse_flow(r1).nw_dst, ipv4(1, 1, 1, 1));
    EXPECT_EQ(net::parse_flow(r1).tp_dst, 1000);
    EXPECT_EQ(r1.meta().ct_mark, 9u);
    auto r2 = tcp(ipv4(2, 2, 2, 2), ipv4(5, 5, 5, 5), 80, 40001, net::kTcpSyn | net::kTcpAck);
    EXPECT_TRUE(run_both(r2, check) & net::kCtStateReply);
    EXPECT_EQ(net::parse_flow(r2).tp_dst, 1001);

    const auto snap_u = ct.snapshot();
    EXPECT_EQ(snap_u, kct.snapshot());
    ASSERT_EQ(snap_u.size(), 2u);
    EXPECT_TRUE(snap_u[0].nat);
    EXPECT_EQ(snap_u[0].mark, 9u);
    EXPECT_EQ(snap_u[0].reply.dport, 40000);
    EXPECT_EQ(snap_u[1].reply.dport, 40001);
}

// The profile split, pinned. The ct corpus plus a SNAT port-range
// exhaustion runs through both profiles in one process: state, bytes
// and state bits are identical; the charged virtual time differs by
// exactly the per-probe constant for every lookup and insert; and each
// tracker bumps only its own coverage names. The last check fails if
// the core caches one counter id per call site (OVSX_COVERAGE_CTX),
// because whichever profile runs first would claim it for both.
TEST(CtProfileSplit, ProfilesDifferOnlyInProbeCostAndNames)
{
    const sim::CostModel& costs = sim::CostModel::baseline();
    ASSERT_NE(costs.kdp_flow_probe, costs.emc_hit);
    kern::Conntrack kct{kern::kKernelCtProfile, costs};
    UserspaceConntrack uct{costs};
    sim::ExecContext kctx{"softirq", sim::CpuClass::Softirq};
    sim::ExecContext uctx{"pmd", sim::CpuClass::User};

    kern::CtSpec commit;
    commit.commit = true;
    kern::CtSpec snat = commit;
    snat.zone = 3;
    snat.nat = kern::NatSpec::src(ipv4(5, 5, 5, 5), 40000, 40001);
    kern::CtSpec reply;
    reply.zone = 3;
    std::vector<std::pair<net::Packet, kern::CtSpec>> seq;
    for (auto& p : gen::ct_handshake()) seq.emplace_back(std::move(p), commit);
    for (auto& p : gen::ct_rst_mid_handshake()) seq.emplace_back(std::move(p), commit);
    for (auto& p : gen::ct_icmp_related()) seq.emplace_back(std::move(p), commit);
    seq.emplace_back(gen::ct_icmp_unrelated(), commit);
    for (std::uint16_t sp : {1000, 1001, 1002}) {
        seq.emplace_back(tcp(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), sp, 80, net::kTcpSyn), snat);
    }
    seq.emplace_back(tcp(ipv4(2, 2, 2, 2), ipv4(5, 5, 5, 5), 80, 40001, net::kTcpAck), reply);

    std::uint64_t lookups = 0, inserts = 0;
    for (auto& [p, spec] : seq) {
        net::Packet copy = p;
        const net::FlowKey key = net::parse_flow(p);
        const bool known = kct.find(kern::CtTuple::from_key(key, spec.zone)) != nullptr;
        const std::uint8_t s_k = kct.process(p, key, spec, kctx);
        const std::uint8_t s_u = uct.process(copy, net::parse_flow(copy), spec, uctx);
        EXPECT_EQ(s_k, s_u);
        EXPECT_EQ(bytes(p), bytes(copy));
        EXPECT_EQ(p.meta().ct_state, copy.meta().ct_state);
        EXPECT_EQ(p.meta().ct_mark, copy.meta().ct_mark);
        ++lookups;
        if (!known && (s_k & net::kCtStateNew) && !(s_k & net::kCtStateInvalid)) ++inserts;
    }
    const auto snap = kct.snapshot();
    EXPECT_EQ(snap, uct.snapshot());
    EXPECT_FALSE(snap.empty());
    EXPECT_EQ(kct.nat_binding_count(), 2u);
    EXPECT_EQ(uct.nat_binding_count(), 2u);
    EXPECT_GT(inserts, 0u);

    EXPECT_EQ(kctx.total_busy() - uctx.total_busy(),
              static_cast<sim::Nanos>(lookups + inserts) * (costs.kdp_flow_probe - costs.emc_hit));

    EXPECT_EQ(kctx.counter("ct.lookup"), lookups);
    EXPECT_EQ(kctx.counter("ct.nat_port_exhausted"), 1u);
    EXPECT_EQ(kctx.counter("userspace_ct.lookup"), 0u);
    EXPECT_EQ(kctx.counter("userspace_ct.nat_port_exhausted"), 0u);
    EXPECT_EQ(uctx.counter("userspace_ct.lookup"), lookups);
    EXPECT_EQ(uctx.counter("userspace_ct.nat_port_exhausted"), 1u);
    EXPECT_EQ(uctx.counter("ct.lookup"), 0u);
    EXPECT_EQ(uctx.counter("ct.nat_port_exhausted"), 0u);
}

} // namespace
} // namespace ovsx::ovs
