#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "kern/kernel.h"
#include "net/builder.h"
#include "net/packet_batch.h"
#include "ovs/dpif_netdev.h"
#include "ovs/emc.h"
#include "ovs/megaflow.h"
#include "ovs/meter.h"
#include "sim/rng.h"

namespace ovsx::ovs {
namespace {

using net::ipv4;

net::FlowKey key_for(std::uint16_t sport, std::uint32_t dst = ipv4(10, 0, 0, 2))
{
    net::UdpSpec spec;
    spec.src_ip = ipv4(10, 0, 0, 1);
    spec.dst_ip = dst;
    spec.src_port = sport;
    spec.dst_port = 2000;
    net::Packet p = net::build_udp(spec);
    p.meta().in_port = 1;
    return net::parse_flow(p);
}

CachedFlowPtr flow_with_port(std::uint32_t port)
{
    auto f = std::make_shared<CachedFlow>();
    f->actions = {kern::OdpAction::output(port)};
    return f;
}

TEST(EmcTest, HitAfterInsert)
{
    Emc emc(1024);
    const auto key = key_for(1);
    const auto hash = key.hash();
    EXPECT_EQ(emc.lookup(key, hash), nullptr);
    emc.insert(key, hash, flow_with_port(7));
    auto* flow = emc.lookup(key, hash);
    ASSERT_NE(flow, nullptr);
    EXPECT_EQ(flow->actions[0].port, 7u);
    EXPECT_EQ(emc.hits(), 1u);
    EXPECT_EQ(emc.misses(), 1u);
}

TEST(EmcTest, DistinguishesKeysWithSameBucket)
{
    Emc emc(2); // tiny: everything collides
    const auto k1 = key_for(1);
    const auto k2 = key_for(2);
    emc.insert(k1, k1.hash(), flow_with_port(1));
    emc.insert(k2, k2.hash(), flow_with_port(2));
    // Whatever survived eviction must map to its own key.
    if (auto* f = emc.lookup(k1, k1.hash())) {
        EXPECT_EQ(f->actions[0].port, 1u);
    }
    if (auto* f = emc.lookup(k2, k2.hash())) {
        EXPECT_EQ(f->actions[0].port, 2u);
    }
}

TEST(EmcTest, DeadFlowsAreSkippedAndSwept)
{
    Emc emc(1024);
    const auto key = key_for(1);
    auto flow = flow_with_port(3);
    emc.insert(key, key.hash(), flow);
    flow->dead = true;
    EXPECT_EQ(emc.lookup(key, key.hash()), nullptr);
    emc.insert(key, key.hash(), flow_with_port(4));
    EXPECT_GE(emc.sweep(), 0u);
    ASSERT_NE(emc.lookup(key, key.hash()), nullptr);
}

TEST(EmcTest, RequiresPowerOfTwo)
{
    EXPECT_THROW(Emc(1000), std::invalid_argument);
}

TEST(MegaflowTest, WildcardHit)
{
    MegaflowCache cache;
    net::FlowMask mask;
    mask.bits.in_port = 0xffffffff;
    mask.bits.nw_dst = 0xffffff00; // /24
    cache.insert(key_for(1), mask, {kern::OdpAction::output(9)});

    // Any packet in the /24 from port 1 hits, regardless of sport.
    for (std::uint16_t s = 100; s < 110; ++s) {
        auto res = cache.lookup(key_for(s, ipv4(10, 0, 0, 200)));
        ASSERT_NE(res.flow, nullptr) << s;
        EXPECT_EQ(res.flow->actions[0].port, 9u);
    }
    EXPECT_EQ(cache.lookup(key_for(1, ipv4(10, 0, 1, 2))).flow, nullptr);
    EXPECT_EQ(cache.flow_count(), 1u);
    EXPECT_EQ(cache.mask_count(), 1u);
}

TEST(MegaflowTest, ProbesGrowWithMaskCount)
{
    MegaflowCache cache;
    net::FlowMask m1;
    m1.bits.in_port = 0xffffffff;
    net::FlowMask m2 = m1;
    m2.bits.nw_dst = 0xffffffff;
    net::FlowMask m3 = m2;
    m3.bits.tp_src = 0xffff;

    cache.insert(key_for(50), m3, {kern::OdpAction::drop()});
    cache.insert(key_for(1, ipv4(9, 9, 9, 9)), m2, {kern::OdpAction::drop()});
    cache.insert(key_for(1), m1, {kern::OdpAction::output(1)});
    EXPECT_EQ(cache.mask_count(), 3u);

    // Key that only matches the m1 entry probes all three subtables in
    // the worst case.
    auto res = cache.lookup(key_for(77, ipv4(10, 0, 0, 99)));
    ASSERT_NE(res.flow, nullptr);
    EXPECT_GE(res.probes, 1);
    EXPECT_LE(res.probes, 3);
}

TEST(MegaflowTest, RerankPrefersHotSubtables)
{
    MegaflowCache cache;
    net::FlowMask cold;
    cold.bits.tp_src = 0xffff;
    cold.bits.in_port = 0xffffffff;
    net::FlowMask hot;
    hot.bits.in_port = 0xffffffff;
    // Insert the cold mask first so it is probed first.
    cache.insert(key_for(555), cold, {kern::OdpAction::drop()});
    cache.insert(key_for(1), hot, {kern::OdpAction::output(1)});

    // Hammer the hot entry.
    for (int i = 0; i < 100; ++i) {
        auto res = cache.lookup(key_for(7));
        ASSERT_NE(res.flow, nullptr);
    }
    const auto probes_before = cache.lookup(key_for(8)).probes;
    cache.rerank();
    const auto probes_after = cache.lookup(key_for(9)).probes;
    EXPECT_LE(probes_after, probes_before);
    EXPECT_EQ(probes_after, 1); // hot subtable now probed first
}

TEST(MegaflowTest, RemoveMarksDead)
{
    MegaflowCache cache;
    net::FlowMask mask;
    mask.bits.in_port = 0xffffffff;
    auto flow = cache.insert(key_for(1), mask, {kern::OdpAction::output(2)});
    EXPECT_TRUE(cache.remove(key_for(1), mask));
    EXPECT_TRUE(flow->dead); // EMC holders see the tombstone
    EXPECT_EQ(cache.lookup(key_for(1)).flow, nullptr);
    EXPECT_FALSE(cache.remove(key_for(1), mask));
}

TEST(MegaflowTest, ReplaceExisting)
{
    MegaflowCache cache;
    net::FlowMask mask;
    mask.bits.in_port = 0xffffffff;
    cache.insert(key_for(1), mask, {kern::OdpAction::output(1)});
    cache.insert(key_for(1), mask, {kern::OdpAction::output(2)});
    EXPECT_EQ(cache.flow_count(), 1u);
    EXPECT_EQ(cache.lookup(key_for(9)).flow->actions[0].port, 2u);
}

// ---- lookup_batch + commit vs per-key lookup ---------------------------

// Four subtables of different specificity over a small key space, so
// random keys hit every subtable and also miss. Their hit counts do not
// follow their insertion order, so rerank() reorders them and the probe
// order after it depends on the per-subtable hit stats.
std::vector<net::FlowMask> batch_masks()
{
    net::FlowMask port;
    port.bits.in_port = 0xffffffff;
    net::FlowMask dst24 = port;
    dst24.bits.nw_dst = 0xffffff00;
    net::FlowMask dst32 = port;
    dst32.bits.nw_dst = 0xffffffff;
    net::FlowMask sport = dst24;
    sport.bits.tp_src = 0xffff;
    return {port, sport, dst32, dst24};
}

net::FlowKey random_key(sim::Rng& rng)
{
    net::FlowKey key = key_for(static_cast<std::uint16_t>(rng.below(16)),
                               ipv4(10, 0, static_cast<std::uint8_t>(rng.below(4)),
                                    static_cast<std::uint8_t>(rng.below(8))));
    key.in_port = 1 + static_cast<std::uint32_t>(rng.below(3));
    return key;
}

// Identical contents for every cache built with the same seed.
void populate(MegaflowCache& cache, std::uint64_t seed)
{
    sim::Rng rng(seed);
    const auto masks = batch_masks();
    for (std::uint32_t i = 0; i < 24; ++i) {
        const net::FlowMask& mask = masks[i % masks.size()];
        net::FlowKey key = random_key(rng);
        // Port-only flows all land on in_port 1, so keys on in_port 2
        // and 3 that match no narrower flow miss.
        if (i % masks.size() == 0) key.in_port = 1;
        cache.insert(key, mask, {kern::OdpAction::output(100 + i)});
    }
}

TEST(MegaflowBatchTest, LookupBatchPlusCommitEqualsPerKeyLookup)
{
    constexpr std::size_t kCap = net::PacketBatch::kCapacity;
    for (const std::uint32_t shards : {1u, 4u, 16u}) {
        SCOPED_TRACE(shards);
        MegaflowCache scalar(shards);
        MegaflowCache batched(shards);
        populate(scalar, 7);
        populate(batched, 7);
        ASSERT_EQ(batched.mask_count(), 4u);

        sim::Rng rng(1000 + shards);
        std::vector<net::FlowKey> keys;
        for (int i = 0; i < 400; ++i) keys.push_back(random_key(rng));

        // Bursts of up to a batch, each classified in one pass and then
        // committed in key order, as the vector spine does.
        std::vector<int> probes_unranked;
        for (std::size_t base = 0; base < keys.size(); base += kCap) {
            const std::size_t n = std::min(kCap, keys.size() - base);
            std::array<const net::FlowKey*, kCap> ptrs;
            std::array<MegaflowCache::LookupResult, kCap> res;
            for (std::size_t j = 0; j < n; ++j) ptrs[j] = &keys[base + j];
            const std::uint64_t epoch = batched.epoch();
            batched.lookup_batch(ptrs.data(), n, res.data());
            for (std::size_t j = 0; j < n; ++j) {
                const auto want = scalar.lookup(keys[base + j]);
                probes_unranked.push_back(want.probes);
                batched.commit(res[j]);
                EXPECT_EQ(batched.epoch(), epoch) << "classification moved the epoch";
                EXPECT_EQ(res[j].probes, want.probes) << base + j;
                ASSERT_EQ(res[j].flow == nullptr, want.flow == nullptr) << base + j;
                if (!want.flow) continue;
                EXPECT_EQ(res[j].flow->actions[0].port, want.flow->actions[0].port) << base + j;
                EXPECT_EQ(res[j].flow->masked_key, want.flow->masked_key) << base + j;
            }
        }
        EXPECT_EQ(batched.hits(), scalar.hits());
        EXPECT_EQ(batched.misses(), scalar.misses());
        EXPECT_GT(batched.hits(), 0u);
        EXPECT_GT(batched.misses(), 0u);

        // The per-subtable hit stats are consumed only by rerank(): the
        // same stats give the same probe order. The order must also
        // have moved, or this comparison would not see the stats.
        scalar.rerank();
        batched.rerank();
        bool moved = false;
        for (std::size_t i = 0; i < keys.size(); ++i) {
            const int ranked = scalar.lookup(keys[i]).probes;
            EXPECT_EQ(batched.lookup(keys[i]).probes, ranked) << i;
            moved |= ranked != probes_unranked[i];
        }
        EXPECT_TRUE(moved) << "rerank kept the insertion order";
    }
}

TEST(MegaflowBatchTest, FlowPutBetweenBatchAndCommitMovesEpoch)
{
    // The vector spine snapshots epoch() before lookup_batch and trusts
    // a batch result only while it is unchanged; an upcall's flow_put
    // between the batch and the commit must therefore move it, whether
    // it adds a flow to an existing subtable or a new subtable.
    kern::Kernel kernel;
    DpifNetdev dpif(kernel);
    const auto masks = batch_masks();
    dpif.flow_put(key_for(1), masks[0], {kern::OdpAction::output(1)});

    const net::FlowKey probe = key_for(2);
    const net::FlowKey* keys[] = {&probe};
    MegaflowCache::LookupResult res[1];
    const std::uint64_t before = dpif.megaflow().epoch();
    dpif.megaflow().lookup_batch(keys, 1, res);
    ASSERT_NE(res[0].flow, nullptr);
    EXPECT_EQ(dpif.megaflow().epoch(), before);

    net::FlowKey other_port = key_for(3);
    other_port.in_port = 2;
    dpif.flow_put(other_port, masks[0], {kern::OdpAction::output(2)});
    const std::uint64_t same_subtable = dpif.megaflow().epoch();
    EXPECT_NE(same_subtable, before);

    dpif.flow_put(key_for(4), masks[1], {kern::OdpAction::output(3)});
    EXPECT_NE(dpif.megaflow().epoch(), same_subtable);
}

TEST(MeterTest, PpsMeterDropsAboveRate)
{
    MeterTable meters;
    meters.set(1, {.rate_kbps = 0, .rate_pps = 1000, .burst = 10});
    // Burst of 10 passes, the 11th in the same instant drops.
    int passed = 0;
    for (int i = 0; i < 11; ++i) {
        if (meters.admit(1, 64, 0)) ++passed;
    }
    EXPECT_EQ(passed, 10);
    EXPECT_EQ(meters.dropped(1), 1u);
    // After 5ms, 5 more tokens accumulated.
    passed = 0;
    for (int i = 0; i < 10; ++i) {
        if (meters.admit(1, 64, 5 * sim::kMilli)) ++passed;
    }
    EXPECT_EQ(passed, 5);
}

TEST(MeterTest, KbpsMeterAccountsBytes)
{
    MeterTable meters;
    // 8 Mbit/s with an 80 kbit bucket = 10 KB burst.
    meters.set(2, {.rate_kbps = 8000, .rate_pps = 0, .burst = 80000});
    int passed = 0;
    for (int i = 0; i < 20; ++i) {
        if (meters.admit(2, 1000, 0)) ++passed; // 8000 bits each
    }
    EXPECT_EQ(passed, 10);
}

TEST(MeterTest, UnknownMeterPasses)
{
    MeterTable meters;
    EXPECT_TRUE(meters.admit(99, 1500, 0));
}

TEST(MeterTest, RemoveRestoresPass)
{
    MeterTable meters;
    meters.set(3, {.rate_kbps = 0, .rate_pps = 1, .burst = 1});
    EXPECT_TRUE(meters.admit(3, 64, 0));
    EXPECT_FALSE(meters.admit(3, 64, 0));
    EXPECT_TRUE(meters.remove(3));
    EXPECT_TRUE(meters.admit(3, 64, 0));
}

} // namespace
} // namespace ovsx::ovs
