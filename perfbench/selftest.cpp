// Self-test of the benchmark's own helpers (spans.h): span self time,
// per-layer ratios and counter deltas, and the percentile wrapper.
// Exits non-zero on the first failed check; run.py runs it before every
// measurement so a broken helper never produces numbers.
#include <cstdio>
#include <cstdlib>

#include "spans.h"

namespace {

int failures = 0;

#define CHECK_EQ(a, b)                                                                 \
    do {                                                                               \
        const auto va_ = (a);                                                          \
        const auto vb_ = (b);                                                          \
        if (!(va_ == vb_)) {                                                           \
            std::fprintf(stderr, "selftest: %s:%d: %s != %s\n", __FILE__, __LINE__, #a, \
                         #b);                                                          \
            ++failures;                                                                \
        }                                                                              \
    } while (0)

using perfbench::SpanName;

void self_time_subtracts_children()
{
    // burst [0,100) with kern.rx [10,40) and ovs.pmd_poll [50,90):
    // burst self = 100 - 30 - 40 = 30.
    perfbench::SpanStore store(16);
    store.begin(SpanName::Burst, 1, 0);
    store.begin(SpanName::KernRx, 1, 10);
    store.end(40);
    store.begin(SpanName::PmdPoll, 1, 50);
    store.begin(SpanName::Tick, 1, 60); // grandchild: charged to pmd_poll only
    store.end(70);
    store.end(90);
    store.end(100);
    const auto t = perfbench::span_totals(store.spans());
    CHECK_EQ(t.total_ns[0], 100);
    CHECK_EQ(t.self_ns[0], 30);
    CHECK_EQ(t.self_ns[1], 30);
    CHECK_EQ(t.self_ns[2], 30);
    CHECK_EQ(t.self_ns[3], 10);
    CHECK_EQ(t.count[0], 1u);
    CHECK_EQ(store.spans()[3].parent, 2);
}

void self_time_merges_overlap_and_clips()
{
    // Children overlap each other and stick out of the parent: only the
    // covered part of [0,100) counts, once.
    std::vector<perfbench::Span> spans = {
        {SpanName::Burst, 7, -1, 0, 100},
        {SpanName::KernRx, 7, 0, -20, 30},
        {SpanName::PmdPoll, 7, 0, 20, 50},
        {SpanName::Tick, 7, 0, 90, 130},
    };
    const auto t = perfbench::span_totals(spans);
    CHECK_EQ(t.self_ns[0], 100 - 50 - 10);
}

void store_refuses_when_full()
{
    perfbench::SpanStore store(3);
    CHECK_EQ(store.full(), false);
    store.begin(SpanName::Burst, 1, 0);
    store.begin(SpanName::KernRx, 1, 0);
    store.end(1);
    store.end(2);
    CHECK_EQ(store.full(1), true);
}

void ratios_and_deltas()
{
    CHECK_EQ(perfbench::ratio(3, 4), 0.75);
    CHECK_EQ(perfbench::ratio(3, 0), 0.0);
    CHECK_EQ(perfbench::ratio(5, 1000, 1000), 5.0);
    const perfbench::Counters before = {{"emc.hit", 10}, {"emc.miss", 4}};
    const perfbench::Counters after = {{"emc.hit", 25}, {"emc.miss", 4}, {"kdp.hit", 7}};
    const auto d = perfbench::counter_delta(before, after);
    CHECK_EQ(perfbench::get(d, "emc.hit"), 15u);
    CHECK_EQ(perfbench::get(d, "emc.miss"), 0u);
    CHECK_EQ(perfbench::get(d, "kdp.hit"), 7u);
    CHECK_EQ(d.size(), 2u);
}

void percentiles_use_nearest_rank()
{
    std::vector<std::int64_t> v;
    for (int i = 1; i <= 200; ++i) v.push_back(i);
    CHECK_EQ(perfbench::percentile(v, 50), 100);
    CHECK_EQ(perfbench::percentile(v, 99), 198);
    CHECK_EQ(perfbench::percentile(std::vector<std::int64_t>{42}, 99), 42);
    CHECK_EQ(perfbench::percentile(std::vector<std::int64_t>{}, 50), 0);
    const std::vector<double> rates = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    CHECK_EQ(perfbench::percentile(rates, 90), 9.0);
}

} // namespace

int main()
{
    self_time_subtracts_children();
    self_time_merges_overlap_and_clips();
    store_refuses_when_full();
    ratios_and_deltas();
    percentiles_use_nearest_rank();
    if (failures) {
        std::fprintf(stderr, "selftest: %d check(s) failed\n", failures);
        return EXIT_FAILURE;
    }
    return EXIT_SUCCESS;
}
