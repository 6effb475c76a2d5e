// In-memory span recorder and the arithmetic the benchmark derives from
// it: per-name self time (a span's duration minus the part of it its
// children cover), per-layer ratios over counter deltas, and latency
// percentiles via obs::percentile_rank.
//
// Spans are recorded only around the benchmark's own calls into each
// layer (single thread), kept in a fixed-capacity buffer, and written
// out when the run ends.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/histogram.h"

namespace perfbench {

enum class SpanName : std::uint8_t {
    Burst,      // bench.burst: one injected burst, root of its children
    KernRx,     // kern.rx: the burst's PhysicalDevice::rx_from_wire calls
    PmdPoll,    // ovs.pmd_poll: DpifNetdev::pmd_poll_once until quiet
    Tick,       // ovs.tick: the provider's set_now (ct timer-wheel tick)
    Revalidate, // ovs.revalidate: the periodic revalidation sweep
    NsxDeploy,  // nsx.deploy: NsxAgent::deploy (set-up)
    Warmup,     // gen.warmup: cache and conntrack warm-up (set-up)
};
inline constexpr std::size_t kSpanNames = 7;

inline const char* to_string(SpanName n)
{
    static constexpr const char* kNames[kSpanNames] = {
        "bench.burst", "kern.rx", "ovs.pmd_poll", "ovs.tick",
        "ovs.revalidate", "nsx.deploy", "gen.warmup"};
    return kNames[static_cast<std::size_t>(n)];
}

struct Span {
    SpanName name = SpanName::Burst;
    std::uint32_t id = 0;     // burst id shared by a root and its children
    std::int32_t parent = -1; // index into the store, -1 for a root
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
};

// Store of a fixed capacity reserved up front, so recording never
// reallocates. Callers check full() with headroom for a whole burst
// before opening its root, so every recorded root has all its children.
class SpanStore {
public:
    explicit SpanStore(std::size_t capacity = 0) : cap_(capacity) { spans_.reserve(capacity); }

    bool full(std::size_t headroom = 0) const { return spans_.size() + headroom >= cap_; }

    // Opens a span under the innermost open one; returns its index.
    std::int32_t begin(SpanName name, std::uint32_t id, std::int64_t now_ns)
    {
        const std::int32_t parent = open_.empty() ? -1 : open_.back();
        spans_.push_back({name, id, parent, now_ns, now_ns});
        open_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
        return open_.back();
    }

    void end(std::int64_t now_ns)
    {
        spans_[static_cast<std::size_t>(open_.back())].end_ns = now_ns;
        open_.pop_back();
    }

    const std::vector<Span>& spans() const { return spans_; }

    // One line per span: store label, index, name, id, parent index,
    // start and end (ns).
    void write_tsv(std::FILE* f, const char* store) const
    {
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            std::fprintf(f, "%s\t%zu\t%s\t%u\t%d\t%lld\t%lld\n", store, i, to_string(s.name), s.id,
                         s.parent, static_cast<long long>(s.start_ns),
                         static_cast<long long>(s.end_ns));
        }
    }

private:
    std::vector<Span> spans_;
    std::vector<std::int32_t> open_;
    std::size_t cap_ = 0;
};

struct SpanTotals {
    std::array<std::int64_t, kSpanNames> self_ns{};
    std::array<std::int64_t, kSpanNames> total_ns{};
    std::array<std::uint64_t, kSpanNames> count{};
};

// Self time per span name: each span's duration minus the union of its
// children's intervals clipped to its own.
inline SpanTotals span_totals(const std::vector<Span>& spans)
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans.size());
    for (const Span& s : spans) {
        if (s.parent >= 0) kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
    SpanTotals t;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        const auto n = static_cast<std::size_t>(s.name);
        auto& iv = kids[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t cur_lo = 0, cur_hi = 0;
        bool open = false;
        for (auto [lo, hi] : iv) {
            lo = std::max(lo, s.start_ns);
            hi = std::min(hi, s.end_ns);
            if (hi <= lo) continue;
            if (open && lo <= cur_hi) {
                cur_hi = std::max(cur_hi, hi);
                continue;
            }
            if (open) covered += cur_hi - cur_lo;
            cur_lo = lo;
            cur_hi = hi;
            open = true;
        }
        if (open) covered += cur_hi - cur_lo;
        const std::int64_t dur = s.end_ns - s.start_ns;
        t.total_ns[n] += dur;
        t.self_ns[n] += dur - covered;
        ++t.count[n];
    }
    return t;
}

// num/den scaled, with 0 for an empty base (a layer that saw no work).
inline double ratio(double num, double den, double scale = 1.0)
{
    return den > 0 ? num / den * scale : 0.0;
}

using Counters = std::map<std::string, std::uint64_t>;

// after - before per counter; counters absent from `before` started at 0.
inline Counters counter_delta(const Counters& before, const Counters& after)
{
    Counters d;
    for (const auto& [name, v] : after) {
        const auto it = before.find(name);
        const std::uint64_t base = it == before.end() ? 0 : it->second;
        if (v > base) d[name] = v - base;
    }
    return d;
}

inline std::uint64_t get(const Counters& c, const std::string& name)
{
    const auto it = c.find(name);
    return it == c.end() ? 0 : it->second;
}

// Nearest-rank percentile of an ascending sample, through the one
// percentile implementation the program itself uses.
template <typename T> T percentile(const std::vector<T>& sorted, double p)
{
    if (sorted.empty()) return T{};
    return sorted[ovsx::obs::percentile_rank(sorted.size(), p) - 1];
}

} // namespace perfbench
