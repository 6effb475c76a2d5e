// CI sanity check for obs metrics JSON artifacts (schema ovsx-obs-v5):
//
//   obs_schema_check <metrics.json> [required.dotted.key ...]
//                    [--require-histogram <provider.tier> ...]
//                    [--require-counter <name> ...]
//                    [--p99-not-above <provider.tier> <provider.tier>]
//
// Validates that the document parses, is schema-tagged ovsx-obs-v5,
// carries a coverage object whose counters are all non-negative
// integers, a histograms object of per-provider per-tier latency stats
// with ordered quantiles (the synthetic "path" provider keys fabric
// src->dst pairs the same way), a windows object of windowed-rate
// series, an int object of observed INT paths whose hop records carry
// ordered percentiles and tier names, a perf object of PMD
// cycle-profiler totals whose per-PMD stage percentages stay within
// [0,100], a shards object whose per-table entries carry a power-of-two
// shard_count and an occupancy array of exactly shard_count
// non-negative integers, and a metrics object. Plain
// extra arguments name dotted paths (under "metrics") that must exist.
// --require-histogram demands a non-empty latency histogram for a
// provider.tier pair; --require-counter demands the coverage object
// contain the named counter with a value > 0 (CI uses it to prove the
// datapaths actually processed rx bursts via batch.occupancy, and that
// INT export actually fired via int.exported); --p99-not-above A B is
// the tier-latency regression guard: it fails when p99(A) > p99(B).
// Exits non-zero with a diagnostic on any violation.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/value.h"

namespace {

int fail(const std::string& msg)
{
    std::fprintf(stderr, "obs_schema_check: %s\n", msg.c_str());
    return 1;
}

const ovsx::obs::Value* walk(const ovsx::obs::Value& root, const std::string& dotted)
{
    const ovsx::obs::Value* cur = &root;
    std::size_t start = 0;
    while (start <= dotted.size()) {
        const std::size_t dot = dotted.find('.', start);
        const std::string seg = dotted.substr(start, dot == std::string::npos
                                                         ? std::string::npos
                                                         : dot - start);
        cur = cur->find(seg);
        if (!cur) return nullptr;
        if (dot == std::string::npos) break;
        start = dot + 1;
    }
    return cur;
}

bool is_number(const ovsx::obs::Value& v)
{
    using Kind = ovsx::obs::Value::Kind;
    return v.kind() == Kind::Uint || v.kind() == Kind::Int || v.kind() == Kind::Double;
}

// One per-tier latency stats block: {count,min,p50,p90,p99,max,mean}
// with non-decreasing quantiles whenever the histogram is non-empty.
int check_histogram_stats(const std::string& where, const ovsx::obs::Value& stats)
{
    static const char* kFields[] = {"count", "min", "p50", "p90", "p99", "max", "mean"};
    if (!stats.is_object()) return fail("histogram '" + where + "' is not an object");
    for (const char* f : kFields) {
        const auto* v = stats.find(f);
        if (!v || !is_number(*v)) {
            return fail("histogram '" + where + "' missing numeric field '" + f + "'");
        }
    }
    const auto num = [&](const char* f) { return stats.find(f)->as_double(); };
    if (num("count") > 0) {
        const double q[] = {num("min"), num("p50"), num("p90"), num("p99"), num("max")};
        for (std::size_t i = 1; i < 5; ++i) {
            if (q[i] < q[i - 1]) {
                return fail("histogram '" + where + "' quantiles are not non-decreasing");
            }
        }
    }
    return 0;
}

// One observed INT path as emitted by obs::int_paths_show(): summary
// counts, a total-latency stats block, and the per-hop record array.
int check_int_path(const std::string& where, const ovsx::obs::Value& path)
{
    if (!path.is_object()) return fail("int path '" + where + "' is not an object");
    for (const char* f : {"count", "truncated"}) {
        const auto* v = path.find(f);
        if (!v || !is_number(*v)) {
            return fail("int path '" + where + "' missing numeric field '" + f + "'");
        }
    }
    const auto* total = path.find("total");
    if (!total) return fail("int path '" + where + "' missing total stats");
    if (const int rc = check_histogram_stats(where + ".total", *total)) return rc;
    const auto* hops = path.find("hops");
    if (!hops || !hops->is_array()) return fail("int path '" + where + "' missing hops array");
    for (const auto& h : hops->items()) {
        if (!h.is_object()) return fail("int path '" + where + "' hop is not an object");
        for (const char* f : {"hop", "switch", "count", "p50_ns", "p99_ns", "occupancy_avg"}) {
            const auto* v = h.find(f);
            if (!v || !is_number(*v)) {
                return fail("int path '" + where + "' hop missing numeric field '" +
                            f + "'");
            }
        }
        for (const char* f : {"ingress_tier", "egress_tier"}) {
            const auto* v = h.find(f);
            if (!v || v->kind() != ovsx::obs::Value::Kind::String) {
                return fail("int path '" + where + "' hop missing tier name '" + f + "'");
            }
        }
        if (h.find("count")->as_double() > 0 &&
            h.find("p99_ns")->as_double() < h.find("p50_ns")->as_double()) {
            return fail("int path '" + where + "' hop p99 below p50");
        }
    }
    return 0;
}

// One windowed-rate series entry as emitted by obs::Window::to_value().
int check_window_series(const std::string& where, const ovsx::obs::Value& series)
{
    static const char* kFields[] = {"rate_per_sec", "ewma_per_sec", "last_delta",
                                    "last_window_ns", "windows"};
    if (!series.is_object()) return fail("window series '" + where + "' is not an object");
    for (const char* f : kFields) {
        const auto* v = series.find(f);
        if (!v || !is_number(*v)) {
            return fail("window series '" + where + "' missing numeric field '" + f + "'");
        }
    }
    return 0;
}

} // namespace

int main(int argc, char** argv)
{
    if (argc < 2) {
        return fail("usage: obs_schema_check <metrics.json> [required.key ...] "
                    "[--require-histogram provider.tier ...] "
                    "[--require-counter name ...] "
                    "[--p99-not-above provider.tier provider.tier]");
    }

    std::vector<std::string> required_keys;
    std::vector<std::string> required_hists;
    std::vector<std::string> required_counters;
    std::vector<std::pair<std::string, std::string>> p99_guards;
    for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--require-histogram") == 0) {
            if (i + 1 >= argc) return fail("--require-histogram needs provider.tier");
            required_hists.emplace_back(argv[++i]);
        } else if (std::strcmp(argv[i], "--require-counter") == 0) {
            if (i + 1 >= argc) return fail("--require-counter needs a counter name");
            required_counters.emplace_back(argv[++i]);
        } else if (std::strcmp(argv[i], "--p99-not-above") == 0) {
            if (i + 2 >= argc) return fail("--p99-not-above needs two provider.tier args");
            p99_guards.emplace_back(argv[i + 1], argv[i + 2]);
            i += 2;
        } else {
            required_keys.emplace_back(argv[i]);
        }
    }

    std::ifstream in(argv[1]);
    if (!in) return fail(std::string("cannot open ") + argv[1]);
    std::ostringstream buf;
    buf << in.rdbuf();

    const auto doc = ovsx::obs::json_parse(buf.str());
    if (!doc) return fail("malformed JSON");

    const ovsx::obs::Value* schema = doc->find("schema");
    const std::string tag = schema ? schema->as_string() : "";
    // Every rejection names both sides: the tag we found and the tag we
    // require, so a CI log is diagnosable without opening the artifact.
    if (tag == "ovsx-obs-v1" || tag == "ovsx-obs-v2" || tag == "ovsx-obs-v3" ||
        tag == "ovsx-obs-v4") {
        return fail("artifact is schema '" + tag + "' but this checker requires '" +
                    ovsx::obs::kMetricsSchema + "' (regenerate the artifact with a "
                    "current binary — v1 lacks the histograms and windows sections, "
                    "v2 lacks the int section, v3 lacks the perf section, v4 lacks "
                    "the shards section)");
    }
    if (tag != ovsx::obs::kMetricsSchema) {
        return fail("schema tag found '" + (schema ? tag : std::string("<absent>")) +
                    "' but expected '" + ovsx::obs::kMetricsSchema + "'");
    }

    const ovsx::obs::Value* coverage = doc->find("coverage");
    if (!coverage || !coverage->is_object()) return fail("coverage object missing");
    for (const auto& [name, v] : coverage->members()) {
        // json_parse maps non-negative integers to Uint; anything else
        // here means a negative or non-integer counter leaked out.
        if (v.kind() != ovsx::obs::Value::Kind::Uint) {
            return fail("coverage counter '" + name + "' is not a non-negative integer");
        }
    }

    const ovsx::obs::Value* histograms = doc->find("histograms");
    if (!histograms || !histograms->is_object()) return fail("histograms object missing");
    std::size_t hist_tiers = 0;
    for (const auto& [provider, tiers] : histograms->members()) {
        if (!tiers.is_object()) {
            return fail("histograms provider '" + provider + "' is not an object");
        }
        for (const auto& [tier, stats] : tiers.members()) {
            if (const int rc = check_histogram_stats(provider + "." + tier, stats)) return rc;
            ++hist_tiers;
        }
    }

    const ovsx::obs::Value* windows = doc->find("windows");
    if (!windows || !windows->is_object()) return fail("windows object missing");
    std::size_t window_series = 0;
    for (const auto& [name, w] : windows->members()) {
        if (!w.is_object()) return fail("window '" + name + "' is not an object");
        for (const char* f : {"interval_ns", "windows"}) {
            const auto* v = w.find(f);
            if (!v || !is_number(*v)) {
                return fail("window '" + name + "' missing numeric field '" + f + "'");
            }
        }
        const auto* series = w.find("series");
        if (!series || !series->is_object()) {
            return fail("window '" + name + "' missing series object");
        }
        for (const auto& [sname, s] : series->members()) {
            if (const int rc = check_window_series(name + "/" + sname, s)) return rc;
            ++window_series;
        }
    }

    const ovsx::obs::Value* int_section = doc->find("int");
    if (!int_section || !int_section->is_object()) return fail("int object missing");
    const ovsx::obs::Value* int_paths = int_section->find("paths");
    if (!int_paths || !int_paths->is_object()) return fail("int.paths object missing");
    for (const auto& [key, path] : int_paths->members()) {
        if (const int rc = check_int_path(key, path)) return rc;
    }

    // v4: the PMD cycle profiler. Cumulative totals plus one entry per
    // live profiler instance; stage percentages are shares of the
    // virtual TSC, so they must stay within [0,100].
    const ovsx::obs::Value* perf = doc->find("perf");
    if (!perf || !perf->is_object()) return fail("perf object missing");
    for (const char* f : {"iterations", "packets", "suspicious"}) {
        const auto* v = perf->find(f);
        if (!v || !is_number(*v)) {
            return fail(std::string("perf missing numeric field '") + f + "'");
        }
    }
    const ovsx::obs::Value* perf_pmds = perf->find("pmds");
    if (!perf_pmds || !perf_pmds->is_object()) return fail("perf.pmds object missing");
    for (const auto& [pmd, p] : perf_pmds->members()) {
        if (!p.is_object()) return fail("perf pmd '" + pmd + "' is not an object");
        for (const char* f :
             {"iterations", "packets", "upcalls", "doorbells", "suspicious", "tsc"}) {
            const auto* v = p.find(f);
            if (!v || !is_number(*v)) {
                return fail("perf pmd '" + pmd + "' missing numeric field '" + f + "'");
            }
        }
        const auto* stages = p.find("stages");
        if (!stages || !stages->is_object()) {
            return fail("perf pmd '" + pmd + "' missing stages object");
        }
        for (const auto& [stage, s] : stages->members()) {
            if (!s.is_object()) {
                return fail("perf stage '" + pmd + "." + stage + "' is not an object");
            }
            for (const char* f : {"cycles", "pct"}) {
                const auto* v = s.find(f);
                if (!v || !is_number(*v)) {
                    return fail("perf stage '" + pmd + "." + stage +
                                "' missing numeric field '" + f + "'");
                }
            }
            const double pct = s.find("pct")->as_double();
            if (pct < 0.0 || pct > 100.0) {
                return fail("perf stage '" + pmd + "." + stage + "' pct out of [0,100]");
            }
        }
        for (const char* h : {"pkts_per_iter", "cycles_per_pkt"}) {
            const auto* stats = p.find(h);
            if (!stats) return fail("perf pmd '" + pmd + "' missing histogram '" + h + "'");
            if (const int rc = check_histogram_stats(pmd + "." + h, *stats)) return rc;
        }
    }

    // v5: the sharded tables. Each entry is one live sharded structure
    // ({"shard_count":N,"occupancy":[n0,...]}); shard_count must be a
    // power of two and the occupancy array exactly that long.
    const ovsx::obs::Value* shards = doc->find("shards");
    if (!shards || !shards->is_object()) return fail("shards object missing");
    for (const auto& [table, t] : shards->members()) {
        if (!t.is_object()) return fail("shards table '" + table + "' is not an object");
        const auto* count = t.find("shard_count");
        if (!count || count->kind() != ovsx::obs::Value::Kind::Uint) {
            return fail("shards table '" + table + "' missing shard_count");
        }
        const auto n = static_cast<std::uint64_t>(count->as_double());
        if (n == 0 || (n & (n - 1)) != 0) {
            return fail("shards table '" + table + "' shard_count is not a power of two");
        }
        const auto* occ = t.find("occupancy");
        if (!occ || !occ->is_array()) {
            return fail("shards table '" + table + "' missing occupancy array");
        }
        if (occ->items().size() != n) {
            return fail("shards table '" + table + "' occupancy length != shard_count");
        }
        for (const auto& o : occ->items()) {
            if (o.kind() != ovsx::obs::Value::Kind::Uint) {
                return fail("shards table '" + table +
                            "' occupancy entry is not a non-negative integer");
            }
        }
    }

    const ovsx::obs::Value* metrics = doc->find("metrics");
    if (!metrics || !metrics->is_object()) return fail("metrics object missing");

    for (const auto& key : required_keys) {
        if (!walk(*metrics, key)) return fail("required metrics key missing: " + key);
    }
    for (const auto& name : required_counters) {
        const auto* v = coverage->find(name);
        if (!v) return fail("required coverage counter missing: " + name);
        if (v->as_double() <= 0) return fail("required coverage counter is zero: " + name);
    }
    for (const auto& h : required_hists) {
        const auto* stats = walk(*histograms, h);
        if (!stats) return fail("required histogram missing: " + h);
        const auto* count = stats->find("count");
        if (!count || count->as_double() <= 0) {
            return fail("required histogram is empty: " + h);
        }
    }
    for (const auto& [a, b] : p99_guards) {
        const auto* sa = walk(*histograms, a);
        const auto* sb = walk(*histograms, b);
        if (!sa || !sa->find("p99")) return fail("p99 guard: histogram missing: " + a);
        if (!sb || !sb->find("p99")) return fail("p99 guard: histogram missing: " + b);
        const double pa = sa->find("p99")->as_double();
        const double pb = sb->find("p99")->as_double();
        if (pa > pb) {
            char msg[160];
            std::snprintf(msg, sizeof(msg),
                          "tier latency regression: p99(%s)=%.0fns > p99(%s)=%.0fns",
                          a.c_str(), pa, b.c_str(), pb);
            return fail(msg);
        }
    }

    std::printf("obs_schema_check: %s OK (%zu coverage counters, %zu histogram tiers, "
                "%zu window series, %zu int paths, %zu perf pmds, %zu sharded tables)\n",
                argv[1], coverage->members().size(), hist_tiers, window_series,
                int_paths->members().size(), perf_pmds->members().size(),
                shards->members().size());
    return 0;
}
