#include "kern/int_sink.h"

#include <vector>

#include "net/int_hdr.h"
#include "obs/int_export.h"

namespace ovsx::kern {

void int_sink(const net::DecapResult& res)
{
    if (res.geneve_opts.empty()) return;
    bool truncated = false;
    const auto hops = net::int_parse_options(res.geneve_opts, &truncated);
    if (hops.empty() && !truncated) return;
    std::vector<obs::IntHopSample> samples;
    samples.reserve(hops.size());
    for (const auto& h : hops) {
        samples.push_back({h.switch_id, h.ingress_tier, h.egress_tier, h.occupancy,
                           static_cast<std::int64_t>(h.latency_ticks) * net::kIntTickNs});
    }
    obs::int_export(res.key.ip_src, res.key.ip_dst, samples, truncated);
}

} // namespace ovsx::kern
