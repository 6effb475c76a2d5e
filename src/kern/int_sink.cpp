#include "kern/int_sink.h"

#include <vector>

#include "net/billing.h"
#include "net/int_hdr.h"
#include "obs/coverage.h"
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

void int_stamp(net::Packet& pkt, const IntConfig& cfg, std::uint16_t occupancy,
               const sim::CostModel& costs, sim::ExecContext& ctx)
{
    net::IntHop hop;
    hop.switch_id = cfg.switch_id;
    hop.ingress_tier = cfg.tier;
    hop.egress_tier = cfg.tier;
    hop.occupancy = occupancy;
    hop.latency_ticks = static_cast<std::uint32_t>(pkt.meta().latency_ns / net::kIntTickNs);
    if (net::int_stamp(pkt, hop)) {
        OVSX_COVERAGE_CTX(ctx, "int.stamped");
        net::charge(ctx, pkt, costs.copy(static_cast<std::int64_t>(sizeof(net::IntHopRecord))));
    }
}

} // namespace ovsx::kern
