// Per-packet billing: one call bills a cost to both views of virtual
// time at once. The context pays it as CPU time (Mpps, Table 4,
// pmd/perf-show stages: the charge lands in the context's open
// PerfStage); the packet pays it as latency (Figs. 10/11, latency/show,
// INT hop ticks, trace timestamps). A cost that only one side pays is
// written out at its site with the reason; DESIGN.md §5 lists them.
#pragma once

#include <cstdint>

#include "net/packet.h"
#include "obs/trace.h"
#include "sim/context.h"

namespace ovsx::net {

// Charges `ns` to `ctx` in CPU class `c` and adds it to the packet's
// latency.
inline void charge(sim::ExecContext& ctx, sim::CpuClass c, Packet& pkt, sim::Nanos ns)
{
    ctx.charge(c, ns);
    pkt.meta().latency_ns += ns;
}

// Same, in the context's default CPU class.
inline void charge(sim::ExecContext& ctx, Packet& pkt, sim::Nanos ns)
{
    charge(ctx, ctx.default_class(), pkt, ns);
}

// Records one trace hop stamped with the packet's latency so far. An
// untraced packet (trace_id 0) costs one integer compare.
inline void trace(const Packet& pkt, obs::Hop hop, const char* verdict, std::uint64_t a = 0,
                  std::uint64_t b = 0)
{
    if (pkt.meta().trace_id) {
        obs::trace(pkt.meta().trace_id, hop, pkt.meta().latency_ns, verdict, a, b);
    }
}

} // namespace ovsx::net
