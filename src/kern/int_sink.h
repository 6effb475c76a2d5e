// In-band telemetry (INT) on the datapaths. Every Geneve decap point
// (the kernel module's tunnel vport, dpif-netdev's userspace tunnel
// termination, the fabric's host shim) is a sink: it pops the INT
// option here and feeds its hop records to obs::int_export. Every
// datapath that transmits a frame already carrying the option stamps
// one hop record into it with int_stamp().
#pragma once

#include <cstdint>

#include "net/packet.h"
#include "net/tunnel.h"
#include "sim/context.h"
#include "sim/costs.h"

namespace ovsx::kern {

// A switch's part in fabric INT: attach the option at encap (origin
// hosts), stamp one hop record per transmitted frame that carries it.
struct IntConfig {
    bool enabled = false;
    std::uint32_t switch_id = 0;
    std::uint8_t tier = 0; // net::kIntTier{Host,Leaf,Spine}
    std::uint8_t max_hops = 8;
    bool attach_on_encap = true; // origin host adds the option
};

// Exports the INT hop records carried in a decapsulated frame's Geneve
// options (decap already stripped them from the frame). A no-op when
// the frame carried no options or no INT option.
void int_sink(const net::DecapResult& res);

// Appends this switch's hop record (switch id, tier, `occupancy`, the
// packet's cumulative latency in ticks) to a Geneve frame that already
// carries the INT option, and bills the record copy. Every other frame
// is left untouched; its inner bytes are never modified.
void int_stamp(net::Packet& pkt, const IntConfig& cfg, std::uint16_t occupancy,
               const sim::CostModel& costs, sim::ExecContext& ctx);

} // namespace ovsx::kern
