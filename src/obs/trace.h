// Per-packet trace spans.
//
// An opt-in, fixed-capacity overwriting ring of TraceEvents recording a
// packet's journey through a datapath: nic-rx → xdp → rings/upcall →
// classifier tiers (emc / megaflow / kernel flow table / eBPF map /
// ofproto) → conntrack → actions → tx, each hop stamped with the
// packet's virtual timestamp and a verdict string.
//
// Packets are addressed by the `trace_id` in their PacketMeta; id 0
// means untraced and the entire layer costs one integer compare on the
// hot path. The differential harness assigns ids and sets the active
// domain ("netdev" / "kernel" / "ebpf") before injecting, so a
// divergent packet's journeys through all three providers can be
// dumped side by side.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ovsx::obs {

enum class Hop : std::uint8_t {
    NicRx,      // frame entered a NIC queue from the wire
    Xdp,        // XDP program verdict at the driver hook
    XskRx,      // delivered into (or dropped at) an AF_XDP rx ring
    Upcall,     // datapath miss, punted to userspace/ofproto
    Emc,        // exact-match cache probe
    Megaflow,   // megaflow (wildcarded) classifier probe
    KernelFlow, // kernel datapath flow-table probe
    EbpfLookup, // eBPF datapath map program run
    Ofproto,    // slow-path OpenFlow pipeline translation
    Ct,         // conntrack processing
    Action,     // one datapath action executed
    Meter,      // meter police decision
    Tx,         // transmitted out a port
    Drop,       // dropped
};

const char* to_string(Hop h);

struct TraceEvent {
    std::uint32_t packet_id = 0;
    Hop hop = Hop::NicRx;
    std::int64_t ts = 0;        // virtual ns (cumulative packet latency)
    const char* domain = "";    // provider tag active when recorded
    const char* verdict = "";   // e.g. "hit", "miss", "PASS", "ring-full"
    std::uint64_t a = 0;        // hop-specific detail (port, probes, ...)
    std::uint64_t b = 0;

    std::string to_string() const;
};

class Tracer {
public:
    // Enabling (re)sizes and clears the ring. Disabled by default.
    void enable(std::size_t capacity = 4096);
    void disable();
    bool enabled() const { return enabled_; }

    // `d` must outlive the tracer (string literals in practice).
    void set_domain(const char* d) { domain_ = d; }
    const char* domain() const { return domain_; }

    // Fresh nonzero packet id for a caller about to stamp PacketMeta.
    std::uint32_t next_packet_id() { return next_id_++; }

    void record(std::uint32_t packet_id, Hop hop, std::int64_t ts, const char* verdict,
                std::uint64_t a = 0, std::uint64_t b = 0);

    // Events for one packet, oldest first (ring order). Events
    // overwritten by wrap-around are gone — the ring keeps the newest.
    std::vector<TraceEvent> events_for(std::uint32_t packet_id) const;
    std::vector<TraceEvent> all() const;

    std::size_t capacity() const { return ring_.size(); }
    std::uint64_t recorded() const { return recorded_; }

    // Human-readable journey of one packet, grouped by domain.
    std::string dump(std::uint32_t packet_id) const;

    void clear();

private:
    bool enabled_ = false;
    const char* domain_ = "";
    std::uint32_t next_id_ = 1;
    std::vector<TraceEvent> ring_;
    std::size_t head_ = 0;       // next slot to write
    std::uint64_t recorded_ = 0; // total events ever recorded
};

// Process-global tracer used by all datapath instrumentation.
Tracer& tracer();

// Records one hop. Datapath code calls net::trace (net/billing.h),
// which skips untraced packets and stamps the packet's latency.
inline void trace(std::uint32_t packet_id, Hop hop, std::int64_t ts, const char* verdict,
                  std::uint64_t a = 0, std::uint64_t b = 0)
{
    tracer().record(packet_id, hop, ts, verdict, a, b);
}

} // namespace ovsx::obs
