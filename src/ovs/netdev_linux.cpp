#include "ovs/netdev_linux.h"

#include "kern/kernel.h"
#include "kern/tap.h"
#include "net/billing.h"
#include "net/builder.h"

namespace ovsx::ovs {

NetdevLinux::NetdevLinux(kern::Device& dev) : Netdev(dev.name()), dev_(dev)
{
    dev_.set_rx_handler([this](kern::Device&, net::Packet&& pkt, sim::ExecContext&) {
        if (rx_queue_.size() >= kQueueDepth) return; // socket buffer overflow
        rx_queue_.push_back(std::move(pkt));
    });
}

NetdevLinux::~NetdevLinux() { dev_.clear_rx_handler(); }

std::uint32_t NetdevLinux::rx_burst(std::uint32_t queue, std::vector<net::Packet>& out,
                                    std::uint32_t max, sim::ExecContext& ctx)
{
    (void)queue;
    if (rx_queue_.empty()) return 0;
    const auto& costs = dev_.kernel().costs();
    // One recvmmsg() syscall per batch, one copy out of the kernel per
    // packet.
    ctx.charge(sim::CpuClass::System, costs.syscall);
    std::uint32_t n = 0;
    while (n < max && !rx_queue_.empty()) {
        net::Packet pkt = std::move(rx_queue_.front());
        rx_queue_.pop_front();
        net::charge(ctx, sim::CpuClass::System, pkt,
                    costs.copy(static_cast<std::int64_t>(pkt.size())));
        // The CPU pays the recvmmsg() once per batch; every packet waits for it.
        pkt.meta().latency_ns += costs.syscall;
        note_rx(pkt);
        out.push_back(std::move(pkt));
        ++n;
    }
    return n;
}

void NetdevLinux::tx_burst(std::uint32_t queue, std::vector<net::Packet>&& pkts,
                           sim::ExecContext& ctx)
{
    (void)queue;
    const auto& costs = dev_.kernel().costs();
    bool first_in_batch = true;
    for (auto& pkt : pkts) {
        // Checksums must be real before entering the kernel path unless
        // the tap peer negotiated offloads (vnet headers) — keep it
        // simple: materialise them here in software.
        if (pkt.meta().csum_tx_offload) {
            net::refresh_l4_csum(pkt, 14);
            ctx.charge(costs.csum(static_cast<std::int64_t>(pkt.size())));
            pkt.meta().csum_tx_offload = false;
        }
        note_tx(pkt);
        // Packet sockets accept no GSO super-segments: OVS must send one
        // frame per MSS, each paying most of the §3.3 sendto cost (the
        // Fig. 8(c) "path A + TSO" ceiling).
        if (pkt.meta().tso_segsz > 0) {
            const std::size_t mss = pkt.meta().tso_segsz;
            const std::size_t payload = pkt.size() > 54 ? pkt.size() - 54 : 0;
            const auto nsegs = static_cast<sim::Nanos>((payload + mss - 1) / mss);
            const auto per_seg = costs.tap_sendto * 9 / 10; // sendmmsg shaves ~10%
            net::charge(ctx, sim::CpuClass::System, pkt, nsegs * per_seg);
        }
        // One sendmmsg() per batch pays the full ~2 us syscall cost
        // (§3.3); later packets in the same batch only pay the in-kernel
        // skb + copy share.
        if (first_in_batch) {
            first_in_batch = false;
            if (auto* tap = dynamic_cast<kern::TapDevice*>(&dev_)) {
                tap->packet_socket_send(std::move(pkt), ctx);
                continue;
            }
            net::charge(ctx, sim::CpuClass::System, pkt, costs.tap_sendto);
            dev_.transmit(std::move(pkt), ctx);
            continue;
        }
        const auto share =
            costs.skb_alloc + costs.copy(static_cast<std::int64_t>(pkt.size())) + 350;
        net::charge(ctx, sim::CpuClass::System, pkt, share);
        if (auto* tap = dynamic_cast<kern::TapDevice*>(&dev_)) {
            // Bypass the full-cost helper: deliver to the fd holder.
            sim::ExecContext& c = ctx;
            tap->transmit(std::move(pkt), c);
        } else {
            dev_.transmit(std::move(pkt), ctx);
        }
    }
}

} // namespace ovsx::ovs
