#include "kern/tap.h"

#include "kern/kernel.h"
#include "net/billing.h"

namespace ovsx::kern {

TapDevice::TapDevice(Kernel& kernel, std::string name, net::MacAddr mac)
    : Device(kernel, std::move(name), DeviceKind::Tap, mac)
{
}

void TapDevice::fd_write(net::Packet&& pkt, sim::ExecContext& writer_ctx)
{
    const auto& costs = kernel().costs();
    // write() on the tun fd + skb allocation inside the kernel.
    net::charge(writer_ctx, sim::CpuClass::System, pkt, costs.syscall);
    net::charge(writer_ctx, sim::CpuClass::System, pkt, costs.skb_alloc);
    net::charge(writer_ctx, sim::CpuClass::System, pkt,
                costs.copy(static_cast<std::int64_t>(pkt.size())));
    deliver_rx(std::move(pkt), writer_ctx);
}

void TapDevice::packet_socket_send(net::Packet&& pkt, sim::ExecContext& user_ctx)
{
    const auto& costs = kernel().costs();
    // The measured ~2 µs tap sendto cost (§3.3): syscall + skb alloc +
    // copy + qdisc, folded into one calibrated constant.
    net::charge(user_ctx, sim::CpuClass::System, pkt, costs.tap_sendto);
    note_tx(pkt);
    if (fd_rx_) {
        fd_rx_(std::move(pkt), user_ctx);
        return;
    }
    fd_queue_.push_back(std::move(pkt));
}

void TapDevice::transmit(net::Packet&& pkt, sim::ExecContext& ctx)
{
    const auto& costs = kernel().costs();
    net::charge(ctx, pkt, costs.nic_tx_desc);
    note_tx(pkt);
    if (fd_rx_) {
        fd_rx_(std::move(pkt), ctx);
        return;
    }
    fd_queue_.push_back(std::move(pkt));
}

std::optional<net::Packet> TapDevice::fd_read()
{
    if (fd_queue_.empty()) return std::nullopt;
    net::Packet pkt = std::move(fd_queue_.front());
    fd_queue_.pop_front();
    return pkt;
}

} // namespace ovsx::kern
