#include "kern/virtio.h"

#include "kern/kernel.h"
#include "net/billing.h"

namespace ovsx::kern {

bool VhostUserChannel::backend_tx(net::Packet&& pkt, sim::ExecContext& user_ctx)
{
    // Descriptor handling + the copy into guest memory (colder than a
    // cache-hot memcpy; see CostModel::vhost_copy_per_byte).
    const auto copy_cost = static_cast<sim::Nanos>(
        static_cast<double>(pkt.size()) * costs_.vhost_copy_per_byte);
    net::charge(user_ctx, pkt, costs_.vhost_ring_op);
    net::charge(user_ctx, pkt, copy_cost);
    // Interrupt the guest (eventfd -> KVM irqfd).
    if (!features_.guest_polling) net::charge(user_ctx, pkt, costs_.vhost_kick);
    if (guest_rx_) {
        guest_rx_(std::move(pkt), user_ctx);
        return true;
    }
    if (!to_guest_.produce(pkt)) {
        ++drops_;
        return false;
    }
    return true;
}

std::optional<net::Packet> VhostUserChannel::backend_rx(sim::ExecContext& user_ctx)
{
    auto pkt = to_backend_.consume();
    if (!pkt) return std::nullopt;
    const auto copy_cost = static_cast<sim::Nanos>(
        static_cast<double>(pkt->size()) * costs_.vhost_copy_per_byte);
    net::charge(user_ctx, *pkt, costs_.vhost_ring_op);
    net::charge(user_ctx, *pkt, copy_cost);
    return pkt;
}

bool VhostUserChannel::guest_tx(net::Packet&& pkt, sim::ExecContext& guest_ctx)
{
    net::charge(guest_ctx, pkt, costs_.vhost_ring_op);
    if (!to_backend_.produce(pkt)) {
        ++drops_;
        return false;
    }
    return true;
}

std::optional<net::Packet> VhostUserChannel::guest_rx_poll(sim::ExecContext& guest_ctx)
{
    auto pkt = to_guest_.consume();
    if (!pkt) return std::nullopt;
    guest_ctx.charge(costs_.vhost_ring_op);
    return pkt;
}

VirtioNetDevice::VirtioNetDevice(Kernel& guest_kernel, std::string name, net::MacAddr mac,
                                 VhostUserChannel& channel, sim::ExecContext& guest_ctx)
    : Device(guest_kernel, std::move(name), DeviceKind::VirtioNet, mac), channel_(channel),
      guest_ctx_(&guest_ctx)
{
    channel_.set_guest_rx([this](net::Packet&& pkt, sim::ExecContext&) {
        // Deliver into the guest's stack on the guest's own vCPU context.
        // The guest pays its own receive processing.
        deliver_rx(std::move(pkt), *guest_ctx_);
    });
}

void VirtioNetDevice::transmit(net::Packet&& pkt, sim::ExecContext& ctx)
{
    if (tx_csum_offload_ && channel_.features().csum_offload) {
        pkt.meta().csum_tx_offload = true;
    }
    if (tx_tso_segsz_ && channel_.features().tso) {
        pkt.meta().tso_segsz = tx_tso_segsz_;
    }
    note_tx(pkt);
    channel_.guest_tx(std::move(pkt), ctx);
}

} // namespace ovsx::kern
