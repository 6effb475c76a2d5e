#include "kern/veth.h"

#include "kern/kernel.h"
#include "net/billing.h"

namespace ovsx::kern {

VethDevice::VethDevice(Kernel& kernel, std::string name, net::MacAddr mac)
    : Device(kernel, std::move(name), DeviceKind::Veth, mac)
{
}

std::pair<VethDevice*, VethDevice*> VethDevice::create_pair(Kernel& kernel,
                                                            const std::string& name_a,
                                                            const std::string& name_b, int ns_a,
                                                            int ns_b)
{
    auto& a = kernel.add_device<VethDevice>(name_a, net::MacAddr::from_id(
                                                        static_cast<std::uint32_t>(
                                                            std::hash<std::string>{}(name_a))));
    auto& b = kernel.add_device<VethDevice>(name_b, net::MacAddr::from_id(
                                                        static_cast<std::uint32_t>(
                                                            std::hash<std::string>{}(name_b))));
    a.peer_ = &b;
    b.peer_ = &a;
    a.set_ns(ns_a);
    b.set_ns(ns_b);
    return {&a, &b};
}

void VethDevice::transmit(net::Packet&& pkt, sim::ExecContext& ctx)
{
    note_tx(pkt);
    if (!peer_) return;
    // In-kernel hop: small fixed cost, no copy.
    net::charge(ctx, pkt, kernel().costs().nic_rx_desc);
    peer_->receive(std::move(pkt), ctx);
}

void VethDevice::receive(net::Packet&& pkt, sim::ExecContext& ctx)
{
    if (prog_) {
        const XdpVerdict verdict =
            kernel().run_xdp(*prog_, pkt, *this, 0, ctx);
        switch (verdict) {
        case XdpVerdict::Drop:
        case XdpVerdict::Aborted:
            ++stats().rx_dropped;
            return;
        case XdpVerdict::Tx:
            if (peer_) peer_->receive(std::move(pkt), ctx);
            return;
        case XdpVerdict::RedirectedXsk:
        case XdpVerdict::RedirectedDev:
            ++stats().rx_packets;
            stats().rx_bytes += pkt.size();
            return;
        case XdpVerdict::PassToStack:
        case XdpVerdict::NoProgram:
            break;
        }
    }
    deliver_rx(std::move(pkt), ctx);
}

} // namespace ovsx::kern
