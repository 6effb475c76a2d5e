// Canned conntrack edge-case sequences shared by the conntrack unit
// tests (run under both the kernel and the userspace profile) and the
// fuzz corpus. Header-only and net-only so the test binaries (and the
// gen library) can include it without new link dependencies.
#pragma once

#include <cstdint>
#include <vector>

#include "net/builder.h"
#include "net/headers.h"
#include "net/packet.h"

namespace ovsx::gen {

// One canonical TCP 5-tuple used by every sequence below, so tests can
// assert against known addresses.
struct CtCorpusTuple {
    net::MacAddr client_mac = net::MacAddr::from_id(1);
    net::MacAddr server_mac = net::MacAddr::from_id(2);
    std::uint32_t client_ip = 0x0a000001; // 10.0.0.1
    std::uint32_t server_ip = 0x0a000002; // 10.0.0.2
    std::uint16_t client_port = 40000;
    std::uint16_t server_port = 443;
};

inline net::Packet ct_tcp(const CtCorpusTuple& t, bool from_client, std::uint8_t flags,
                          std::size_t payload = 0)
{
    net::TcpSpec s;
    s.src_mac = from_client ? t.client_mac : t.server_mac;
    s.dst_mac = from_client ? t.server_mac : t.client_mac;
    s.src_ip = from_client ? t.client_ip : t.server_ip;
    s.dst_ip = from_client ? t.server_ip : t.client_ip;
    s.src_port = from_client ? t.client_port : t.server_port;
    s.dst_port = from_client ? t.server_port : t.client_port;
    s.flags = flags;
    s.payload_len = payload;
    return net::build_tcp(s);
}

inline net::Packet ct_udp(const CtCorpusTuple& t, bool from_client)
{
    net::UdpSpec s;
    s.src_mac = from_client ? t.client_mac : t.server_mac;
    s.dst_mac = from_client ? t.server_mac : t.client_mac;
    s.src_ip = from_client ? t.client_ip : t.server_ip;
    s.dst_ip = from_client ? t.server_ip : t.client_ip;
    s.src_port = from_client ? t.client_port : t.server_port;
    s.dst_port = from_client ? t.server_port : t.client_port;
    return net::build_udp(s);
}

// Full three-way handshake: SYN, SYN|ACK, ACK.
inline std::vector<net::Packet> ct_handshake(const CtCorpusTuple& t = {})
{
    return {ct_tcp(t, true, net::kTcpSyn), ct_tcp(t, false, net::kTcpSyn | net::kTcpAck),
            ct_tcp(t, true, net::kTcpAck)};
}

// Handshake aborted by the server mid-way: SYN, then RST. The tracker
// must tear the half-open entry down so a following SYN starts NEW.
inline std::vector<net::Packet> ct_rst_mid_handshake(const CtCorpusTuple& t = {})
{
    return {ct_tcp(t, true, net::kTcpSyn), ct_tcp(t, false, net::kTcpRst | net::kTcpAck),
            ct_tcp(t, true, net::kTcpSyn)};
}

// A UDP exchange followed by an ICMP port-unreachable from the server
// citing the client's datagram — must classify RELATED, not NEW/INVALID.
inline std::vector<net::Packet> ct_icmp_related(const CtCorpusTuple& t = {})
{
    std::vector<net::Packet> seq;
    seq.push_back(ct_udp(t, true));

    net::IcmpSpec err;
    err.src_mac = t.server_mac;
    err.dst_mac = t.client_mac;
    err.src_ip = t.server_ip;
    err.dst_ip = t.client_ip;
    err.type = 3; // destination unreachable
    err.code = 3; // port unreachable
    seq.push_back(net::build_icmp_error(err, seq.front()));
    return seq;
}

// An ICMP error citing a tuple nothing ever tracked — must be INVALID.
inline net::Packet ct_icmp_unrelated(const CtCorpusTuple& t = {})
{
    CtCorpusTuple ghost = t;
    ghost.client_port = 1; // tuple never seen by the tracker
    net::Packet phantom = ct_udp(ghost, true);

    net::IcmpSpec err;
    err.src_mac = t.server_mac;
    err.dst_mac = t.client_mac;
    err.src_ip = t.server_ip;
    err.dst_ip = t.client_ip;
    err.type = 3;
    err.code = 3;
    return net::build_icmp_error(err, phantom);
}

} // namespace ovsx::gen
