#include "gen/harness.h"

#include <memory>

#include "dpdk/mempool.h"
#include "ebpf/programs.h"
#include "gen/testbed.h"
#include "gen/traffic.h"
#include "kern/nic.h"
#include "kern/ovs_kmod.h"
#include "kern/stack.h"
#include "kern/tap.h"
#include "kern/veth.h"
#include "net/billing.h"
#include "ovs/dpif_ebpf.h"
#include "ovs/dpif_netdev.h"
#include "ovs/netdev_dpdk.h"
#include "ovs/netdev_linux.h"
#include "ovs/netdev_vhost.h"

namespace ovsx::gen {

const char* to_string(Datapath d)
{
    switch (d) {
    case Datapath::Kernel: return "kernel";
    case Datapath::Afxdp: return "afxdp";
    case Datapath::Dpdk: return "dpdk";
    case Datapath::Ebpf: return "ebpf";
    }
    return "?";
}

const char* to_string(VDev v) { return v == VDev::Tap ? "tap" : "vhostuser"; }

const char* to_string(ContainerPath p)
{
    switch (p) {
    case ContainerPath::KernelVeth: return "kernel+veth";
    case ContainerPath::AfxdpXdp: return "afxdp+xdp";
    case ContainerPath::AfxdpUserspace: return "afxdp+veth";
    case ContainerPath::DpdkAfPacket: return "dpdk+afpacket";
    }
    return "?";
}

namespace {

using kern::OdpAction;

// Sums several contexts into one for aggregate stage reporting.
sim::ExecContext aggregate(const std::string& name, sim::CpuClass cls,
                           const std::vector<const sim::ExecContext*>& parts)
{
    sim::ExecContext agg(name, cls);
    for (const auto* part : parts) {
        agg.charge(sim::CpuClass::User, part->busy(sim::CpuClass::User));
        agg.charge(sim::CpuClass::System, part->busy(sim::CpuClass::System));
        agg.charge(sim::CpuClass::Softirq, part->busy(sim::CpuClass::Softirq));
        agg.charge(sim::CpuClass::Guest, part->busy(sim::CpuClass::Guest));
    }
    return agg;
}

// The parts' attached profilers, so an aggregate stage still reports
// profiler-derived class and stage cycles (the aggregate context itself
// carries no profiler — it is a throwaway sum).
std::vector<const obs::PmdPerf*> perfs_of(const std::vector<const sim::ExecContext*>& parts)
{
    std::vector<const obs::PmdPerf*> v;
    for (const auto* part : parts) {
        if (const obs::PmdPerf* perf = part->perf()) v.push_back(perf);
    }
    return v;
}

// Forward-everything datapath flow: in_port (+recirc 0) -> output.
void put_forward_flow(ovs::Dpif& dpif, std::uint32_t from, std::uint32_t to)
{
    net::FlowKey key;
    key.in_port = from;
    net::FlowMask mask;
    mask.bits.in_port = 0xffffffff;
    mask.bits.recirc_id = 0xffffffff;
    dpif.flow_put(key, mask, {OdpAction::output(to)});
}

void drain_pmds(ovs::DpifNetdev& dpif)
{
    bool moved = true;
    while (moved) {
        moved = false;
        for (int pmd = 0; pmd < dpif.pmd_count(); ++pmd) {
            if (dpif.pmd_poll_once(pmd) > 0) moved = true;
        }
    }
}

RateReport p2p_afxdp(const P2pConfig& cfg)
{
    kern::Kernel host("host");
    kern::NicConfig nic_cfg;
    nic_cfg.gbps = cfg.line_gbps;
    nic_cfg.num_queues = cfg.n_queues;
    auto& nic0 = host.add_device<kern::PhysicalDevice>("eth0", net::MacAddr::from_id(1), nic_cfg);
    auto& nic1 = host.add_device<kern::PhysicalDevice>("eth1", net::MacAddr::from_id(2), nic_cfg);
    std::uint64_t forwarded = 0;
    nic1.connect_wire([&](net::Packet&&) { ++forwarded; });

    ovs::DpifNetdev dpif(host);
    const auto p0 = dpif.add_port(std::make_unique<ovs::NetdevAfxdp>(nic0, cfg.afxdp));
    const auto p1 = dpif.add_port(std::make_unique<ovs::NetdevAfxdp>(nic1, cfg.afxdp));
    put_forward_flow(dpif, p0, p1);

    sim::ExecContext main_ctx("main", sim::CpuClass::User);
    main_ctx.attach_perf("main");
    if (cfg.afxdp.pmd_mode) {
        for (std::uint32_t q = 0; q < cfg.n_queues; ++q) {
            const int pmd = dpif.add_pmd("pmd" + std::to_string(q));
            dpif.pmd_assign(pmd, p0, q);
            dpif.pmd_assign(pmd, p1, q);
        }
    }

    TrafficGen gen({.n_flows = cfg.n_flows, .frame_size = cfg.frame_size});
    for (std::uint64_t i = 0; i < cfg.packets; ++i) {
        nic0.rx_from_wire(gen.next());
        if ((i & 63) == 63) {
            if (cfg.afxdp.pmd_mode) {
                drain_pmds(dpif);
            } else {
                while (dpif.main_thread_poll_once(main_ctx) > 0) {
                }
            }
        }
    }
    if (cfg.afxdp.pmd_mode) {
        drain_pmds(dpif);
    } else {
        while (dpif.main_thread_poll_once(main_ctx) > 0) {
        }
    }

    std::vector<const sim::ExecContext*> softirqs;
    for (std::uint32_t q = 0; q < cfg.n_queues; ++q) {
        softirqs.push_back(&nic0.softirq_ctx(q));
        softirqs.push_back(&nic1.softirq_ctx(q));
    }
    sim::ExecContext softirq = aggregate("softirq", sim::CpuClass::Softirq, softirqs);

    RateMeasure measure;
    measure.add_stage({"softirq", &softirq, StageKind::Demand,
                       static_cast<double>(cfg.n_queues), perfs_of(softirqs)});
    std::vector<sim::ExecContext> pmd_copies; // keep alive for report()
    if (cfg.afxdp.pmd_mode) {
        for (int pmd = 0; pmd < dpif.pmd_count(); ++pmd) {
            measure.add_stage({"pmd" + std::to_string(pmd), &dpif.pmd_ctx(pmd),
                               StageKind::Polling, 1});
        }
    } else {
        measure.add_stage({"main", &main_ctx, StageKind::Demand, 1});
    }
    return measure.report(cfg.packets,
                          sim::line_rate_pps(cfg.line_gbps, static_cast<int>(cfg.frame_size)));
}

RateReport p2p_dpdk(const P2pConfig& cfg)
{
    kern::Kernel host("host");
    kern::NicConfig nic_cfg;
    nic_cfg.gbps = cfg.line_gbps;
    nic_cfg.num_queues = cfg.n_queues;
    auto& nic0 = host.add_device<kern::PhysicalDevice>("eth0", net::MacAddr::from_id(1), nic_cfg);
    auto& nic1 = host.add_device<kern::PhysicalDevice>("eth1", net::MacAddr::from_id(2), nic_cfg);
    std::uint64_t forwarded = 0;
    nic1.connect_wire([&](net::Packet&&) { ++forwarded; });

    dpdk::Mempool pool(16384, 2176);
    ovs::DpifNetdev dpif(host);
    const auto p0 = dpif.add_port(std::make_unique<ovs::NetdevDpdk>(nic0, pool));
    const auto p1 = dpif.add_port(std::make_unique<ovs::NetdevDpdk>(nic1, pool));
    put_forward_flow(dpif, p0, p1);
    for (std::uint32_t q = 0; q < cfg.n_queues; ++q) {
        const int pmd = dpif.add_pmd("pmd" + std::to_string(q));
        dpif.pmd_assign(pmd, p0, q);
        dpif.pmd_assign(pmd, p1, q);
    }

    TrafficGen gen({.n_flows = cfg.n_flows, .frame_size = cfg.frame_size});
    for (std::uint64_t i = 0; i < cfg.packets; ++i) {
        nic0.rx_from_wire(gen.next());
        if ((i & 63) == 63) drain_pmds(dpif);
    }
    drain_pmds(dpif);

    RateMeasure measure;
    for (int pmd = 0; pmd < dpif.pmd_count(); ++pmd) {
        measure.add_stage({"pmd" + std::to_string(pmd), &dpif.pmd_ctx(pmd), StageKind::Polling,
                           1});
    }
    return measure.report(cfg.packets,
                          sim::line_rate_pps(cfg.line_gbps, static_cast<int>(cfg.frame_size)));
}

RateReport p2p_kernel(const P2pConfig& cfg)
{
    kern::Kernel host("host");
    // The kernel datapath relies on hardware RSS: many queues when the
    // workload has many flows, one otherwise.
    const std::uint32_t queues =
        cfg.n_flows > 1 ? static_cast<std::uint32_t>(cfg.kernel_rss_hyperthreads) : 1;
    kern::NicConfig nic_cfg;
    nic_cfg.gbps = cfg.line_gbps;
    nic_cfg.num_queues = queues;
    auto& nic0 = host.add_device<kern::PhysicalDevice>("eth0", net::MacAddr::from_id(1), nic_cfg);
    auto& nic1 = host.add_device<kern::PhysicalDevice>("eth1", net::MacAddr::from_id(2), nic_cfg);
    std::uint64_t forwarded = 0;
    nic1.connect_wire([&](net::Packet&&) { ++forwarded; });

    auto& dp = host.ovs_datapath();
    const auto p0 = dp.add_port(nic0);
    const auto p1 = dp.add_port(nic1);
    net::FlowKey key;
    key.in_port = p0;
    net::FlowMask mask;
    mask.bits.in_port = 0xffffffff;
    dp.flow_put(key, mask, {OdpAction::output(p1)});

    TrafficGen gen({.n_flows = cfg.n_flows, .frame_size = cfg.frame_size});
    for (std::uint64_t i = 0; i < cfg.packets; ++i) nic0.rx_from_wire(gen.next());

    std::vector<const sim::ExecContext*> softirqs;
    for (std::uint32_t q = 0; q < queues; ++q) softirqs.push_back(&nic0.softirq_ctx(q));
    sim::ExecContext softirq = aggregate("softirq", sim::CpuClass::Softirq, softirqs);

    RateMeasure measure;
    measure.add_stage({"softirq", &softirq, StageKind::Demand, static_cast<double>(queues),
                       perfs_of(softirqs)});
    return measure.report(cfg.packets,
                          sim::line_rate_pps(cfg.line_gbps, static_cast<int>(cfg.frame_size)));
}

RateReport p2p_ebpf(const P2pConfig& cfg)
{
    kern::Kernel host("host");
    kern::NicConfig nic_cfg;
    nic_cfg.gbps = cfg.line_gbps;
    auto& nic0 = host.add_device<kern::PhysicalDevice>("eth0", net::MacAddr::from_id(1), nic_cfg);
    auto& nic1 = host.add_device<kern::PhysicalDevice>("eth1", net::MacAddr::from_id(2), nic_cfg);
    std::uint64_t forwarded = 0;
    nic1.connect_wire([&](net::Packet&&) { ++forwarded; });

    ovs::DpifEbpf dpif(host);
    const auto p0 = dpif.add_port(nic0);
    const auto p1 = dpif.add_port(nic1);

    // Exact-match flows only: one per microflow (the structural gap).
    TrafficGen warm({.n_flows = cfg.n_flows, .frame_size = cfg.frame_size});
    for (std::uint32_t f = 0; f < cfg.n_flows; ++f) {
        net::Packet probe = warm.next();
        probe.meta().in_port = p0;
        dpif.flow_put(net::parse_flow(probe), ovs::DpifEbpf::required_mask(),
                      {OdpAction::output(p1)});
    }

    TrafficGen gen({.n_flows = cfg.n_flows, .frame_size = cfg.frame_size});
    for (std::uint64_t i = 0; i < cfg.packets; ++i) nic0.rx_from_wire(gen.next());

    sim::ExecContext softirq =
        aggregate("softirq", sim::CpuClass::Softirq, {&nic0.softirq_ctx(0), &nic1.softirq_ctx(0)});
    RateMeasure measure;
    measure.add_stage({"softirq", &softirq, StageKind::Demand, 1,
                       perfs_of({&nic0.softirq_ctx(0), &nic1.softirq_ctx(0)})});
    return measure.report(cfg.packets,
                          sim::line_rate_pps(cfg.line_gbps, static_cast<int>(cfg.frame_size)));
}

} // namespace

RateReport run_p2p(const P2pConfig& cfg)
{
    switch (cfg.datapath) {
    case Datapath::Afxdp: return p2p_afxdp(cfg);
    case Datapath::Dpdk: return p2p_dpdk(cfg);
    case Datapath::Kernel: return p2p_kernel(cfg);
    case Datapath::Ebpf: return p2p_ebpf(cfg);
    }
    return {};
}

namespace {

// Guest-side l2fwd bounce for a vhost channel: consume, charge the
// guest, send straight back.
void install_vhost_bounce(kern::VhostUserChannel& chan, sim::ExecContext& vcpu,
                          sim::Nanos guest_fwd_ns)
{
    kern::VhostUserChannel* c = &chan;
    sim::ExecContext* ctx = &vcpu;
    chan.set_guest_rx([c, ctx, guest_fwd_ns](net::Packet&& pkt, sim::ExecContext&) {
        net::charge(*ctx, sim::CpuClass::Guest, pkt, guest_fwd_ns);
        c->guest_tx(std::move(pkt), *ctx);
    });
}

RateReport pvp_userspace(const PvpConfig& cfg)
{
    kern::Kernel host("host");
    kern::NicConfig nic_cfg;
    nic_cfg.gbps = cfg.line_gbps;
    auto& nic0 = host.add_device<kern::PhysicalDevice>("eth0", net::MacAddr::from_id(1), nic_cfg);
    auto& nic1 = host.add_device<kern::PhysicalDevice>("eth1", net::MacAddr::from_id(2), nic_cfg);
    std::uint64_t forwarded = 0;
    nic1.connect_wire([&](net::Packet&&) { ++forwarded; });

    dpdk::Mempool pool(16384, 2176);
    ovs::DpifNetdev dpif(host);
    std::uint32_t p0, p1;
    if (cfg.datapath == Datapath::Dpdk) {
        p0 = dpif.add_port(std::make_unique<ovs::NetdevDpdk>(nic0, pool));
        p1 = dpif.add_port(std::make_unique<ovs::NetdevDpdk>(nic1, pool));
    } else {
        p0 = dpif.add_port(std::make_unique<ovs::NetdevAfxdp>(nic0, cfg.afxdp));
        p1 = dpif.add_port(std::make_unique<ovs::NetdevAfxdp>(nic1, cfg.afxdp));
    }

    sim::ExecContext vcpu("vcpu", sim::CpuClass::Guest);
    sim::ExecContext qemu("qemu", sim::CpuClass::User);
    std::uint32_t vm_port;
    std::unique_ptr<kern::VhostUserChannel> chan;
    kern::TapDevice* tap = nullptr;

    if (cfg.vdev == VDev::Vhost) {
        kern::VirtioFeatures features;
        features.guest_polling = true; // testpmd in the guest busy-polls
        chan = std::make_unique<kern::VhostUserChannel>(host.costs(), features);
        install_vhost_bounce(*chan, vcpu, cfg.guest_fwd_ns);
        vm_port = dpif.add_port(std::make_unique<ovs::NetdevVhost>("vhost0", *chan));
    } else {
        tap = &host.add_device<kern::TapDevice>("tap0", net::MacAddr::from_id(9));
        kern::TapDevice* tap_ptr = tap;
        sim::ExecContext* vcpu_ptr = &vcpu;
        sim::ExecContext* qemu_ptr = &qemu;
        const sim::Nanos guest_fwd = cfg.guest_fwd_ns;
        tap->set_fd_rx([tap_ptr, vcpu_ptr, qemu_ptr, guest_fwd](net::Packet&& pkt,
                                                                sim::ExecContext&) {
            // QEMU read + guest forwarding + QEMU write-back.
            net::charge(*qemu_ptr, sim::CpuClass::System, pkt, 520);
            net::charge(*vcpu_ptr, sim::CpuClass::Guest, pkt, guest_fwd);
            tap_ptr->fd_write(std::move(pkt), *qemu_ptr);
        });
        vm_port = dpif.add_port(std::make_unique<ovs::NetdevLinux>(*tap));
    }

    put_forward_flow(dpif, p0, vm_port);
    put_forward_flow(dpif, vm_port, p1);
    const int pmd = dpif.add_pmd("pmd0");
    dpif.pmd_assign(pmd, p0, 0);
    dpif.pmd_assign(pmd, vm_port, 0);

    TrafficGen gen({.n_flows = cfg.n_flows, .frame_size = cfg.frame_size});
    for (std::uint64_t i = 0; i < cfg.packets; ++i) {
        nic0.rx_from_wire(gen.next());
        if ((i & 31) == 31) drain_pmds(dpif);
    }
    drain_pmds(dpif);

    sim::ExecContext softirq =
        aggregate("softirq", sim::CpuClass::Softirq, {&nic0.softirq_ctx(0), &nic1.softirq_ctx(0)});
    RateMeasure measure;
    measure.add_stage({"softirq", &softirq, StageKind::Demand, 1,
                       perfs_of({&nic0.softirq_ctx(0), &nic1.softirq_ctx(0)})});
    measure.add_stage({"pmd0", &dpif.pmd_ctx(pmd), StageKind::Polling, 1});
    measure.add_stage({"vcpu", &vcpu, StageKind::Demand, 2}); // 2 vCPUs in the paper's VM
    measure.add_stage({"qemu", &qemu, StageKind::Demand, 1});
    return measure.report(cfg.packets,
                          sim::line_rate_pps(cfg.line_gbps, static_cast<int>(cfg.frame_size)));
}

RateReport pvp_kernel(const PvpConfig& cfg)
{
    kern::Kernel host("host");
    const std::uint32_t queues =
        cfg.n_flows > 1 ? static_cast<std::uint32_t>(cfg.kernel_rss_hyperthreads) : 1;
    kern::NicConfig nic_cfg;
    nic_cfg.gbps = cfg.line_gbps;
    nic_cfg.num_queues = queues;
    auto& nic0 = host.add_device<kern::PhysicalDevice>("eth0", net::MacAddr::from_id(1), nic_cfg);
    auto& nic1 = host.add_device<kern::PhysicalDevice>("eth1", net::MacAddr::from_id(2), nic_cfg);
    std::uint64_t forwarded = 0;
    nic1.connect_wire([&](net::Packet&&) { ++forwarded; });

    auto& tap = host.add_device<kern::TapDevice>("tap0", net::MacAddr::from_id(9));
    sim::ExecContext vcpu("vcpu", sim::CpuClass::Guest);
    sim::ExecContext qemu("qemu", sim::CpuClass::User);
    tap.set_fd_rx([&](net::Packet&& pkt, sim::ExecContext&) {
        net::charge(qemu, sim::CpuClass::System, pkt, 520);
        net::charge(vcpu, sim::CpuClass::Guest, pkt, cfg.guest_fwd_ns);
        tap.fd_write(std::move(pkt), qemu);
    });

    auto& dp = host.ovs_datapath();
    const auto p0 = dp.add_port(nic0);
    const auto p1 = dp.add_port(nic1);
    const auto pv = dp.add_port(tap);
    net::FlowMask mask;
    mask.bits.in_port = 0xffffffff;
    net::FlowKey k0;
    k0.in_port = p0;
    dp.flow_put(k0, mask, {OdpAction::output(pv)});
    net::FlowKey kv;
    kv.in_port = pv;
    dp.flow_put(kv, mask, {OdpAction::output(p1)});

    TrafficGen gen({.n_flows = cfg.n_flows, .frame_size = cfg.frame_size});
    for (std::uint64_t i = 0; i < cfg.packets; ++i) nic0.rx_from_wire(gen.next());

    std::vector<const sim::ExecContext*> softirqs;
    for (std::uint32_t q = 0; q < queues; ++q) softirqs.push_back(&nic0.softirq_ctx(q));
    sim::ExecContext softirq = aggregate("softirq", sim::CpuClass::Softirq, softirqs);
    RateMeasure measure;
    measure.add_stage({"softirq", &softirq, StageKind::Demand, static_cast<double>(queues),
                       perfs_of(softirqs)});
    measure.add_stage({"vcpu", &vcpu, StageKind::Demand, 2});
    measure.add_stage({"qemu", &qemu, StageKind::Demand, 1});
    return measure.report(cfg.packets,
                          sim::line_rate_pps(cfg.line_gbps, static_cast<int>(cfg.frame_size)));
}

} // namespace

RateReport run_pvp(const PvpConfig& cfg)
{
    if (cfg.datapath == Datapath::Kernel) return pvp_kernel(cfg);
    return pvp_userspace(cfg);
}

namespace {

// Container l2fwd: bounce frames arriving at the container's veth end.
void install_container_bounce(kern::VethDevice& inner, sim::ExecContext& app,
                              sim::ExecContext& ret_softirq, sim::Nanos fwd_ns)
{
    kern::VethDevice* dev = &inner;
    sim::ExecContext* app_ctx = &app;
    sim::ExecContext* ret = &ret_softirq;
    inner.set_rx_handler([dev, app_ctx, ret, fwd_ns](kern::Device&, net::Packet&& pkt,
                                                     sim::ExecContext&) {
        net::charge(*app_ctx, sim::CpuClass::User, pkt, fwd_ns);
        dev->transmit(std::move(pkt), *ret);
    });
}

} // namespace

RateReport run_pcp(const PcpConfig& cfg)
{
    kern::Kernel host("host");
    kern::NicConfig nic_cfg;
    nic_cfg.gbps = cfg.line_gbps;
    auto& nic0 = host.add_device<kern::PhysicalDevice>("eth0", net::MacAddr::from_id(1), nic_cfg);
    auto& nic1 = host.add_device<kern::PhysicalDevice>("eth1", net::MacAddr::from_id(2), nic_cfg);
    std::uint64_t forwarded = 0;
    nic1.connect_wire([&](net::Packet&&) { ++forwarded; });

    Container c = make_container(host, "c0", net::ipv4(172, 17, 0, 2));
    sim::ExecContext app("container-app", sim::CpuClass::User);
    sim::ExecContext ret_softirq("veth-softirq", sim::CpuClass::Softirq);
    install_container_bounce(*c.inner, app, ret_softirq, cfg.container_fwd_ns);

    RateMeasure measure;
    const double line = sim::line_rate_pps(cfg.line_gbps, static_cast<int>(cfg.frame_size));
    TrafficGen gen({.n_flows = cfg.n_flows, .frame_size = cfg.frame_size});

    switch (cfg.path) {
    case ContainerPath::KernelVeth: {
        auto& dp = host.ovs_datapath();
        const auto p0 = dp.add_port(nic0);
        const auto p1 = dp.add_port(nic1);
        const auto pc = dp.add_port(*c.host_end);
        net::FlowMask mask;
        mask.bits.in_port = 0xffffffff;
        net::FlowKey k0;
        k0.in_port = p0;
        dp.flow_put(k0, mask, {OdpAction::output(pc)});
        net::FlowKey kc;
        kc.in_port = pc;
        dp.flow_put(kc, mask, {OdpAction::output(p1)});
        // dp.add_port replaced the container bounce on host_end's peer?
        // No: the bounce lives on `inner`; host_end is the OVS port.
        for (std::uint64_t i = 0; i < cfg.packets; ++i) nic0.rx_from_wire(gen.next());

        sim::ExecContext softirq = aggregate(
            "softirq", sim::CpuClass::Softirq,
            {&nic0.softirq_ctx(0), &nic1.softirq_ctx(0), &ret_softirq});
        RateMeasure m;
        m.add_stage({"softirq", &softirq, StageKind::Demand, 2,
                     perfs_of({&nic0.softirq_ctx(0), &nic1.softirq_ctx(0), &ret_softirq})});
        m.add_stage({"container-app", &app, StageKind::Demand, 1});
        return m.report(cfg.packets, line);
    }
    case ContainerPath::AfxdpXdp: {
        // Pure in-kernel XDP chain (path C): NIC -> veth -> container ->
        // veth -> NIC, no userspace switch on the data path.
        auto devmap_in = std::make_shared<ebpf::Map>(ebpf::MapType::DevMap, "to_cont", 4, 4, 4);
        const std::uint32_t slot0 = 0;
        devmap_in->update_kv(slot0, static_cast<std::uint32_t>(c.host_end->ifindex()));
        nic0.attach_xdp(ebpf::xdp_redirect_to_dev(devmap_in, 0));

        auto devmap_out = std::make_shared<ebpf::Map>(ebpf::MapType::DevMap, "to_nic", 4, 4, 4);
        devmap_out->update_kv(slot0, static_cast<std::uint32_t>(nic1.ifindex()));
        c.host_end->attach_xdp(ebpf::xdp_redirect_to_dev(devmap_out, 0));

        for (std::uint64_t i = 0; i < cfg.packets; ++i) nic0.rx_from_wire(gen.next());

        sim::ExecContext softirq = aggregate(
            "softirq", sim::CpuClass::Softirq,
            {&nic0.softirq_ctx(0), &nic1.softirq_ctx(0), &ret_softirq});
        RateMeasure m;
        m.add_stage({"softirq", &softirq, StageKind::Demand, 1,
                     perfs_of({&nic0.softirq_ctx(0), &nic1.softirq_ctx(0), &ret_softirq})});
        m.add_stage({"container-app", &app, StageKind::Demand, 1});
        return m.report(cfg.packets, line);
    }
    case ContainerPath::AfxdpUserspace:
    case ContainerPath::DpdkAfPacket: {
        dpdk::Mempool pool(16384, 2176);
        ovs::DpifNetdev dpif(host);
        std::uint32_t p0, p1;
        if (cfg.path == ContainerPath::DpdkAfPacket) {
            p0 = dpif.add_port(std::make_unique<ovs::NetdevDpdk>(nic0, pool));
            p1 = dpif.add_port(std::make_unique<ovs::NetdevDpdk>(nic1, pool));
        } else {
            p0 = dpif.add_port(std::make_unique<ovs::NetdevAfxdp>(nic0, cfg.afxdp));
            p1 = dpif.add_port(std::make_unique<ovs::NetdevAfxdp>(nic1, cfg.afxdp));
        }
        const auto pc = dpif.add_port(std::make_unique<ovs::NetdevLinux>(*c.host_end));
        put_forward_flow(dpif, p0, pc);
        put_forward_flow(dpif, pc, p1);
        const int pmd = dpif.add_pmd("pmd0");
        dpif.pmd_assign(pmd, p0, 0);
        dpif.pmd_assign(pmd, pc, 0);

        for (std::uint64_t i = 0; i < cfg.packets; ++i) {
            nic0.rx_from_wire(gen.next());
            if ((i & 31) == 31) drain_pmds(dpif);
        }
        drain_pmds(dpif);

        sim::ExecContext softirq = aggregate(
            "softirq", sim::CpuClass::Softirq,
            {&nic0.softirq_ctx(0), &nic1.softirq_ctx(0), &ret_softirq});
        RateMeasure m;
        m.add_stage({"softirq", &softirq, StageKind::Demand, 1,
                     perfs_of({&nic0.softirq_ctx(0), &nic1.softirq_ctx(0), &ret_softirq})});
        m.add_stage({"pmd0", &dpif.pmd_ctx(pmd), StageKind::Polling, 1});
        m.add_stage({"container-app", &app, StageKind::Demand, 1});
        return m.report(cfg.packets, line);
    }
    }
    (void)measure;
    return {};
}

// ---------------------------------------------------------------------------
// Latency paths
// ---------------------------------------------------------------------------

namespace {

// Shared two-host topology for Fig. 10: client VM on host A, netperf
// server native on host B.
struct InterhostState {
    kern::Kernel host_a{"hostA"};
    kern::Kernel host_b{"hostB"};
    kern::PhysicalDevice* nic_a = nullptr;
    kern::PhysicalDevice* nic_b = nullptr;
    std::unique_ptr<ovs::DpifNetdev> dpif;
    std::unique_ptr<kern::VhostUserChannel> chan;
    std::unique_ptr<VhostVm> vm;
    std::unique_ptr<TapVm> tap_vm;
    std::unique_ptr<dpdk::Mempool> pool;
    sim::ExecContext server{"netserver", sim::CpuClass::User};
    Sink client_sink;
    int pmd = -1;
};

} // namespace

RrSetup make_interhost_vm_rr(Datapath dp)
{
    auto st = std::make_shared<InterhostState>();
    const auto client_ip = net::ipv4(10, 0, 0, 2);
    const auto server_ip = net::ipv4(10, 0, 0, 9);

    st->nic_a = &st->host_a.add_device<kern::PhysicalDevice>("eth0", net::MacAddr::from_id(1));
    st->nic_b = &st->host_b.add_device<kern::PhysicalDevice>("eth0", net::MacAddr::from_id(2));
    st->nic_a->connect_wire(
        [s = st.get()](net::Packet&& p) { s->nic_b->rx_from_wire(std::move(p)); });
    st->nic_b->connect_wire(
        [s = st.get()](net::Packet&& p) { s->nic_a->rx_from_wire(std::move(p)); });

    // Host B: native netperf server.
    st->host_b.stack().add_address(st->nic_b->ifindex(), server_ip, 24);
    st->host_b.stack().add_neighbor(client_ip, net::MacAddr::from_id(0x42),
                                    st->nic_b->ifindex());
    bind_udp_echo(st->host_b.stack(), 9999, st->server, /*endpoint_cost=*/1800);

    // Host A: OVS wiring per datapath.
    if (dp == Datapath::Kernel) {
        st->tap_vm = std::make_unique<TapVm>(st->host_a, "vm0", net::MacAddr::from_id(0x42),
                                             client_ip);
        auto& kdp = st->host_a.ovs_datapath();
        const auto pn = kdp.add_port(*st->nic_a);
        const auto pv = kdp.add_port(st->tap_vm->tap());
        net::FlowMask mask;
        mask.bits.in_port = 0xffffffff;
        net::FlowKey kv;
        kv.in_port = pv;
        kdp.flow_put(kv, mask, {OdpAction::output(pn)});
        net::FlowKey kn;
        kn.in_port = pn;
        kdp.flow_put(kn, mask, {OdpAction::output(pv)});
        st->tap_vm->kernel().stack().add_neighbor(server_ip, st->nic_b->mac(), 1);
        bind_udp_sink(st->tap_vm->kernel().stack(), 8888, st->client_sink);
    } else {
        st->dpif = std::make_unique<ovs::DpifNetdev>(st->host_a);
        std::uint32_t pn;
        if (dp == Datapath::Dpdk) {
            st->pool = std::make_unique<dpdk::Mempool>(8192, 2176);
            pn = st->dpif->add_port(std::make_unique<ovs::NetdevDpdk>(*st->nic_a, *st->pool));
        } else {
            pn = st->dpif->add_port(std::make_unique<ovs::NetdevAfxdp>(*st->nic_a));
        }
        st->vm = std::make_unique<VhostVm>(st->host_a.costs(), "vm0", net::MacAddr::from_id(0x42),
                                           client_ip);
        const auto pv =
            st->dpif->add_port(std::make_unique<ovs::NetdevVhost>("vhost0", st->vm->channel()));
        put_forward_flow(*st->dpif, pv, pn);
        put_forward_flow(*st->dpif, pn, pv);
        st->pmd = st->dpif->add_pmd("pmd0");
        st->dpif->pmd_assign(st->pmd, pn, 0);
        st->dpif->pmd_assign(st->pmd, pv, 0);
        st->vm->kernel().stack().add_neighbor(server_ip, st->nic_b->mac(), 1);
        bind_udp_sink(st->vm->kernel().stack(), 8888, st->client_sink);
    }

    RrSetup setup;
    setup.exchange = [st, dp]() -> sim::Nanos {
        const auto before = st->client_sink.packets;
        if (dp == Datapath::Kernel) {
            st->tap_vm->kernel().stack().send_udp(net::ipv4(10, 0, 0, 9), 8888, 9999, 1,
                                                  st->tap_vm->vcpu());
        } else {
            st->vm->kernel().stack().send_udp(net::ipv4(10, 0, 0, 9), 8888, 9999, 1,
                                              st->vm->vcpu());
            for (int i = 0; i < 64 && st->client_sink.packets == before; ++i) {
                st->dpif->pmd_poll_once(st->pmd);
            }
        }
        return st->client_sink.packets > before ? st->client_sink.last_latency : 0;
    };

    // Jitter calibration (anchors: Fig. 10 P50/P90/P99):
    //  kernel 58/68/94 us; DPDK 36/38/45; AF_XDP 39/41/53.
    switch (dp) {
    case Datapath::Kernel:
        // Interrupt-driven at every hop: NIC irq, tap wakeup, QEMU,
        // guest, server socket.
        setup.jitter = {6, 4594, 4839};
        break;
    case Datapath::Dpdk:
        // Host side polls; wakeups remain in the guest and the server.
        setup.jitter = {4, 7064, 1411};
        break;
    case Datapath::Afxdp:
        // Like DPDK plus the XDP/XSK softirq handoff; no HW csum hints
        // costs a little extra determinism (§5.3).
        setup.jitter = {4, 7596, 2195};
        break;
    default:
        setup.jitter = JitterModel::polling();
    }
    return setup;
}

namespace {

struct ContainerRrState {
    kern::Kernel host{"host"};
    Container c_client;
    Container c_server;
    std::unique_ptr<ovs::DpifNetdev> dpif;
    sim::ExecContext server{"netserver", sim::CpuClass::User};
    sim::ExecContext veth_softirq{"veth-softirq", sim::CpuClass::Softirq};
    Sink client_sink;
    int pmd = -1;
};

} // namespace

RrSetup make_container_rr(Datapath dp)
{
    auto st = std::make_shared<ContainerRrState>();
    st->c_client = make_container(st->host, "cc", net::ipv4(172, 17, 0, 2));
    st->c_server = make_container(st->host, "cs", net::ipv4(172, 17, 0, 3));

    bind_udp_echo(st->host.stack(st->c_server.ns_id), 9999, st->server, 1500);
    bind_udp_sink(st->host.stack(st->c_client.ns_id), 8888, st->client_sink);
    st->host.stack(st->c_client.ns_id)
        .add_neighbor(st->c_server.ip, st->c_server.inner->mac(), st->c_client.inner->ifindex());
    st->host.stack(st->c_server.ns_id)
        .add_neighbor(st->c_client.ip, st->c_client.inner->mac(), st->c_server.inner->ifindex());

    if (dp == Datapath::Kernel || dp == Datapath::Afxdp) {
        // Kernel: in-kernel OVS between the veths. AF_XDP: XDP redirect
        // between the veths (both stay in-kernel; Fig. 11 shows them
        // nearly identical).
        if (dp == Datapath::Kernel) {
            auto& kdp = st->host.ovs_datapath();
            const auto pa = kdp.add_port(*st->c_client.host_end);
            const auto pb = kdp.add_port(*st->c_server.host_end);
            net::FlowMask mask;
            mask.bits.in_port = 0xffffffff;
            net::FlowKey ka;
            ka.in_port = pa;
            kdp.flow_put(ka, mask, {OdpAction::output(pb)});
            net::FlowKey kb;
            kb.in_port = pb;
            kdp.flow_put(kb, mask, {OdpAction::output(pa)});
        } else {
            auto to_server = std::make_shared<ebpf::Map>(ebpf::MapType::DevMap, "s", 4, 4, 4);
            const std::uint32_t slot = 0;
            to_server->update_kv(slot,
                                 static_cast<std::uint32_t>(st->c_server.host_end->ifindex()));
            st->c_client.host_end->attach_xdp(ebpf::xdp_redirect_to_dev(to_server, 0));
            auto to_client = std::make_shared<ebpf::Map>(ebpf::MapType::DevMap, "c", 4, 4, 4);
            to_client->update_kv(slot,
                                 static_cast<std::uint32_t>(st->c_client.host_end->ifindex()));
            st->c_server.host_end->attach_xdp(ebpf::xdp_redirect_to_dev(to_client, 0));
        }
    } else {
        // DPDK: container ports are AF_PACKET netdevs polled by a PMD —
        // every hop pays user/kernel transitions and copies (§5.3).
        st->dpif = std::make_unique<ovs::DpifNetdev>(st->host);
        const auto pa =
            st->dpif->add_port(std::make_unique<ovs::NetdevLinux>(*st->c_client.host_end));
        const auto pb =
            st->dpif->add_port(std::make_unique<ovs::NetdevLinux>(*st->c_server.host_end));
        put_forward_flow(*st->dpif, pa, pb);
        put_forward_flow(*st->dpif, pb, pa);
        st->pmd = st->dpif->add_pmd("pmd0");
        st->dpif->pmd_assign(st->pmd, pa, 0);
        st->dpif->pmd_assign(st->pmd, pb, 0);
    }

    RrSetup setup;
    setup.exchange = [st, dp]() -> sim::Nanos {
        const auto before = st->client_sink.packets;
        st->host.stack(st->c_client.ns_id)
            .send_udp(st->c_server.ip, 8888, 9999, 1, st->veth_softirq);
        if (st->dpif) {
            for (int i = 0; i < 64 && st->client_sink.packets == before; ++i) {
                st->dpif->pmd_poll_once(st->pmd);
            }
        }
        return st->client_sink.packets > before ? st->client_sink.last_latency : 0;
    };

    // Anchors (Fig. 11): kernel/AF_XDP ~15/16/20 us; DPDK 81/136/241 us.
    switch (dp) {
    case Datapath::Kernel:
    case Datapath::Afxdp:
        setup.jitter = {2, 5726, 869};
        break;
    case Datapath::Dpdk:
        // AF_PACKET queueing behind a polling PMD: long, heavy tail.
        setup.jitter = {2, 9650, 27800};
        break;
    default:
        setup.jitter = JitterModel::polling();
    }
    return setup;
}

} // namespace ovsx::gen
