#include "ovs/dpif_netdev.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>

#include "kern/int_sink.h"
#include "kern/kernel.h"
#include "kern/timer_wheel.h"
#include "net/hash.h"
#include "net/headers.h"
#include "net/int_hdr.h"
#include "net/rewrite.h"
#include "obs/coverage.h"
#include "obs/perf.h"
#include "obs/trace.h"
#include "ovs/appctl_render.h"
#include "ovs/netdev_afxdp.h"
#include "san/packet_ledger.h"

namespace ovsx::ovs {

DpifNetdev::DpifNetdev(kern::Kernel& host, const sim::CostModel& costs)
    : host_(host), costs_(costs), ct_(costs), netlink_(host)
{
}

std::uint32_t DpifNetdev::add_port(std::unique_ptr<Netdev> netdev)
{
    const std::uint32_t port_no = next_port_no_++;
    Port port;
    port.port_no = port_no;
    port.name = netdev->name();
    // Map the backing kernel device (if any) for underlay resolution.
    if (kern::Device* dev = host_.device(netdev->name())) {
        ifindex_to_port_[dev->ifindex()] = port_no;
    }
    port.netdev = std::move(netdev);
    ports_.emplace(port_no, std::move(port));
    return port_no;
}

std::uint32_t DpifNetdev::add_tunnel_port(const std::string& name, net::TunnelType type,
                                          std::uint32_t local_ip)
{
    const std::uint32_t port_no = next_port_no_++;
    Port port;
    port.port_no = port_no;
    port.name = name;
    port.tunnel = type;
    port.tunnel_local_ip = local_ip;
    ports_.emplace(port_no, std::move(port));
    return port_no;
}

Netdev* DpifNetdev::port_netdev(std::uint32_t port_no)
{
    auto it = ports_.find(port_no);
    return it == ports_.end() ? nullptr : it->second.netdev.get();
}

std::optional<std::uint32_t> DpifNetdev::port_by_name(const std::string& name) const
{
    for (const auto& [no, port] : ports_) {
        if (port.name == name) return no;
    }
    return std::nullopt;
}

void DpifNetdev::flow_put(const net::FlowKey& key, const net::FlowMask& mask,
                          kern::OdpActions actions)
{
    megaflow_.insert(key, mask, std::move(actions));
}

void DpifNetdev::flow_flush()
{
    megaflow_.clear();
    emc_.clear();
}

std::vector<kern::OdpFlowEntry> DpifNetdev::flow_dump() const
{
    std::vector<kern::OdpFlowEntry> out;
    megaflow_.for_each_entry([&](const CachedFlow& flow, const net::FlowMask& mask) {
        out.push_back(kern::OdpFlowEntry{flow.masked_key, mask, flow.actions});
    });
    return out;
}

void DpifNetdev::register_appctl(obs::Appctl& appctl)
{
    appctl.register_command(
        "dpif-netdev/pmd-stats-show", "per-PMD datapath statistics",
        [this](const obs::Appctl::Args&) {
            // Instance-local totals: the global emc.hit/megaflow.hit
            // coverage counters aggregate every datapath instance the
            // process ever ran, so a fresh instance would report stale
            // history (and drift from pmd/perf-show, which is strictly
            // per-instance).
            obs::Value v = render_pmd_stats(type(), stats_hits_, upcall_count_, dropped_);
            obs::Value pmds = obs::Value::array();
            for (const Pmd& pmd : pmds_) {
                obs::Value row = obs::Value::object();
                row.set("name", pmd.name);
                row.set("rxqs", static_cast<std::uint64_t>(pmd.rxqs.size()));
                for (const char* name :
                     {"emc.hit", "emc.miss", "megaflow.hit", "megaflow.miss"}) {
                    row.set(name, pmd.ctx.counter(std::string(name)));
                }
                obs::Value busy = obs::Value::object();
                for (sim::CpuClass c : {sim::CpuClass::User, sim::CpuClass::System,
                                        sim::CpuClass::Softirq, sim::CpuClass::Guest}) {
                    busy.set(sim::to_string(c), static_cast<std::uint64_t>(pmd.ctx.busy(c)));
                }
                busy.set("total", static_cast<std::uint64_t>(pmd.ctx.total_busy()));
                row.set("busy_ns", std::move(busy));
                pmds.push(std::move(row));
            }
            v.set("pmds", std::move(pmds));
            return v;
        });
    appctl.register_command("dpctl/dump-flows", "installed datapath flows",
                            [this](const obs::Appctl::Args&) {
                                return render_flow_dump(flow_dump());
                            });
    appctl.register_command("conntrack/show", "tracked connections",
                            [this](const obs::Appctl::Args&) {
                                return render_ct_snapshot(ct_.snapshot());
                            });
    appctl.register_command(
        "xsk/ring-stats", "AF_XDP socket ring occupancy and delivery counters",
        [this](const obs::Appctl::Args&) {
            std::vector<XskRingRow> rows;
            for (const auto& [port_no, port] : ports_) {
                auto* afxdp = dynamic_cast<NetdevAfxdp*>(port.netdev.get());
                if (!afxdp) continue;
                for (std::uint32_t q = 0; q < afxdp->n_rxq(); ++q) {
                    afxdp::XskSocket& xsk = afxdp->xsk(q);
                    XskRingRow row;
                    row.dev = xsk.bound_dev();
                    row.queue = xsk.bound_queue();
                    row.rx_size = xsk.rx().size();
                    row.tx_size = xsk.tx().size();
                    row.fill_size = xsk.umem().fill().size();
                    row.comp_size = xsk.umem().comp().size();
                    row.rx_delivered = xsk.rx_delivered;
                    row.rx_dropped_no_frame = xsk.rx_dropped_no_frame;
                    row.rx_dropped_ring_full = xsk.rx_dropped_ring_full;
                    row.tx_completed = xsk.tx_completed;
                    rows.push_back(std::move(row));
                }
            }
            return render_xsk_rings(rows);
        });
    appctl.register_command(
        "dpif-netdev/pmd-rxq-show", "rxq-to-PMD assignment with windowed busy%",
        [this](const obs::Appctl::Args&) {
            std::vector<PmdRxqRow> rows;
            for (const Pmd& pmd : pmds_) {
                for (const Rxq& rxq : pmd.rxqs) {
                    PmdRxqRow row;
                    row.pmd = pmd.name;
                    auto it = ports_.find(rxq.port_no);
                    row.port = it != ports_.end() ? it->second.name
                                                  : std::to_string(rxq.port_no);
                    row.queue = rxq.queue;
                    row.busy_ns = rxq.busy_ns;
                    if (const obs::WindowedRate* wr = window_.series("rxq/" + rxq_name(rxq))) {
                        // EWMA busy-ns per second -> percent of the
                        // window, rounded to 2 decimals for stable text.
                        const double pct = wr->ewma_per_sec() / 1e9 * 100.0;
                        row.busy_pct = std::round(pct * 100.0) / 100.0;
                        row.windows = wr->windows();
                    }
                    rows.push_back(std::move(row));
                }
            }
            return render_pmd_rxq(type(), rows);
        });
    appctl.register_command(
        "pmd/perf-show", "per-PMD cycle profiler: stage cycles and iteration histograms",
        [this](const obs::Appctl::Args&) {
            std::vector<const obs::PmdPerf*> rows;
            for (const Pmd& pmd : pmds_) rows.push_back(pmd.ctx.perf());
            return render_pmd_perf(type(), rows);
        });
    appctl.register_command(
        "pmd/perf-log", "suspicious-iteration thresholds and flight-recorder dumps",
        [this](const obs::Appctl::Args&) {
            std::vector<const obs::PmdPerf*> rows;
            for (const Pmd& pmd : pmds_) rows.push_back(pmd.ctx.perf());
            return render_pmd_perf_log(type(), rows);
        });
    appctl.register_command(
        "dpif-netdev/pmd-rebalance", "rebalance rxqs across PMDs now",
        [this](const obs::Appctl::Args&) {
            const bool did = rebalance_now();
            obs::Value v = obs::Value::object();
            v.set("datapath", type());
            v.set("rebalanced", did);
            v.set("detail", did ? rebalance_events_.back().detail
                                : std::string("no improving assignment"));
            return v;
        });
}

void DpifNetdev::set_now(sim::Nanos now)
{
    now_ = now;
    ct_.tick(now); // occupancy counters + amortized timer-wheel expiry
    // Subtable ranking (OVS's dp_netdev_pmd_try_optimize), once per ct
    // wheel quantum rather than OVS's 1 s: bench phases last only tens
    // of virtual ms.
    const std::uint64_t quantum =
        static_cast<std::uint64_t>(now) >> kern::TimerWheel<std::uint64_t>::kDefaultTickShift;
    if (quantum != rank_quantum_) {
        rank_quantum_ = quantum;
        megaflow_.rerank();
    }
    if (window_.tick(now)) sample_window();
}

void DpifNetdev::set_shard_count(std::uint32_t n)
{
    shards_explicit_ = true;
    megaflow_.reshard(n);
    ct_.reshard(n);
}

void DpifNetdev::set_window_interval(sim::Nanos interval_ns)
{
    window_.set_interval(interval_ns);
    for (const char* name : {"emc.hit", "emc.miss", "megaflow.hit", "megaflow.miss",
                             "dpif_netdev.upcall", "batch.occupancy", "batch.flush"}) {
        window_.track_coverage(name);
    }
}

void DpifNetdev::set_auto_lb(bool enabled, double min_improvement)
{
    auto_lb_ = enabled;
    auto_lb_min_improvement_ = min_improvement > 1.0 ? min_improvement : 1.0;
}

std::string DpifNetdev::rxq_name(const Rxq& rxq) const
{
    auto it = ports_.find(rxq.port_no);
    const std::string port =
        it != ports_.end() ? it->second.name : std::to_string(rxq.port_no);
    return port + ":" + std::to_string(rxq.queue);
}

void DpifNetdev::sample_window()
{
    // Series are keyed by rxq (not by owning PMD) so a rebalance does
    // not restart a queue's EWMA history mid-flight.
    for (const Pmd& pmd : pmds_) {
        window_.feed("pmd/" + pmd.name, static_cast<std::uint64_t>(pmd.ctx.total_busy()));
        for (const Rxq& rxq : pmd.rxqs) {
            window_.feed("rxq/" + rxq_name(rxq), rxq.busy_ns);
        }
    }
    if (window_.closes() == 0) return; // priming tick
    // Publish before deciding, so every rebalance event is reproducible
    // from the published windowed metrics.
    obs::windows_publish("dpif-netdev", window_.to_value());
    if (auto_lb_) maybe_rebalance(auto_lb_min_improvement_);
}

bool DpifNetdev::maybe_rebalance(double min_improvement)
{
    OVSX_COVERAGE("pmd.autolb.check");
    if (pmds_.size() < 2) return false;

    struct Item {
        Rxq rxq;
        std::size_t old_pmd = 0;
        double load = 0.0;
    };
    std::vector<Item> items;
    bool any_windowed = false;
    for (std::size_t p = 0; p < pmds_.size(); ++p) {
        for (const Rxq& rxq : pmds_[p].rxqs) {
            const obs::WindowedRate* wr = window_.series("rxq/" + rxq_name(rxq));
            const double load = wr && wr->windows() > 0 ? wr->ewma_per_sec() : 0.0;
            if (load > 0.0) any_windowed = true;
            items.push_back(Item{rxq, p, load});
        }
    }
    if (items.empty()) return false;
    if (!any_windowed) {
        // No windowed signal yet (e.g. appctl trigger before the first
        // close): fall back to lifetime busy-ns for every rxq, never mix
        // the two units within one decision.
        for (Item& it : items) it.load = static_cast<double>(it.rxq.busy_ns);
    }

    std::vector<double> cur_load(pmds_.size(), 0.0);
    for (const Item& it : items) cur_load[it.old_pmd] += it.load;
    const double cur_max = *std::max_element(cur_load.begin(), cur_load.end());

    // OVS's pmd-auto-lb greedy: heaviest rxq first onto the least-loaded
    // PMD. Ties break deterministically (port, queue / lowest index).
    std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
        if (a.load != b.load) return a.load > b.load;
        if (a.rxq.port_no != b.rxq.port_no) return a.rxq.port_no < b.rxq.port_no;
        return a.rxq.queue < b.rxq.queue;
    });
    std::vector<double> new_load(pmds_.size(), 0.0);
    std::vector<std::vector<Rxq>> assignment(pmds_.size());
    std::size_t moves = 0;
    for (const Item& it : items) {
        const std::size_t target = static_cast<std::size_t>(
            std::min_element(new_load.begin(), new_load.end()) - new_load.begin());
        new_load[target] += it.load;
        assignment[target].push_back(it.rxq);
        if (target != it.old_pmd) ++moves;
    }
    const double new_max = *std::max_element(new_load.begin(), new_load.end());
    if (moves == 0 || !(new_max < cur_max)) return false;
    if (new_max > 0.0 && cur_max / new_max < min_improvement) return false;

    for (std::size_t p = 0; p < pmds_.size(); ++p) {
        pmds_[p].rxqs = std::move(assignment[p]);
    }
    char detail[160];
    std::snprintf(detail, sizeof detail, "moved %zu rxqs, busiest PMD load %.0f -> %.0f",
                  moves, cur_max, new_max);
    rebalance_events_.push_back(RebalanceEvent{now_, window_.closes(), detail});
    OVSX_COVERAGE("pmd.autolb.rebalance");
    return true;
}

bool DpifNetdev::rebalance_now()
{
    return maybe_rebalance(1.0);
}

int DpifNetdev::add_pmd(const std::string& name)
{
    Pmd pmd;
    pmd.name = name;
    pmd.ctx = sim::ExecContext(name, sim::CpuClass::User);
    // Always-on profiler, attached from birth so its class-cycle split
    // matches the context's busy() exactly.
    pmd.ctx.attach_perf(name);
    pmds_.push_back(std::move(pmd));
    if (!shards_explicit_) {
        // Default scale-out: one shard per PMD, rounded up to a power
        // of two. add_pmd is config-time, which is what reshard needs.
        std::uint32_t target = 1;
        while (target < pmds_.size() && target < MegaflowCache::kMaxShards) target <<= 1;
        megaflow_.reshard(target);
        ct_.reshard(target);
    }
    return static_cast<int>(pmds_.size()) - 1;
}

void DpifNetdev::pmd_assign(int pmd, std::uint32_t port_no, std::uint32_t queue)
{
    pmds_[static_cast<std::size_t>(pmd)].rxqs.push_back(Rxq{port_no, queue, 0});
}

std::uint32_t DpifNetdev::poll_rxq(std::uint32_t port_no, Netdev& netdev, std::uint32_t queue,
                                   sim::ExecContext& ctx)
{
    std::vector<net::Packet> batch;
    std::uint32_t n;
    {
        obs::PerfStageScope rx(ctx.perf(), obs::PerfStage::RxPoll);
        n = netdev.rx_burst(queue, batch, Netdev::kBatchSize, ctx);
    }
    if (n > 0) process_batch(port_no, std::move(batch), ctx);
    return n;
}

std::uint32_t DpifNetdev::pmd_poll_once(int pmd_index)
{
    Pmd& pmd = pmds_[static_cast<std::size_t>(pmd_index)];
    obs::PmdPerf* perf = pmd.ctx.perf();
    // One profiler iteration per poll cycle over the PMD's rxqs; the
    // "packets" of an iteration are classifier passes (recirculation
    // classifies again), which is what keeps pmd/perf-show packet
    // totals equal to pmd-stats-show hits+misses.
    const std::uint64_t classified_before = stats_hits_ + upcall_count_;
    if (perf) perf->begin_iteration();
    std::uint32_t processed = 0;
    for (Rxq& rxq : pmd.rxqs) {
        auto it = ports_.find(rxq.port_no);
        if (it == ports_.end() || !it->second.netdev) continue;
        const sim::Nanos busy_before = pmd.ctx.total_busy();
        processed += poll_rxq(rxq.port_no, *it->second.netdev, rxq.queue, pmd.ctx);
        // Everything the PMD spent on this queue's burst (poll included)
        // is the §4.2 "processing cycles" signal the auto-LB consumes.
        rxq.busy_ns += static_cast<std::uint64_t>(pmd.ctx.total_busy() - busy_before);
    }
    if (perf) perf->end_iteration(stats_hits_ + upcall_count_ - classified_before);
    return processed;
}

std::uint32_t DpifNetdev::main_thread_poll_once(sim::ExecContext& ctx)
{
    obs::PmdPerf* perf = ctx.perf();
    const std::uint64_t classified_before = stats_hits_ + upcall_count_;
    if (perf) perf->begin_iteration();
    std::uint32_t processed = 0;
    for (auto& [port_no, port] : ports_) {
        if (!port.netdev) continue;
        for (std::uint32_t q = 0; q < port.netdev->n_rxq(); ++q) {
            processed += poll_rxq(port_no, *port.netdev, q, ctx);
        }
    }
    if (perf) perf->end_iteration(stats_hits_ + upcall_count_ - classified_before);
    return processed;
}

void DpifNetdev::admit(net::Packet& pkt, std::uint32_t in_port, sim::ExecContext& ctx)
{
    san::skb_transition(pkt.san_id(), san::SkbState::Datapath, OVSX_SITE);
    pkt.meta().in_port = in_port;
    // Userspace tunnel termination: if the frame targets one of our
    // tunnel endpoints, strip the outer headers and re-badge the packet
    // as arriving on the tunnel vport.
    const auto* ip = pkt.try_header_at<net::Ipv4Header>(sizeof(net::EthernetHeader));
    if (!ip || ip->version() != 4) return;
    for (auto& [no, port] : ports_) {
        if (!port.tunnel || port.tunnel_local_ip != ip->dst()) continue;
        auto res = net::decapsulate(pkt, *port.tunnel);
        if (!res) continue;
        ctx.charge(costs_.parse_extract); // outer header parse
        kern::int_sink(*res);
        pkt.meta().tunnel = res->key;
        pkt.meta().in_port = no;
        return;
    }
}

void DpifNetdev::process_batch(std::uint32_t in_port, std::vector<net::Packet>&& batch,
                               sim::ExecContext& ctx)
{
    // No upcall handler or action polls a port, so the scratch batch
    // and the output batches belong to exactly one burst at a time.
    batching_outputs_ = true;
    if (scalar_spine_) {
        last_batch_occupancy_ = 1;
        for (auto& pkt : batch) {
            admit(pkt, in_port, ctx);
            pipeline(std::move(pkt), ctx, 0);
        }
    } else {
        // One scratch batch per datapath: constructing a PacketBatch
        // zero-fills its key/hash sideband, which dominated single-packet
        // bursts. Slots are written before they are read, so carry-over
        // between cycles is dead data.
        for (auto& pkt : batch) {
            batch_scratch_.add(std::move(pkt));
            if (batch_scratch_.full()) process_vector(in_port, ctx);
        }
        if (!batch_scratch_.empty()) process_vector(in_port, ctx);
    }
    batching_outputs_ = false;
    flush_output_batches(ctx);
}

// The VPP-style vector spine over batch_scratch_. Phase A runs the whole
// burst through admit + key extraction with the next packet's EMC bucket
// prefetched while the current one parses, then peeks the EMC
// (stats-free) to collect the probable-miss set and classifies it
// against the megaflow cache in one subtable-major pass. Phase B hands
// every packet, strictly in arrival order, to the same resolve() the
// scalar pipeline uses, so charges, counters, traces, EMC insert
// sampling and side-effect order are identical to scalar by
// construction. The batch lookup result is only a hint: resolve() drops
// it whenever the real in-order EMC lookup hits anyway, and Phase B
// withholds it once a mid-burst mutation (upcall flow_put, flow
// removal) moved the megaflow epoch.
void DpifNetdev::process_vector(std::uint32_t in_port, sim::ExecContext& ctx)
{
    constexpr std::size_t kCap = net::PacketBatch::kCapacity;
    net::PacketBatch& vec = batch_scratch_;
    const std::size_t n = vec.size();
    OVSX_COVERAGE_CTX(ctx, "batch.flush");
    OVSX_COVERAGE_CTX_N(ctx, "batch.occupancy", n);
    last_batch_occupancy_ = static_cast<std::uint16_t>(n);

    // ---- Phase A: admit + extract + prefetch -------------------------
    obs::PerfStageScope parse_scope(ctx.perf(), obs::PerfStage::EmcLookup);
    for (std::size_t i = 0; i < n; ++i) {
        net::Packet& pkt = vec.pkt(i);
        admit(pkt, in_port, ctx);
        ctx.charge(costs_.parse_extract);
        pkt.meta().latency_ns += costs_.parse_extract;
        vec.key(i) = net::parse_flow(pkt);
        vec.hash(i) = vec.key(i).hash();
        // The bucket for packet i warms while packet i+1 parses.
        emc_.prefetch(vec.hash(i));
    }

    // ---- Phase A2: one megaflow classify pass for the EMC-miss set ---
    std::array<const net::FlowKey*, kCap> miss_keys;
    std::array<MegaflowCache::LookupResult, kCap> miss_res;
    std::array<const MegaflowCache::LookupResult*, kCap> hint;
    hint.fill(nullptr);
    std::size_t n_miss = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (!emc_.peek(vec.key(i), vec.hash(i))) {
            miss_keys[n_miss] = &vec.key(i);
            hint[i] = &miss_res[n_miss++];
        }
    }
    const std::uint64_t epoch = megaflow_.epoch();
    if (n_miss > 0) megaflow_.lookup_batch(miss_keys.data(), n_miss, miss_res.data());

    // ---- Phase B: in-order resolve + execute -------------------------
    for (std::size_t i = 0; i < n; ++i) {
        // Nothing resolve() does before its megaflow stage touches the
        // classifier, so the epoch read here is the one the hint is
        // consumed under. A stale hint (an earlier packet's upcall) is
        // withheld and resolve() redoes the scalar lookup.
        resolve(vec.take(i), vec.key(i), vec.hash(i),
                megaflow_.epoch() == epoch ? hint[i] : nullptr, ctx, 0);
    }
    vec.clear();
}

void DpifNetdev::pipeline(net::Packet&& pkt, sim::ExecContext& ctx, int depth)
{
    if (depth > 8) {
        ++dropped_;
        return;
    }
    // Miniflow extraction.
    obs::PerfStageScope emc_scope(ctx.perf(), obs::PerfStage::EmcLookup);
    ctx.charge(costs_.parse_extract);
    pkt.meta().latency_ns += costs_.parse_extract;
    const net::FlowKey key = net::parse_flow(pkt);
    resolve(std::move(pkt), key, key.hash(), nullptr, ctx, depth);
}

void DpifNetdev::resolve(net::Packet&& pkt, const net::FlowKey& key, std::uint64_t hash,
                         const MegaflowCache::LookupResult* hint, sim::ExecContext& ctx,
                         int depth)
{
    obs::PmdPerf* perf = ctx.perf();

    // First level: EMC. Large lookup working sets spill out of the CPU
    // caches: one extra cold line per packet once the EMC holds many
    // flows (the 1-flow vs 1000-flow gap of Fig. 9).
    ctx.charge(costs_.emc_hit);
    pkt.meta().latency_ns += costs_.emc_hit;
    if (emc_.occupancy() > 128 || megaflow_.flow_count() > 128) {
        ctx.charge(costs_.cache_miss);
        pkt.meta().latency_ns += costs_.cache_miss;
    }
    if (const CachedFlowPtr flow = emc_.lookup_ref(key, hash)) {
        OVSX_COVERAGE_CTX(ctx, "emc.hit");
        ++stats_hits_;
        if (pkt.meta().trace_id) {
            obs::trace(pkt.meta().trace_id, obs::Hop::Emc, pkt.meta().latency_ns, "hit");
        }
        ++flow->hits;
        flow->bytes += pkt.size();
        // The shared reference keeps the actions alive even if a nested
        // upcall's flow_put replaces this flow mid-execution.
        run_actions(std::move(pkt), flow->actions, ctx, depth);
        return;
    }
    OVSX_COVERAGE_CTX(ctx, "emc.miss");
    if (pkt.meta().trace_id) {
        obs::trace(pkt.meta().trace_id, obs::Hop::Emc, pkt.meta().latency_ns, "miss");
    }

    // Second level: megaflow (tuple space search), or the vector
    // spine's batch classification of this packet.
    MegaflowCache::LookupResult res;
    {
        obs::PerfStageScope mf(perf, obs::PerfStage::MegaflowLookup);
        if (hint) {
            res = *hint;
            megaflow_.commit(res);
        } else {
            res = megaflow_.lookup(key);
        }
        ctx.charge(static_cast<sim::Nanos>(res.probes) * costs_.megaflow_probe);
        pkt.meta().latency_ns += static_cast<sim::Nanos>(res.probes) * costs_.megaflow_probe;
    }
    if (res.flow) {
        OVSX_COVERAGE_CTX(ctx, "megaflow.hit");
        ++stats_hits_;
        if (pkt.meta().trace_id) {
            obs::trace(pkt.meta().trace_id, obs::Hop::Megaflow, pkt.meta().latency_ns,
                       "hit", res.probes);
        }
        ++res.flow->hits;
        res.flow->bytes += pkt.size();
        if (++emc_insert_counter_ % emc_insert_inv_prob_ == 0) {
            obs::PerfStageScope ins(perf, obs::PerfStage::MegaflowLookup);
            emc_.insert(key, hash, res.flow);
            ctx.charge(costs_.emc_hit);
        }
        run_actions(std::move(pkt), res.flow->actions, ctx, depth);
        return;
    }

    // Slow path.
    OVSX_COVERAGE_CTX(ctx, "megaflow.miss");
    if (pkt.meta().trace_id) {
        obs::trace(pkt.meta().trace_id, obs::Hop::Megaflow, pkt.meta().latency_ns, "miss",
                   res.probes);
    }
    ++upcall_count_;
    if (perf) perf->note_upcall();
    if (!upcall_) {
        ++dropped_;
        if (pkt.meta().trace_id) {
            obs::trace(pkt.meta().trace_id, obs::Hop::Drop, pkt.meta().latency_ns,
                       "no-upcall-handler");
        }
        return;
    }
    OVSX_COVERAGE_CTX(ctx, "dpif_netdev.upcall");
    if (pkt.meta().trace_id) {
        obs::trace(pkt.meta().trace_id, obs::Hop::Upcall, pkt.meta().latency_ns, "");
    }
    obs::PerfStageScope up(perf, obs::PerfStage::Upcall);
    ctx.charge(costs_.upcall);
    pkt.meta().latency_ns += costs_.upcall;
    upcall_(pkt.meta().in_port, std::move(pkt), key, ctx);
}

void DpifNetdev::output(net::Packet&& pkt, std::uint32_t port_no, sim::ExecContext& ctx)
{
    auto it = ports_.find(port_no);
    if (it == ports_.end()) {
        ++dropped_;
        if (pkt.meta().trace_id) {
            obs::trace(pkt.meta().trace_id, obs::Hop::Drop, pkt.meta().latency_ns,
                       "no-such-port", port_no);
        }
        return;
    }
    Port& port = it->second;
    if (pkt.meta().trace_id && !port.tunnel) {
        obs::trace(pkt.meta().trace_id, obs::Hop::Tx, pkt.meta().latency_ns, "", port_no);
    }
    if (port.tunnel) {
        output_tunnel(std::move(pkt), port, ctx);
        return;
    }
    if (!port.netdev) {
        ++dropped_;
        return;
    }
    if (int_cfg_.enabled) maybe_int_stamp(pkt, ctx);
    if (batching_outputs_) {
        out_batches_[port_no].push_back(std::move(pkt));
        return;
    }
    obs::PerfStageScope tx(ctx.perf(), obs::PerfStage::Tx);
    port.netdev->tx_one(0, std::move(pkt), ctx);
}

void DpifNetdev::flush_output_batches(sim::ExecContext& ctx)
{
    // One tx_burst per destination port: this is where syscall / kick
    // amortisation across a batch comes from.
    obs::PerfStageScope tx(ctx.perf(), obs::PerfStage::Tx);
    auto batches = std::move(out_batches_);
    out_batches_.clear();
    for (auto& [port_no, pkts] : batches) {
        auto it = ports_.find(port_no);
        if (it == ports_.end() || !it->second.netdev) continue;
        it->second.netdev->tx_burst(0, std::move(pkts), ctx);
    }
}

void DpifNetdev::output_tunnel(net::Packet&& pkt, const Port& vport, sim::ExecContext& ctx)
{
    net::TunnelKey tkey = pkt.meta().tunnel;
    if (tkey.ip_src == 0) tkey.ip_src = vport.tunnel_local_ip;
    if (tkey.ip_dst == 0) {
        ++dropped_;
        return;
    }
    // Resolve the underlay next hop from the cached kernel tables — no
    // syscalls on this path (§4).
    const auto hop = netlink_.resolve(tkey.ip_dst);
    if (!hop) {
        ++dropped_;
        return;
    }
    auto out_port = ifindex_to_port_.find(hop->ifindex);
    if (out_port == ifindex_to_port_.end()) {
        ++dropped_;
        return;
    }

    net::EncapParams params;
    params.outer_src_mac = hop->src_mac;
    params.outer_dst_mac = hop->dst_mac;
    const net::FlowKey inner_key = net::parse_flow(pkt);
    params.udp_src_port =
        static_cast<std::uint16_t>(0xc000 | (net::rxhash_from_key(inner_key) & 0x3fff));
    net::encapsulate(pkt, *vport.tunnel, tkey, params);
    if (int_cfg_.enabled && int_cfg_.attach_on_encap &&
        *vport.tunnel == net::TunnelType::Geneve) {
        net::int_attach(pkt, int_cfg_.max_hops);
    }
    const auto c = costs_.copy(static_cast<std::int64_t>(net::encap_overhead(*vport.tunnel)));
    ctx.charge(c);
    pkt.meta().latency_ns += c;
    pkt.meta().tunnel = net::TunnelKey{};
    output(std::move(pkt), out_port->second, ctx);
}

void DpifNetdev::maybe_int_stamp(net::Packet& pkt, sim::ExecContext& ctx)
{
    // Only Geneve frames already carrying the INT option are stamped —
    // int_stamp() locates the option (or bails for every other frame)
    // and appends this switch's record in place. The inner frame bytes
    // are untouched.
    net::IntHop hop;
    hop.switch_id = int_cfg_.switch_id;
    hop.ingress_tier = int_cfg_.tier;
    hop.egress_tier = int_cfg_.tier;
    hop.occupancy = last_batch_occupancy_;
    hop.latency_ticks = static_cast<std::uint32_t>(
        pkt.meta().latency_ns / net::kIntTickNs);
    if (net::int_stamp(pkt, hop)) {
        OVSX_COVERAGE_CTX(ctx, "int.stamped");
        const auto c = costs_.copy(static_cast<std::int64_t>(sizeof(net::IntHopRecord)));
        ctx.charge(c);
        pkt.meta().latency_ns += c;
    }
}

void DpifNetdev::execute(net::Packet&& pkt, const kern::OdpActions& actions,
                         sim::ExecContext& ctx)
{
    run_actions(std::move(pkt), actions, ctx, 0);
    if (!batching_outputs_) flush_output_batches(ctx);
}

void DpifNetdev::run_actions(net::Packet&& pkt, const kern::OdpActions& actions,
                             sim::ExecContext& ctx, int depth)
{
    using Type = kern::OdpAction::Type;
    obs::PmdPerf* perf = ctx.perf();
    obs::PerfStageScope act_scope(perf, obs::PerfStage::Actions);
    for (std::size_t i = 0; i < actions.size(); ++i) {
        const kern::OdpAction& act = actions[i];
        switch (act.type) {
        case Type::Output: {
            if (i + 1 == actions.size()) {
                output(std::move(pkt), act.port, ctx);
                return;
            }
            net::Packet clone = pkt;
            ctx.charge(costs_.copy(static_cast<std::int64_t>(pkt.size())));
            output(std::move(clone), act.port, ctx);
            break;
        }
        case Type::PushVlan:
            net::push_vlan(pkt, act.vlan_tci);
            ctx.charge(costs_.copy(4));
            break;
        case Type::PopVlan:
            net::pop_vlan(pkt);
            ctx.charge(costs_.copy(4));
            break;
        case Type::SetField: {
            const int fields = net::apply_rewrite(pkt, act.set_value, act.set_mask);
            ctx.charge(static_cast<sim::Nanos>(fields) * 8);
            break;
        }
        case Type::SetTunnel:
            pkt.meta().tunnel = act.tunnel;
            break;
        case Type::Ct: {
            obs::PerfStageScope ct_scope(perf, obs::PerfStage::Ct);
            const net::FlowKey key = net::parse_flow(pkt);
            const std::uint8_t s = ct_.process(pkt, key, act.ct, ctx, now_);
            if (pkt.meta().trace_id) {
                obs::trace(pkt.meta().trace_id, obs::Hop::Ct, pkt.meta().latency_ns,
                           (s & net::kCtStateInvalid)       ? "invalid"
                           : (s & net::kCtStateEstablished) ? "established"
                           : (s & net::kCtStateRelated)     ? "related"
                                                            : "new",
                           act.ct.zone, s);
            }
            break;
        }
        case Type::Recirc:
            pkt.meta().recirc_id = act.recirc_id;
            pipeline(std::move(pkt), ctx, depth + 1);
            return;
        case Type::Meter:
            if (!meters_.admit(act.meter_id, pkt.size(), now_)) {
                ++dropped_;
                OVSX_COVERAGE_CTX(ctx, "meter.drop");
                if (pkt.meta().trace_id) {
                    obs::trace(pkt.meta().trace_id, obs::Hop::Meter, pkt.meta().latency_ns,
                               "drop", act.meter_id);
                }
                return;
            }
            break;
        case Type::Userspace:
            if (pkt.meta().trace_id) {
                obs::trace(pkt.meta().trace_id, obs::Hop::Action, pkt.meta().latency_ns,
                           "userspace-punt");
            }
            punted_.push_back(std::move(pkt));
            return;
        case Type::Drop:
            return;
        }
    }
    // Action list ended without a terminal action: implicit drop.
}

void DpifNetdev::revalidate()
{
    megaflow_.expire_idle();
    emc_.sweep();
    megaflow_.rerank();
    // Occupancy gauge, sampled once per revalidator cycle.
    if (const std::size_t flows = megaflow_.flow_count()) {
        OVSX_COVERAGE_N("mf.shard.occupancy", flows);
    }
}

} // namespace ovsx::ovs
