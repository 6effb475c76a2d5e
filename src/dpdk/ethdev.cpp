#include "dpdk/ethdev.h"

#include "kern/kernel.h"
#include "net/billing.h"
#include "obs/coverage.h"
#include "obs/perf.h"

namespace ovsx::dpdk {

EthDev::EthDev(kern::PhysicalDevice& nic, Mempool& pool) : nic_(nic), pool_(pool)
{
    queues_.resize(nic.config().num_queues);
    nic_.dpdk_take_over([this](net::Packet&& pkt, std::uint32_t queue) {
        auto& q = queues_[queue < queues_.size() ? queue : 0];
        if (q.size() >= kQueueDepth) {
            ++rx_dropped_;
            return;
        }
        // Hardware RX offloads still apply — the PMD programs them via
        // its own descriptors.
        pkt.meta().csum_verified = nic_.config().rx_csum;
        q.push_back(std::move(pkt));
    });
}

EthDev::~EthDev() { nic_.dpdk_release(); }

std::uint32_t EthDev::rx_burst(std::uint32_t queue, std::vector<net::Packet>& out,
                               std::uint32_t max, sim::ExecContext& pmd)
{
    const auto& costs = nic_.kernel().costs();
    auto& q = queues_[queue < queues_.size() ? queue : 0];
    std::uint32_t n = 0;
    while (n < max && !q.empty()) {
        net::charge(pmd, q.front(), costs.dpdk_rx_desc + costs.mbuf_op);
        out.push_back(std::move(q.front()));
        q.pop_front();
        ++n;
    }
    if (n > 0) {
        // One RX tail-register update for the whole burst, not one per
        // descriptor; the cost is amortized so it charges the PMD but
        // no individual packet's latency.
        pmd.charge(costs.nic_doorbell);
        OVSX_COVERAGE_CTX(pmd, "dpdk.rx_doorbell");
        if (auto* perf = pmd.perf()) perf->note_doorbell();
    }
    OVSX_COVERAGE_CTX(pmd, "dpdk.rx_burst");
    return n;
}

void EthDev::tx_burst(std::uint32_t queue, std::vector<net::Packet>&& pkts,
                      sim::ExecContext& pmd)
{
    (void)queue;
    const auto& costs = nic_.kernel().costs();
    if (pkts.empty()) return;
    for (auto& pkt : pkts) {
        net::charge(pmd, pkt, costs.dpdk_tx_desc + costs.mbuf_op);
        nic_.hw_transmit(std::move(pkt));
    }
    // One TX doorbell per burst (the per-packet variant is what the
    // XDP_TX row of Table 5 pays).
    obs::PerfStageScope tx_scope(pmd.perf(), obs::PerfStage::Tx);
    pmd.charge(costs.nic_doorbell);
    OVSX_COVERAGE_CTX(pmd, "dpdk.tx_doorbell");
    if (auto* perf = pmd.perf()) perf->note_doorbell();
}

} // namespace ovsx::dpdk
