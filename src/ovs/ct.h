// Userspace connection tracking with NAT.
//
// The paper's §4/§6: once the datapath moved to userspace, OVS had to
// reimplement the kernel's conntrack/NAT. Here the reimplementation is
// the kernel's own core (kern/conntrack.h) under the userspace profile:
// lookups and inserts are charged as EMC probes, and the table reports
// under the "ovs.uct" / "uct.*" / "userspace_ct.*" names.
#pragma once

#include <cstdint>

#include "kern/conntrack.h"

namespace ovsx::ovs {

using kern::CtTuple;

class UserspaceConntrack : public kern::Conntrack {
public:
    explicit UserspaceConntrack(const sim::CostModel& costs = sim::CostModel::baseline(),
                                std::uint32_t shards = 1)
        : kern::Conntrack(kern::kUserspaceCtProfile, costs, shards)
    {
    }
};

} // namespace ovsx::ovs
