// INT sink: the last hop of an in-band telemetry path. Every Geneve
// decap point (the kernel module's tunnel vport, dpif-netdev's userspace
// tunnel termination, the fabric's host shim) pops the INT option here
// and feeds its hop records to obs::int_export.
#pragma once

#include "net/tunnel.h"

namespace ovsx::kern {

// Exports the INT hop records carried in a decapsulated frame's Geneve
// options (decap already stripped them from the frame). A no-op when
// the frame carried no options or no INT option.
void int_sink(const net::DecapResult& res);

} // namespace ovsx::kern
