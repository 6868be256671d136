#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "serve/net/key_registry.hpp"
#include "serve/net/net_server.hpp"
#include "serve/server.hpp"

namespace pphe::serve::net {

/// Renders the Prometheus text-exposition payload (`GET /metrics`) from one
/// consistent StatsSnapshot of the batch server plus the transport, key-
/// registry, backend OpKind counters, and the backend's resident Galois
/// keys. Pure function of its inputs so tests and benches can validate the
/// payload without a socket.
///
/// Conventions: counters end in `_total`, gauges don't; latency series are
/// seconds with a `quantile` label (derived from the log2-ns histograms of
/// the snapshot — approximate, like the histograms themselves).
std::string render_prometheus(
    const StatsSnapshot& batch, const NetServerStats& net,
    const KeyRegistry::Stats& keys,
    const std::map<std::string, std::uint64_t>& backend_ops,
    const GaloisKeyStats& galois_keys, std::size_t queue_capacity);

}  // namespace pphe::serve::net
