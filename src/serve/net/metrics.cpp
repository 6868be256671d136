#include "serve/net/metrics.hpp"

#include <cstdio>

namespace pphe::serve::net {

namespace {

void line_u64(std::string& out, const char* name, std::uint64_t v,
              const std::string& labels = "") {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s%s %llu\n", name, labels.c_str(),
                static_cast<unsigned long long>(v));
  out += buf;
}

void line_f64(std::string& out, const char* name, double v,
              const std::string& labels = "") {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s%s %.9g\n", name, labels.c_str(), v);
  out += buf;
}

void head(std::string& out, const char* name, const char* type,
          const char* help) {
  out += "# HELP ";
  out += name;
  out += ' ';
  out += help;
  out += "\n# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

}  // namespace

std::string render_prometheus(
    const StatsSnapshot& batch, const NetServerStats& net,
    const KeyRegistry::Stats& keys,
    const std::map<std::string, std::uint64_t>& backend_ops,
    const GaloisKeyStats& galois_keys, std::size_t queue_capacity) {
  std::string out;
  out.reserve(4096);

  // --- request outcomes ---------------------------------------------------
  head(out, "pphe_requests_submitted_total", "counter",
       "requests accepted into the batch queue");
  line_u64(out, "pphe_requests_submitted_total", batch.submitted);
  head(out, "pphe_requests_completed_total", "counter",
       "replies delivered, by result");
  line_u64(out, "pphe_requests_completed_total", batch.ok,
           "{result=\"ok\"}");
  line_u64(out, "pphe_requests_completed_total", batch.degraded,
           "{result=\"degraded\"}");
  line_u64(out, "pphe_requests_completed_total", batch.failed,
           "{result=\"failed\"}");
  head(out, "pphe_requests_rejected_total", "counter",
       "submit-time rejections by typed error code");
  for (std::size_t i = 0; i < kErrorCodeCount; ++i) {
    const auto code = static_cast<ErrorCode>(i);
    // Always expose the admission-relevant codes so dashboards can rate()
    // them from zero; other codes appear once they fire.
    if (batch.rejected[i] == 0 && code != ErrorCode::kOverloaded &&
        code != ErrorCode::kInvalidArgument) {
      continue;
    }
    line_u64(out, "pphe_requests_rejected_total", batch.rejected[i],
             std::string("{code=\"") + error_code_name(code) + "\"}");
  }

  // --- queue / batching ---------------------------------------------------
  head(out, "pphe_queue_depth", "gauge", "requests awaiting batching");
  line_u64(out, "pphe_queue_depth", batch.queue_depth);
  head(out, "pphe_queue_capacity", "gauge", "admission-control capacity");
  line_u64(out, "pphe_queue_capacity", queue_capacity);
  head(out, "pphe_batches_in_flight", "gauge", "batches cut but not replied");
  line_u64(out, "pphe_batches_in_flight", batch.batches_in_flight);
  head(out, "pphe_batches_total", "counter", "batches dispatched");
  line_u64(out, "pphe_batches_total", batch.batches);
  head(out, "pphe_batch_retries_total", "counter",
       "extra evaluation attempts beyond the first, summed over batches");
  line_u64(out, "pphe_batch_retries_total", batch.retries);
  head(out, "pphe_batch_size_total", "counter",
       "batches dispatched, by coalesced size");
  for (const auto& [size, count] : batch.batch_sizes) {
    line_u64(out, "pphe_batch_size_total", count,
             "{size=\"" + std::to_string(size) + "\"}");
  }

  // --- latency series (seconds) -------------------------------------------
  head(out, "pphe_latency_seconds", "summary",
       "serving latency by stage (from log2-ns histograms)");
  const struct {
    const char* stage;
    double p50_ns, p99_ns;
  } stages[] = {
      {"queue", batch.queue_p50_ns, batch.queue_p99_ns},
      {"linger", batch.linger_p50_ns, batch.linger_p99_ns},
      {"eval", batch.eval_p50_ns, batch.eval_p99_ns},
  };
  for (const auto& s : stages) {
    line_f64(out, "pphe_latency_seconds", s.p50_ns * 1e-9,
             std::string("{stage=\"") + s.stage + "\",quantile=\"0.5\"}");
    line_f64(out, "pphe_latency_seconds", s.p99_ns * 1e-9,
             std::string("{stage=\"") + s.stage + "\",quantile=\"0.99\"}");
  }
  head(out, "pphe_eval_seconds_sum", "counter",
       "total wall time spent in batch evaluations");
  line_f64(out, "pphe_eval_seconds_sum", batch.eval_total_ns * 1e-9);
  head(out, "pphe_eval_batches_count", "counter",
       "batch evaluations timed into pphe_eval_seconds_sum");
  line_u64(out, "pphe_eval_batches_count", batch.eval_count);

  // --- transport ----------------------------------------------------------
  head(out, "pphe_net_connections_total", "counter", "connections accepted");
  line_u64(out, "pphe_net_connections_total", net.connections);
  head(out, "pphe_net_active_connections", "gauge",
       "connections currently handled");
  line_u64(out, "pphe_net_active_connections", net.active_connections);
  head(out, "pphe_net_refused_connections_total", "counter",
       "connections refused over max_connections");
  line_u64(out, "pphe_net_refused_connections_total",
           net.refused_connections);
  head(out, "pphe_net_handshakes_total", "counter", "completed hellos");
  line_u64(out, "pphe_net_handshakes_total", net.handshakes);
  head(out, "pphe_net_frames_total", "counter", "frames by direction");
  line_u64(out, "pphe_net_frames_total", net.frames_in, "{dir=\"in\"}");
  line_u64(out, "pphe_net_frames_total", net.frames_out, "{dir=\"out\"}");
  head(out, "pphe_net_bytes_total", "counter", "frame bytes by direction");
  line_u64(out, "pphe_net_bytes_total", net.bytes_in, "{dir=\"in\"}");
  line_u64(out, "pphe_net_bytes_total", net.bytes_out, "{dir=\"out\"}");
  head(out, "pphe_net_http_scrapes_total", "counter", "GET /metrics hits");
  line_u64(out, "pphe_net_http_scrapes_total", net.http_scrapes);
  head(out, "pphe_net_frame_rejects_total", "counter",
       "connection-level typed rejections (corrupt/oversize/late frames)");
  // Every code always appears (zeros included): a scraper's rate() needs
  // the series to exist BEFORE the first reject, and the quick gate checks
  // that no declared family is sample-less.
  for (std::size_t i = 0; i < kErrorCodeCount; ++i) {
    line_u64(out, "pphe_net_frame_rejects_total", net.frame_rejects[i],
             std::string("{code=\"") +
                 error_code_name(static_cast<ErrorCode>(i)) + "\"}");
  }
  head(out, "pphe_net_sheds_total", "counter",
       "requests shed by tiered admission control");
  for (std::size_t t = 0; t < kTierCount; ++t) {
    line_u64(out, "pphe_net_sheds_total", net.sheds[t],
             std::string("{tier=\"") + tier_name(static_cast<Tier>(t)) +
                 "\"}");
  }

  // --- key registry -------------------------------------------------------
  head(out, "pphe_key_sessions", "gauge", "sessions with registered keys");
  line_u64(out, "pphe_key_sessions", keys.sessions);
  head(out, "pphe_key_bytes_pinned", "gauge",
       "evaluation-key bytes pinned in the registry");
  line_u64(out, "pphe_key_bytes_pinned", keys.bytes_pinned);
  head(out, "pphe_key_quota_bytes", "gauge", "registry byte quota");
  line_u64(out, "pphe_key_quota_bytes", keys.quota_bytes);
  head(out, "pphe_key_registrations_total", "counter",
       "key uploads accepted");
  line_u64(out, "pphe_key_registrations_total", keys.registrations);
  head(out, "pphe_key_evictions_total", "counter",
       "sessions LRU-evicted under quota pressure");
  line_u64(out, "pphe_key_evictions_total", keys.evictions);
  head(out, "pphe_key_evicted_rejects_total", "counter",
       "requests refused with key_evicted (client must re-send keys)");
  line_u64(out, "pphe_key_evicted_rejects_total", net.key_evicted_rejects);

  // --- evaluator key material ---------------------------------------------
  head(out, "pphe_galois_keys", "gauge",
       "Galois keys resident in the evaluator");
  line_u64(out, "pphe_galois_keys", galois_keys.keys);
  head(out, "pphe_galois_key_bytes", "gauge",
       "bytes of resident Galois keys, precomputed tables included");
  line_u64(out, "pphe_galois_key_bytes", galois_keys.bytes);

  // --- homomorphic-op counters (HeBackend OpKind) -------------------------
  head(out, "pphe_backend_ops_total", "counter",
       "homomorphic primitive invocations by OpKind");
  for (const auto& [op, count] : backend_ops) {
    line_u64(out, "pphe_backend_ops_total", count,
             "{op=\"" + op + "\"}");
  }
  return out;
}

}  // namespace pphe::serve::net
