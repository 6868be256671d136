// cnn1-enc / cnn2-enc: the paper's Table III / Table V setting. One
// closed-loop client in process runs encrypt_input -> eval ->
// decrypt_logits on a HeModel with encrypted weights and k=3 RNS branches.

#include <memory>
#include <numeric>

#include "bench.hpp"
#include "ckks/rns_backend.hpp"
#include "common/stats.hpp"
#include "common/trace.hpp"
#include "core/he_model.hpp"
#include "trace_split.hpp"

namespace perfbench {

using namespace pphe;

namespace {

/// Images below which a run keeps measuring past --seconds.
constexpr std::size_t kMinRequests = 4;

struct Request {
  double encrypt_s = 0.0, eval_s = 0.0, decrypt_s = 0.0;
  double eval_cpu_s = 0.0;
  std::vector<double> logits;
  double latency() const { return encrypt_s + eval_s + decrypt_s; }
};

/// One classification through the public HeModel calls, each wrapped in a
/// benchmark span tagged with the request id.
Request classify(const HeModel& model, const std::vector<float>& image,
                 std::uint64_t id) {
  Request q;
  trace::Span request_span("bench.request", "bench");
  request_span.attr("req", static_cast<double>(id));
  Stopwatch sw;
  std::vector<Ciphertext> inputs;
  {
    trace::Span span("bench.encrypt", "bench");
    span.attr("req", static_cast<double>(id));
    inputs = model.encrypt_input(image);
  }
  q.encrypt_s = sw.seconds();
  const double cpu0 = cpu_seconds();
  sw.reset();
  Ciphertext out;
  {
    trace::Span span("bench.eval", "bench");
    span.attr("req", static_cast<double>(id));
    out = model.eval(inputs);
  }
  q.eval_s = sw.seconds();
  q.eval_cpu_s = cpu_seconds() - cpu0;
  sw.reset();
  {
    trace::Span span("bench.decrypt", "bench");
    span.attr("req", static_cast<double>(id));
    q.logits = model.decrypt_logits(out);
  }
  q.decrypt_s = sw.seconds();
  return q;
}

}  // namespace

RunResult run_enc(Arch arch, const Args& args) {
  const Model m = load_model(arch, args.cache_dir);
  ImagePicker images(args.seed);
  Checker checker(m.spec);
  RunResult r;

  // --- set-up: keygen, compile (weight encryption, Galois keys), and the
  // lazy first evaluation.
  CkksParams params = CkksParams::fast_profile();
  params.seed = args.seed;
  Stopwatch setup;
  RnsBackend backend(params);
  HeModelOptions opts;
  opts.encrypted_weights = true;
  opts.rns_branches = 3;
  opts.weight_cache = std::make_shared<WeightOperandCache>();
  Stopwatch sw;
  const HeModel model(backend, m.spec, opts);
  const double compile_s = sw.seconds();
  sw.reset();
  {
    const std::vector<float>& image = images.next();
    checker.check(image, classify(model, image, 0).logits);
  }
  const double first_eval_s = sw.seconds();
  const double setup_s = setup.seconds();
  const WeightOperandCache::Stats cache = opts.weight_cache->stats();

  // --- timed closed loop. With --trace 1, every other request is traced
  // (and the trace drained right after it); the untraced ones give the
  // overhead reference.
  TraceCollector collector(m.spec, m.conv_stages);
  std::vector<double> latency, encrypt, eval, decrypt, eval_traced;
  double eval_cpu = 0.0, eval_wall = 0.0;
  Counters per_request{};
  bool counts_exact = true;
  Stopwatch run;
  for (std::uint64_t id = 1;
       run.seconds() < args.seconds || latency.size() < kMinRequests; ++id) {
    const bool traced = args.trace && id % 2 == 0;
    const std::vector<float>& image = images.next();
    const Counters before = Counters::read(backend);
    trace::set_enabled(traced);
    const Request q = classify(model, image, id);
    trace::set_enabled(false);
    const Counters delta = Counters::read(backend) - before;
    if (traced) collector.drain();
    if (id == 1) per_request = delta;
    counts_exact = counts_exact && delta == per_request;
    ++r.attempted;
    checker.check(image, q.logits);
    (traced ? eval_traced : eval).push_back(q.eval_s);
    if (traced) continue;
    latency.push_back(q.latency());
    encrypt.push_back(q.encrypt_s);
    decrypt.push_back(q.decrypt_s);
    eval_cpu += q.eval_cpu_s;
    eval_wall += q.eval_s;
  }

  Metrics& e = r.end_to_end;
  e.set("setup_s", setup_s, "s");
  e.set("peak_rss_mb", peak_rss_mb(), "MB");
  e.set("match_rate", checker.match_rate(), "fraction");

  const SplitTotals& t = collector.totals();
  const double traced_n =
      eval_traced.empty() ? 1.0 : static_cast<double>(eval_traced.size());
  Metrics& l = r.per_layer;
  l.set("latency_p50_s", quantile(latency, 0.5), "s");
  // The open-loop tail and its latency limit belong to cnn1-serve.
  l.set("latency_p90_s", 0.0, "s");
  l.set("slo_frac", 0.0, "fraction");
  // Images the one closed-loop client completed per second of its untraced
  // requests: 1 / mean latency.
  l.set("throughput_img_s",
        static_cast<double>(latency.size()) /
            std::accumulate(latency.begin(), latency.end(), 0.0),
        "img/s");
  l.set("core.compile_s", compile_s, "s");
  l.set("core.first_eval_s", first_eval_s, "s");
  l.set("core.encrypt_s", quantile(encrypt, 0.5), "s");
  l.set("core.eval_s", quantile(eval, 0.5), "s");
  l.set("core.decrypt_s", quantile(decrypt, 0.5), "s");
  l.set("core.layer.conv_s", t.conv_s / traced_n, "s");
  l.set("core.layer.slaf_s", t.slaf_s / traced_n, "s");
  l.set("core.layer.dense_s", t.dense_s / traced_n, "s");
  l.set("core.weight_cache_hits", static_cast<double>(cache.hits), "count");
  l.set("core.weight_cache_misses", static_cast<double>(cache.misses),
        "count");
  add_count_metrics(l, per_request);
  l.set("ckks.key_switch_s", t.key_switch_s / traced_n, "s");
  l.set("ckks.linear_bsgs_s", t.linear_bsgs_s / traced_n, "s");
  l.set("ckks.rotate_batch_s", t.rotate_batch_s / traced_n, "s");
  l.set("math.ntt_s", t.ntt_s / traced_n, "s");
  l.set("common.eval_cpu_per_wall", eval_cpu / eval_wall, "cpu/wall");
  // This workload has no server, network or arrival schedule.
  for (const char* name :
       {"serve.queue_p50_s", "serve.queue_p90_s", "serve.batch_eval_p50_s"}) {
    l.set(name, 0.0, "s");
  }
  l.set("serve.batch_fill", 0.0, "fraction");
  l.set("serve.rejected", 0.0, "count");
  l.set("serve.retries", 0.0, "count");
  l.set("net.handshake_s", 0.0, "s");
  l.set("net.bytes_in_per_req", 0.0, "B");
  l.set("net.bytes_out_per_req", 0.0, "B");
  l.set("net.transport_p50_s", 0.0, "s");
  l.set("gen.late_p90_s", 0.0, "s");
  l.set("trace.dropped", static_cast<double>(t.dropped), "count");
  l.set("trace.overhead_frac",
        eval_traced.empty()
            ? 0.0
            : quantile(eval_traced, 0.5) / quantile(eval, 0.5) - 1.0,
        "fraction");
  l.set("failed_frac", 0.0, "fraction");
  l.set("logit_err_max", checker.err_max(), "logit");
  if (args.trace && t.dropped != 0) {
    checker.fail("trace dropped " + std::to_string(t.dropped) + " events");
  }
  if (!counts_exact) {
    checker.fail("per-request op counts differ between requests");
  }
  r.correct = checker.ok();

  r.context = {
      {"requests", std::to_string(r.attempted)},
      {"untraced_requests", std::to_string(latency.size())},
      {"counts_exact", counts_exact ? "true" : "false"},
      {"trace_events_per_request",
       json_number(static_cast<double>(t.events) / traced_n)},
      {"logit_err_max", json_number(checker.err_max())},
      {"logit_abs_max", json_number(checker.logit_abs_max())},
      {"predicted_output_error", json_number(model.predicted_output_error())},
  };
  return r;
}

}  // namespace perfbench
