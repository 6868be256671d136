// cnn1-serve: the `client_server --listen` configuration. CNN1 with
// plaintext weights on a BatchModelSet, a BatchServer with the CLI defaults
// and a NetServer on loopback, driven over kConnections NetClient
// connections: an open-loop phase (Poisson arrivals at kOpenRate) for
// latency, then a closed-loop phase on every connection for capacity.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "ckks/rns_backend.hpp"
#include "common/stats.hpp"
#include "common/trace.hpp"
#include "core/serving.hpp"
#include "serve/model_set.hpp"
#include "serve/net/net_client.hpp"
#include "serve/net/net_server.hpp"
#include "serve/server.hpp"
#include "trace_split.hpp"

namespace perfbench {

using namespace pphe;
using Clock = std::chrono::steady_clock;

namespace {

constexpr std::size_t kConnections = 4;
/// Open-loop schedule: kOpenRequests Poisson arrivals at kOpenRate, drawn
/// once from kScheduleSeed so every run replays the same bursts.
constexpr double kOpenRate = 0.5;  // arrivals per second
constexpr std::size_t kOpenRequests = 24;
constexpr std::uint64_t kScheduleSeed = 1;
constexpr double kSloSeconds = 1.0;
/// Untraced/traced evaluations of each batch-size probe (alternating,
/// untraced first).
constexpr std::size_t kProbes = 5;

double since(Clock::time_point t0, Clock::time_point t) {
  return std::chrono::duration<double>(t - t0).count();
}

struct Sample {
  const std::vector<float>* image = nullptr;
  double due = 0.0, sent = 0.0, done = 0.0;  // seconds since phase start
  serve::net::NetReply reply;
};

/// One framed round trip inside a benchmark span tagged with the request id.
/// Transport failures come back as a failed reply.
serve::net::NetReply classify(serve::net::NetClient& client,
                              const std::vector<float>& image,
                              std::uint64_t id) {
  trace::Span span("bench.request", "bench");
  span.attr("req", static_cast<double>(id));
  try {
    return client.classify(image);
  } catch (const std::exception& e) {
    serve::net::NetReply failed;
    failed.message = e.what();
    return failed;
  }
}

/// Open loop: request i is due at due[i] seconds and goes out on the first
/// free connection. With a collector, tracing is on and the trace is drained
/// whenever no request is outstanding.
std::vector<Sample> open_loop(
    std::vector<std::unique_ptr<serve::net::NetClient>>& clients,
    const std::vector<double>& due,
    const std::vector<const std::vector<float>*>& images,
    TraceCollector* collector) {
  std::vector<Sample> samples(due.size());
  std::atomic<std::size_t> next{0};
  std::mutex drain_mutex;
  std::size_t outstanding = 0;
  if (collector != nullptr) trace::set_enabled(true);
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (auto& client : clients) {
    threads.emplace_back([&, conn = client.get()] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= due.size()) return;
        Sample& s = samples[i];
        s.image = images[i];
        s.due = due[i];
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(due[i])));
        if (collector != nullptr) {
          std::lock_guard<std::mutex> lock(drain_mutex);
          ++outstanding;
        }
        s.sent = since(start, Clock::now());
        s.reply = classify(*conn, *s.image, i);
        s.done = since(start, Clock::now());
        if (collector != nullptr) {
          std::lock_guard<std::mutex> lock(drain_mutex);
          if (--outstanding == 0) {
            // Let the server threads close the spans of the request they
            // just answered, then drain while no request can start.
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            collector->drain();
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  if (collector != nullptr) {
    trace::set_enabled(false);
    collector->drain();
  }
  return samples;
}

/// Closed loop: every connection sends its next request as soon as the
/// previous reply arrives, until `seconds` have passed; requests in flight
/// then finish.
std::vector<Sample> closed_loop(
    std::vector<std::unique_ptr<serve::net::NetClient>>& clients,
    double seconds, const std::vector<const std::vector<float>*>& images) {
  std::vector<std::vector<Sample>> per_conn(clients.size());
  std::atomic<std::size_t> next{0};
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      while (since(start, Clock::now()) < seconds) {
        Sample s;
        const std::size_t i = next.fetch_add(1);
        s.image = images[i % images.size()];
        s.sent = since(start, Clock::now());
        s.due = s.sent;
        s.reply = classify(*clients[c], *s.image, i);
        s.done = since(start, Clock::now());
        per_conn[c].push_back(std::move(s));
      }
    });
  }
  for (auto& t : threads) t.join();
  std::vector<Sample> all;
  for (auto& v : per_conn) {
    for (auto& s : v) all.push_back(std::move(s));
  }
  return all;
}

/// The server's dispatched batch sizes as a JSON object {"size": batches}.
std::string batch_mix(const serve::StatsSnapshot& s) {
  std::string out = "{";
  for (const auto& [size, count] : s.batch_sizes) {
    out += (out.size() > 1 ? ", \"" : "\"") + std::to_string(size) +
           "\": " + std::to_string(count);
  }
  return out + "}";
}

}  // namespace

RunResult run_serve(const Args& args) {
  const Model m = load_model(Arch::kCnn1, args.cache_dir);
  ImagePicker images(args.seed);
  Checker checker(m.spec);
  RunResult r;

  // --- set-up: keygen, the model set compiled and evaluated once at every
  // power-of-two batch size, the servers, and the client handshakes.
  CkksParams params = CkksParams::fast_profile();
  params.seed = args.seed;
  Stopwatch setup;
  RnsBackend backend(params);
  HeModelOptions base;
  base.encrypted_weights = false;
  serve::BatchModelSet models(backend, m.spec, base);
  double compile_s = 0.0, first_eval_s = 0.0;
  for (std::size_t n = 1; n <= models.max_batch(); n *= 2) {
    Stopwatch sw;
    const HeModel& model = models.model_for(n);
    compile_s += sw.seconds();
    std::vector<std::vector<float>> batch;
    for (std::size_t i = 0; i < n; ++i) batch.push_back(images.next());
    sw.reset();
    const ServeBatchOutcome out = serve_classify_batch(backend, model, batch);
    first_eval_s += sw.seconds();
    if (!out.ok) checker.fail("warm-up batch of " + std::to_string(n) + " failed");
    for (std::size_t i = 0; out.ok && i < n; ++i) {
      checker.check(batch[i], out.logits[i]);
    }
  }
  serve::ServerOptions sopts;  // client_server's CLI defaults
  sopts.workers = 2;
  sopts.max_batch = 8;
  sopts.linger_ms = 5.0;
  sopts.queue_capacity = 64;
  sopts.serving.max_retries = 2;
  sopts.serving.watchdog_seconds = 60.0;
  serve::BatchServer server(models, sopts);
  serve::net::NetServer net(server, backend);
  std::vector<std::unique_ptr<serve::net::NetClient>> clients;
  std::vector<double> handshake;
  for (std::size_t c = 0; c < kConnections; ++c) {
    Stopwatch sw;
    serve::net::NetClientOptions copts;
    copts.port = net.port();
    copts.name = "perfbench-" + std::to_string(c);
    clients.push_back(
        std::make_unique<serve::net::NetClient>(backend.params(), copts));
    clients.back()->upload_keys({});
    handshake.push_back(sw.seconds());
  }
  const double setup_s = setup.seconds();
  const WeightOperandCache::Stats cache = models.weight_cache()->stats();

  // --- open loop, then closed loop. Arrival gaps are stratified: gap i is
  // the exponential quantile of a uniform draw from the i-th of n equal
  // strata, so the schedule offers exactly the nominal rate; the shuffle
  // sets where its bursts fall.
  const std::size_t n_open = kOpenRequests;
  std::mt19937_64 schedule_rng(kScheduleSeed);
  std::vector<double> gaps(n_open);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (std::size_t i = 0; i < n_open; ++i) {
    const double u = (static_cast<double>(i) + unit(schedule_rng)) /
                     static_cast<double>(n_open);
    gaps[i] = -std::log1p(-u) / kOpenRate;
  }
  std::shuffle(gaps.begin(), gaps.end(), schedule_rng);
  std::vector<double> due(n_open);
  std::vector<const std::vector<float>*> open_images(n_open);
  for (std::size_t i = 0; i < n_open; ++i) {
    due[i] = (i ? due[i - 1] : 0.0) + gaps[i];
    open_images[i] = &images.next();
  }
  std::vector<const std::vector<float>*> closed_images(512);
  for (auto& img : closed_images) img = &images.next();

  TraceCollector collector(m.spec, m.conv_stages);
  const serve::net::NetServerStats net0 = net.stats();
  const std::vector<Sample> open =
      open_loop(clients, due, open_images, args.trace ? &collector : nullptr);
  const serve::StatsSnapshot mid = server.snapshot();
  const std::vector<Sample> closed =
      closed_loop(clients, args.seconds, closed_images);
  const serve::StatsSnapshot end = server.snapshot();
  const serve::net::NetServerStats net1 = net.stats();
  for (auto& client : clients) client->bye();

  // --- probes through the public HeModel calls, at every batch size the
  // server dispatches: exact per-image op counts, the encrypt/eval/decrypt
  // split, and the tracing overhead (traced vs untraced probes). The
  // per-layer metrics report batch size 1, the size the open loop runs
  // (its batch-size mix is in the context line); the other sizes' counts
  // are in the context line too.
  const std::size_t max_b = std::min(sopts.max_batch, models.max_batch());
  std::vector<double> p_encrypt, p_eval, p_decrypt, p_eval_traced;
  double p_cpu = 0.0, p_wall = 0.0;
  Counters per_image{};
  bool counts_exact = true;
  std::string probe_counts = "{";
  TraceCollector probe_collector(m.spec, m.conv_stages);
  for (std::size_t n = 1; args.trace && n <= max_b; n *= 2) {
    const HeModel& model = models.model_for(n);
    std::vector<std::vector<float>> batch;
    for (std::size_t i = 0; i < n; ++i) batch.push_back(images.next());
    Counters size_counts{};
    for (std::size_t p = 0; p < kProbes; ++p) {
      const bool traced = p % 2 == 1;
      const Counters before = Counters::read(backend);
      trace::set_enabled(traced);
      Stopwatch sw;
      const auto inputs = model.encrypt_batch(batch);
      const double enc_s = sw.seconds();
      const double cpu0 = cpu_seconds();
      sw.reset();
      const Ciphertext out = model.eval(inputs);
      const double eval_s = sw.seconds();
      const double cpu_s = cpu_seconds() - cpu0;
      sw.reset();
      const auto logits = model.decrypt_logits_batch(out);
      const double dec_s = sw.seconds();
      trace::set_enabled(false);
      probe_collector.drain();
      const Counters delta =
          (Counters::read(backend) - before) / static_cast<double>(n);
      if (p == 0) size_counts = delta;
      counts_exact = counts_exact && delta == size_counts;
      for (std::size_t i = 0; i < n; ++i) checker.check(batch[i], logits[i]);
      if (n != 1) continue;
      if (traced) {
        p_eval_traced.push_back(eval_s);
        continue;
      }
      p_encrypt.push_back(enc_s);
      p_eval.push_back(eval_s);
      p_decrypt.push_back(dec_s);
      p_cpu += cpu_s;
      p_wall += eval_s;
    }
    if (n == 1) per_image = size_counts;
    Metrics counts;
    add_count_metrics(counts, size_counts);
    probe_counts += (n == 1 ? "\"" : ", \"") + std::to_string(n) +
                    "\": " + counts.json();
  }
  probe_counts += "}";

  // --- correctness and end-to-end metrics.
  std::vector<double> latency, queue, late, transport, batch_eval;
  std::size_t slo_met = 0, rejected = 0, open_ok = 0, closed_ok = 0;
  double closed_wall = 0.0;
  for (const auto* phase : {&open, &closed}) {
    for (const Sample& s : *phase) {
      ++r.attempted;
      if (s.reply.rejected) ++rejected;
      if (!s.reply.ok) {
        ++r.failed;
        continue;
      }
      checker.check(*s.image, s.reply.logits);
      if (phase == &closed) continue;
      ++open_ok;
      const double l = s.done - s.due;
      latency.push_back(l);
      slo_met += l <= kSloSeconds ? 1 : 0;
      queue.push_back(s.reply.queue_seconds);
      late.push_back(s.sent - s.due);
      transport.push_back(s.done - s.sent - s.reply.queue_seconds -
                          s.reply.eval_seconds);
    }
  }
  for (const Sample& s : closed) {
    closed_wall = std::max(closed_wall, s.done);
    if (!s.reply.ok) continue;
    ++closed_ok;
    batch_eval.push_back(s.reply.eval_seconds);
  }
  const double requests = static_cast<double>(r.attempted);

  Metrics& e = r.end_to_end;
  e.set("setup_s", setup_s, "s");
  e.set("peak_rss_mb", peak_rss_mb(), "MB");
  e.set("match_rate", checker.match_rate(), "fraction");

  const SplitTotals& t = collector.totals();
  const double traced_images = std::max<double>(1.0, static_cast<double>(open_ok));
  const double batches = static_cast<double>(end.batches - mid.batches);
  Metrics& l = r.per_layer;
  l.set("latency_p50_s", quantile(latency, 0.5), "s");
  l.set("latency_p90_s", quantile(latency, 0.9), "s");
  l.set("slo_frac", static_cast<double>(slo_met) / static_cast<double>(n_open),
        "fraction");
  // Images answered ok over the closed-loop phase, from its start until the
  // last reply (requests in flight at the deadline finish).
  l.set("throughput_img_s", static_cast<double>(closed_ok) / closed_wall,
        "img/s");
  l.set("core.compile_s", compile_s, "s");
  l.set("core.first_eval_s", first_eval_s, "s");
  l.set("core.encrypt_s", quantile(p_encrypt, 0.5), "s");
  l.set("core.eval_s", quantile(p_eval, 0.5), "s");
  l.set("core.decrypt_s", quantile(p_decrypt, 0.5), "s");
  l.set("core.layer.conv_s", t.conv_s / traced_images, "s");
  l.set("core.layer.slaf_s", t.slaf_s / traced_images, "s");
  l.set("core.layer.dense_s", t.dense_s / traced_images, "s");
  l.set("core.weight_cache_hits", static_cast<double>(cache.hits), "count");
  l.set("core.weight_cache_misses", static_cast<double>(cache.misses),
        "count");
  add_count_metrics(l, per_image);
  l.set("ckks.key_switch_s", t.key_switch_s / traced_images, "s");
  l.set("ckks.linear_bsgs_s", t.linear_bsgs_s / traced_images, "s");
  l.set("ckks.rotate_batch_s", t.rotate_batch_s / traced_images, "s");
  l.set("math.ntt_s", t.ntt_s / traced_images, "s");
  l.set("common.eval_cpu_per_wall", p_wall > 0.0 ? p_cpu / p_wall : 0.0,
        "cpu/wall");
  l.set("serve.queue_p50_s", quantile(queue, 0.5), "s");
  l.set("serve.queue_p90_s", quantile(queue, 0.9), "s");
  l.set("serve.batch_eval_p50_s", quantile(batch_eval, 0.5), "s");
  l.set("serve.batch_fill",
        batches > 0.0 ? static_cast<double>(end.completed - mid.completed) /
                            (batches * static_cast<double>(max_b))
                      : 0.0,
        "fraction");
  l.set("serve.rejected", static_cast<double>(rejected), "count");
  l.set("serve.retries", static_cast<double>(end.retries), "count");
  l.set("net.handshake_s", quantile(handshake, 0.5), "s");
  l.set("net.bytes_in_per_req",
        static_cast<double>(net1.bytes_in - net0.bytes_in) / requests, "B");
  l.set("net.bytes_out_per_req",
        static_cast<double>(net1.bytes_out - net0.bytes_out) / requests, "B");
  l.set("net.transport_p50_s", quantile(transport, 0.5), "s");
  l.set("gen.late_p90_s", quantile(late, 0.9), "s");
  const std::uint64_t dropped = t.dropped + probe_collector.totals().dropped;
  l.set("trace.dropped", static_cast<double>(dropped), "count");
  l.set("trace.overhead_frac",
        p_eval_traced.empty()
            ? 0.0
            : quantile(p_eval_traced, 0.5) / quantile(p_eval, 0.5) - 1.0,
        "fraction");
  l.set("failed_frac", static_cast<double>(r.failed) / requests, "fraction");
  l.set("logit_err_max", checker.err_max(), "logit");
  if (dropped != 0) {
    checker.fail("trace dropped " + std::to_string(dropped) + " events");
  }
  if (!counts_exact) checker.fail("per-image op counts differ between probes");
  r.correct = checker.ok();

  r.context = {
      {"open_requests", std::to_string(open.size())},
      {"open_batch_sizes", batch_mix(mid)},
      {"closed_requests", std::to_string(closed.size())},
      {"closed_batches", json_number(batches)},
      {"max_batch", std::to_string(max_b)},
      {"counts_exact", counts_exact ? "true" : "false"},
      {"probe_counts_per_image", probe_counts},
      {"trace_events_per_image",
       json_number(static_cast<double>(t.events) / traced_images)},
      {"logit_err_max", json_number(checker.err_max())},
      {"logit_abs_max", json_number(checker.logit_abs_max())},
      {"predicted_output_error",
       json_number(models.model_for(max_b).predicted_output_error())},
  };
  net.shutdown();
  server.shutdown();
  return r;
}

}  // namespace perfbench
