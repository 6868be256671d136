// The networked serving stack end-to-end on real loopback TCP: versioned
// handshake (and its typed refusals), key registration, framed encrypted
// classification from concurrent network clients, tiered admission
// shedding, LRU key eviction with the re-send-keys recovery loop, and the
// /metrics endpoint scraped over raw HTTP. No fault injection here — the
// wire chaos matrix lives in the robustness binary.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ckks/rns_backend.hpp"
#include "common/check.hpp"
#include "common/prng.hpp"
#include "core/serving.hpp"
#include "serve/net/net_client.hpp"
#include "serve/net/net_server.hpp"
#include "serve/server.hpp"

namespace pphe::serve::net {
namespace {

CkksParams tiny_params() {
  CkksParams p = CkksParams::test_small();
  p.q_bit_sizes = {40, 26, 26, 26, 26, 26, 26};
  return p;
}

ModelSpec tiny_spec(std::uint64_t seed) {
  Prng prng(seed);
  ModelSpec spec;
  spec.name = "net-tiny";
  auto linear = [&](std::size_t i, std::size_t o) {
    ModelSpec::Stage s;
    s.kind = ModelSpec::Stage::Kind::kLinear;
    s.linear.in_dim = i;
    s.linear.out_dim = o;
    s.linear.weight.resize(i * o);
    s.linear.bias.resize(o);
    for (auto& w : s.linear.weight) {
      w = static_cast<float>(prng.normal() * 0.3);
    }
    for (auto& b : s.linear.bias) {
      b = static_cast<float>(prng.normal() * 0.1);
    }
    return s;
  };
  spec.stages.push_back(linear(12, 8));
  spec.stages.push_back(linear(8, 5));
  return spec;
}

std::vector<float> make_image(std::uint64_t seed) {
  Prng prng(seed);
  std::vector<float> img(12);
  for (auto& v : img) v = static_cast<float>(prng.uniform_double());
  return img;
}

/// Backend + model set + fault-free single-image baselines, shared across
/// the binary (weight encoding dominates otherwise).
struct Rig {
  RnsBackend backend;
  BatchModelSet models;
  Rig()
      : backend(tiny_params()), models(backend, tiny_spec(77), [] {
          HeModelOptions o;
          o.encrypted_weights = false;
          return o;
        }()) {}

  int baseline(const std::vector<float>& image) {
    const auto outcome =
        serve_classify_batch(backend, models.model_for(1), {image});
    return outcome.predicted.at(0);
  }
};

Rig& rig() {
  static Rig r;
  return r;
}

NetClientOptions client_options(std::uint16_t port) {
  NetClientOptions o;
  o.port = port;
  return o;
}

TEST(NetServerTest, HandshakeAdvertisesSessionAndLimits) {
  BatchServer server(rig().models, {});
  NetServer net(server, rig().backend, {});
  ASSERT_GT(net.port(), 0);

  NetClient client(rig().backend.params(), client_options(net.port()));
  EXPECT_GT(client.session().session_id, 0u);
  EXPECT_EQ(client.session().input_dim, 12u);
  EXPECT_GT(client.session().max_frame_bytes, 0u);
  EXPECT_GT(client.session().key_quota_bytes, 0u);
  EXPECT_EQ(net.stats().handshakes, 1u);
}

TEST(NetServerTest, ParameterDigestMismatchIsTypedProtocolRefusal) {
  BatchServer server(rig().models, {});
  NetServer net(server, rig().backend, {});

  CkksParams other = tiny_params();
  other.q_bit_sizes.pop_back();  // a client built against different moduli
  try {
    NetClient client(other, client_options(net.port()));
    FAIL() << "handshake should refuse a mismatched parameter digest";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kProtocol);
  }
  EXPECT_EQ(net.stats().handshakes, 0u);
}

TEST(NetServerTest, ClassifiesOverTheSocketMatchingInProcessBaseline) {
  BatchServer server(rig().models, {});
  NetServer net(server, rig().backend, {});

  const std::vector<float> image = make_image(5);
  const int expected = rig().baseline(image);

  NetClient client(rig().backend.params(), client_options(net.port()));
  client.upload_keys({1, 2, 4});
  const NetReply reply = client.classify(image);
  ASSERT_TRUE(reply.ok) << reply.message;
  EXPECT_EQ(reply.predicted, expected);
  EXPECT_EQ(reply.logits.size(), 5u);
  EXPECT_GE(reply.batch_size, 1u);
  client.bye();

  const NetServerStats ns = net.stats();
  EXPECT_EQ(ns.requests, 1u);
  EXPECT_EQ(ns.replies_ok, 1u);
  // bye releases the registration; the frame is processed by the handler
  // thread, so poll briefly.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (net.key_stats().sessions != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(net.key_stats().sessions, 0u);
}

TEST(NetServerTest, RequestWithoutKeysIsTypedKeyEvictedRejection) {
  BatchServer server(rig().models, {});
  NetServer net(server, rig().backend, {});

  NetClientOptions opts = client_options(net.port());
  opts.auto_resend_keys = false;
  NetClient client(rig().backend.params(), opts);
  const NetReply reply = client.classify(make_image(6));
  EXPECT_FALSE(reply.ok);
  EXPECT_TRUE(reply.rejected);
  EXPECT_EQ(reply.error, ErrorCode::kKeyEvicted);
  EXPECT_EQ(net.stats().key_evicted_rejects, 1u);
}

TEST(NetServerTest, ConcurrentNetworkClientsGetCorrectLogits) {
  ServerOptions sopts;
  sopts.workers = 2;
  sopts.max_batch = 4;
  sopts.linger_ms = 5.0;
  BatchServer server(rig().models, sopts);
  NetServer net(server, rig().backend, {});

  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClient = 3;
  std::vector<std::vector<float>> images;
  std::vector<int> expected;
  for (std::size_t i = 0; i < kClients * kPerClient; ++i) {
    images.push_back(make_image(100 + i));
    expected.push_back(rig().baseline(images.back()));
  }

  std::vector<int> got(images.size(), -1);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      NetClient client(rig().backend.params(), client_options(net.port()));
      client.upload_keys({});
      for (std::size_t r = 0; r < kPerClient; ++r) {
        const std::size_t idx = c * kPerClient + r;
        const NetReply reply = client.classify(images[idx]);
        ASSERT_TRUE(reply.ok) << reply.message;
        got[idx] = reply.predicted;
      }
      client.bye();
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << "request " << i;
  }
  const NetServerStats ns = net.stats();
  EXPECT_EQ(ns.handshakes, kClients);
  EXPECT_EQ(ns.replies_ok, kClients * kPerClient);
}

TEST(NetServerTest, LruEvictionUnderQuotaPressureRecoversByResendingKeys) {
  BatchServer server(rig().models, {});
  NetServerOptions nopts;
  // Room for exactly ONE declared registration at a time.
  nopts.key_quota_bytes = 1500;
  NetServer net(server, rig().backend, nopts);

  NetClient a(rig().backend.params(), client_options(net.port()));
  NetClient b(rig().backend.params(), client_options(net.port()));
  a.upload_keys({1, 2}, /*declared_bytes=*/1000);
  b.upload_keys({1, 2}, /*declared_bytes=*/1000);  // evicts a
  EXPECT_EQ(net.key_stats().sessions, 1u);
  EXPECT_EQ(net.key_stats().evictions, 1u);

  // a's next request hits the typed kKeyEvicted rejection; the client's
  // recovery loop re-sends its remembered keys and resubmits once.
  const std::vector<float> image = make_image(9);
  const NetReply reply = a.classify(image);
  ASSERT_TRUE(reply.ok) << reply.message;
  EXPECT_EQ(reply.predicted, rig().baseline(image));

  const NetServerStats ns = net.stats();
  EXPECT_EQ(ns.key_evicted_rejects, 1u);
  EXPECT_GE(net.key_stats().evictions, 2u);  // b displaced in turn
}

TEST(NetServerTest, MetricsEndpointServesPrometheusTextOverRawHttp) {
  BatchServer server(rig().models, {});
  NetServer net(server, rig().backend, {});

  // Generate a little traffic first so the series are non-trivial.
  NetClient client(rig().backend.params(), client_options(net.port()));
  client.upload_keys({});
  ASSERT_TRUE(client.classify(make_image(11)).ok);

  TcpConn http = tcp_connect("127.0.0.1", net.port(), 5.0);
  http.send_all("GET /metrics HTTP/1.0\r\n\r\n");
  std::string text;
  char buf[4096];
  for (;;) {
    const std::size_t n = http.recv_some(buf, sizeof(buf), 5.0);
    if (n == 0) break;
    text.append(buf, n);
  }
  EXPECT_NE(text.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(text.find("pphe_requests_submitted_total 1"), std::string::npos);
  EXPECT_NE(text.find("pphe_requests_completed_total{result=\"ok\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("pphe_net_handshakes_total"), std::string::npos);
  EXPECT_NE(text.find("pphe_latency_seconds{stage=\"eval\",quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("pphe_key_registrations_total 1"), std::string::npos);
  EXPECT_NE(text.find("pphe_backend_ops_total"), std::string::npos);
  // Resident key material, as the backend reports it.
  const GaloisKeyStats keys = rig().backend.galois_key_stats();
  ASSERT_GT(keys.keys, 0u);
  EXPECT_NE(text.find("# TYPE pphe_galois_keys gauge\npphe_galois_keys " +
                      std::to_string(keys.keys) + "\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE pphe_galois_key_bytes gauge\n"
                      "pphe_galois_key_bytes " +
                      std::to_string(keys.bytes) + "\n"),
            std::string::npos);
  EXPECT_EQ(net.stats().http_scrapes, 1u);

  // Unknown paths 404 without disturbing the server.
  TcpConn miss = tcp_connect("127.0.0.1", net.port(), 5.0);
  miss.send_all("GET /nope HTTP/1.0\r\n\r\n");
  std::string miss_text;
  for (;;) {
    const std::size_t n = miss.recv_some(buf, sizeof(buf), 5.0);
    if (n == 0) break;
    miss_text.append(buf, n);
  }
  EXPECT_NE(miss_text.find("404"), std::string::npos);
  ASSERT_TRUE(client.classify(make_image(12)).ok);
}

TEST(NetServerTest, ShutdownUnblocksIdleConnections) {
  BatchServer server(rig().models, {});
  auto net = std::make_unique<NetServer>(server, rig().backend,
                                         NetServerOptions{});
  NetClient client(rig().backend.params(), client_options(net->port()));
  // The client sits idle (its handler blocked in read_frame); shutdown must
  // interrupt that read and join, not hang.
  net->shutdown();
  SUCCEED();
}

}  // namespace
}  // namespace pphe::serve::net
