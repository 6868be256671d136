#include "serve/net/net_server.hpp"

#include <sys/socket.h>

#include <cmath>
#include <cstring>
#include <future>
#include <utility>

#include "ckks/rns_backend.hpp"
#include "common/fault.hpp"
#include "common/trace.hpp"
#include "serve/net/metrics.hpp"

namespace pphe::serve::net {

namespace {

/// Server-side accounting of one rotation step's key-switch key: two
/// polynomials per decomposition digit, one digit per chain prime, each
/// over the raised basis (chain + special channel), 8 bytes a coefficient.
/// Clients may declare their real upload size instead; this is the default
/// the registry charges when they don't.
std::size_t galois_key_bytes_per_step(const CkksParams& p) {
  const std::size_t ch = p.chain_length();
  return 2 * ch * (ch + 1) * p.degree * 8;
}

std::string error_frame_payload(ErrorCode code, const std::string& message) {
  PayloadWriter w;
  w.u8(static_cast<std::uint8_t>(code));
  w.str(message);
  return w.take();
}

/// Completes a reply payload (request_id already written) as a typed
/// rejection: same field layout as a normal reply so one decoder serves
/// both, with status 3 and zeroed timing/logits.
void finish_rejected_reply(PayloadWriter& reply, ErrorCode code,
                           const std::string& message) {
  reply.u8(3);  // status: rejected
  reply.u8(static_cast<std::uint8_t>(code));
  reply.i32(-1);   // predicted
  reply.u32(0);    // attempts
  reply.u32(0);    // batch_size
  reply.f64(0.0);  // queue_seconds
  reply.f64(0.0);  // eval_seconds
  reply.u32(0);    // n_logits
  reply.str(message);
}

}  // namespace

const char* tier_name(Tier tier) {
  switch (tier) {
    case Tier::kBatch: return "batch";
    case Tier::kStandard: return "standard";
    case Tier::kPremium: return "premium";
  }
  return "?";
}

NetServer::NetServer(BatchServer& server, const RnsBackend& backend,
                     NetServerOptions options)
    : batch_server_(server),
      backend_(backend),
      options_(options),
      listener_(options.port, static_cast<int>(options.max_connections)),
      registry_(options.key_quota_bytes) {
  for (const double f : options_.admit_fill) {
    PPHE_CHECK(f > 0.0 && f <= 1.0,
               "NetServer: admit_fill fractions must be in (0, 1]");
  }
  accept_thread_ = std::thread([this] { accept_main(); });
}

NetServer::~NetServer() { shutdown(); }

void NetServer::accept_main() {
  while (running_.load(std::memory_order_relaxed)) {
    TcpConn conn = listener_.accept(0.1);
    if (!conn.valid()) continue;  // timeout tick or listener closed
    reap_handlers();

    std::size_t active;
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.connections;
      active = ++stats_.active_connections;
    }
    if (active > options_.max_connections) {
      // Accept-then-refuse keeps the refusal TYPED instead of letting the
      // backlog silently swallow the connection.
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.refused_connections;
        --stats_.active_connections;
      }
      try {
        conn.send_all(encode_frame(
            FrameType::kError,
            error_frame_payload(ErrorCode::kOverloaded,
                                "server at max_connections — retry later")));
      } catch (...) {
      }
      continue;
    }

    auto handler = std::make_shared<Handler>();
    {
      std::lock_guard<std::mutex> lock(handlers_mutex_);
      handler->fd = conn.fd();
      handlers_.push_back(handler);
    }
    handler->thread = std::thread(
        [this, handler, c = std::move(conn)]() mutable {
          handle_connection(handler, std::move(c));
        });
  }
}

void NetServer::reap_handlers() {
  std::lock_guard<std::mutex> lock(handlers_mutex_);
  for (auto it = handlers_.begin(); it != handlers_.end();) {
    if ((*it)->done.load(std::memory_order_acquire) &&
        (*it)->thread.joinable()) {
      (*it)->thread.join();
      it = handlers_.erase(it);
    } else {
      ++it;
    }
  }
}

void NetServer::count_frame_reject(ErrorCode code) {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.frame_rejects[static_cast<std::size_t>(code)];
}

void NetServer::send_frame(TcpConn& conn, FrameType type,
                           const std::string& payload,
                           bool allow_download_fault) {
  std::string bytes = encode_frame(type, payload);
  // The chaos harness's cloud->client wire site, applied to the actual
  // socket bytes of reply frames (handshake/control frames stay clean so a
  // fault plan tests the data path, not the session setup).
  if (allow_download_fault && fault::armed()) {
    fault::corrupt_wire(fault::Site::kWireDownload, bytes);
  }
  conn.send_all(bytes);
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++stats_.frames_out;
  stats_.bytes_out += bytes.size();
}

void NetServer::handle_connection(std::shared_ptr<Handler> self,
                                  TcpConn conn) {
  try {
    // Sniff: a metrics scrape ("GET ") and a protocol stream ('PPN1') are
    // told apart by their first four bytes on the same port.
    char sniff[4];
    conn.recv_exact(sniff, 4, options_.idle_timeout_seconds);
    if (std::memcmp(sniff, "GET ", 4) == 0) {
      handle_http(conn, sniff);
    } else {
      // --- handshake ---
      Frame hello;
      read_frame_after_sniff(conn, sniff, 4, hello,
                             options_.read_timeout_seconds,
                             options_.max_frame_bytes);
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.frames_in;
        stats_.bytes_in += kFrameHeaderBytes + hello.payload.size();
      }
      PPHE_CHECK_CODE(hello.type == FrameType::kHello, ErrorCode::kProtocol,
                      std::string("handshake: expected a hello frame, got '") +
                          frame_type_name(hello.type) + "'");
      PayloadReader r(hello.payload);
      const std::uint32_t client_proto = r.u32("protocol");
      const std::uint64_t digest = r.u64("params_digest");
      const std::uint8_t tier_raw = r.u8("tier");
      r.str("client_name");  // informational; traced, not stored
      r.expect_done("hello");
      PPHE_CHECK_CODE(client_proto == kProtocolVersion, ErrorCode::kProtocol,
                      "handshake: client speaks protocol " +
                          std::to_string(client_proto) + ", server " +
                          std::to_string(kProtocolVersion));
      PPHE_CHECK_CODE(digest == params_digest(backend_.params()),
                      ErrorCode::kProtocol,
                      "handshake: CKKS parameter digest mismatch — client "
                      "and server are compiled against different parameter "
                      "sets");
      PPHE_CHECK_CODE(tier_raw < kTierCount, ErrorCode::kProtocol,
                      "handshake: unknown admission tier " +
                          std::to_string(tier_raw));

      const std::uint64_t session =
          next_session_.fetch_add(1, std::memory_order_relaxed);
      PayloadWriter ack;
      ack.u64(session);
      ack.u32(static_cast<std::uint32_t>(batch_server_.input_dim()));
      ack.u64(options_.max_frame_bytes);
      ack.u64(options_.key_quota_bytes);
      // Count BEFORE the ack ships: a client that has seen hello_ack must
      // already observe the handshake in stats().
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.handshakes;
      }
      send_frame(conn, FrameType::kHelloAck, ack.take());
      serve_session(conn, session, static_cast<Tier>(tier_raw));
    }
  } catch (const Error& e) {
    count_frame_reject(e.code());
    try {
      send_frame(conn, FrameType::kError,
                 error_frame_payload(e.code(), e.what()));
    } catch (...) {
    }
  } catch (...) {
    count_frame_reject(ErrorCode::kGeneric);
  }

  {
    // Unregister the fd BEFORE closing it so shutdown() never touches a
    // recycled descriptor.
    std::lock_guard<std::mutex> lock(handlers_mutex_);
    self->fd = -1;
  }
  conn.close();
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    --stats_.active_connections;
  }
  self->done.store(true, std::memory_order_release);
}

void NetServer::handle_http(TcpConn& conn, const char* sniffed) {
  // Minimal HTTP/1.0 for scrapers: read the request head (bounded), answer,
  // close. Anything beyond GET /metrics is a 404.
  std::string head(sniffed, 4);
  char buf[1024];
  while (head.find("\r\n\r\n") == std::string::npos && head.size() < 8192) {
    const std::size_t n =
        conn.recv_some(buf, sizeof(buf), options_.read_timeout_seconds);
    if (n == 0) break;  // client sent head then shut down its write side
    head.append(buf, n);
  }
  const std::size_t path_begin = 4;  // past "GET "
  const std::size_t path_end = head.find(' ', path_begin);
  const std::string path = path_end == std::string::npos
                               ? std::string()
                               : head.substr(path_begin,
                                             path_end - path_begin);
  std::string body, status;
  if (path == "/metrics") {
    body = metrics_text();
    status = "200 OK";
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.http_scrapes;
  } else {
    body = "only /metrics lives here\n";
    status = "404 Not Found";
  }
  std::string resp = "HTTP/1.0 " + status +
                     "\r\nContent-Type: text/plain; version=0.0.4; "
                     "charset=utf-8\r\nContent-Length: " +
                     std::to_string(body.size()) +
                     "\r\nConnection: close\r\n\r\n" + body;
  conn.send_all(resp);
}

void NetServer::serve_session(TcpConn& conn, std::uint64_t session,
                              Tier tier) {
  const std::size_t queue_cap = batch_server_.options().queue_capacity;
  // This tier's admission ceiling on queue occupancy (at least 1 so a tier
  // can always use an empty queue).
  const std::size_t tier_cap = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(options_.admit_fill[static_cast<std::size_t>(tier)] *
                       static_cast<double>(queue_cap))));

  for (;;) {
    Frame frame;
    bool framed = false;
    try {
      if (!read_frame(conn, frame, options_.idle_timeout_seconds,
                      options_.max_frame_bytes, &framed)) {
        return;  // peer hung up at a frame boundary
      }
    } catch (const Error& e) {
      // Typed rejection of a damaged frame. Payload-level corruption leaves
      // the stream framed — reject the message, KEEP the connection; header
      // damage / truncation / timeout loses framing — drop this connection
      // (the server and every other connection stay up).
      count_frame_reject(e.code());
      try {
        send_frame(conn, FrameType::kError,
                   error_frame_payload(e.code(), e.what()));
      } catch (...) {
        return;
      }
      if (!framed) return;
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.frames_in;
      stats_.bytes_in += kFrameHeaderBytes + frame.payload.size();
    }

    try {
      switch (frame.type) {
        case FrameType::kBye:
          registry_.release(session);
          return;

        case FrameType::kKeyUpload: {
          PayloadReader r(frame.payload);
          const std::uint32_t n_steps = r.u32("n_steps");
          std::size_t bytes = 0;
          for (std::uint32_t i = 0; i < n_steps; ++i) {
            r.i32("step");
            bytes += galois_key_bytes_per_step(backend_.params());
          }
          const std::uint64_t declared = r.u64("declared_bytes");
          r.expect_done("key_upload");
          if (declared > 0) bytes = declared;
          // Relin key rides along with any upload (one key, step-free).
          if (bytes == 0) bytes = galois_key_bytes_per_step(backend_.params());
          const auto evicted = registry_.register_session(session, bytes);
          const auto ks = registry_.stats();
          PayloadWriter ack;
          ack.u64(bytes);
          ack.u64(ks.bytes_pinned);
          ack.u64(ks.quota_bytes);
          ack.u32(static_cast<std::uint32_t>(evicted.size()));
          send_frame(conn, FrameType::kKeyAck, ack.take());
          break;
        }

        case FrameType::kRequest: {
          trace::Span span("net.request", "serve");
          PayloadReader r(frame.payload);
          const std::uint64_t request_id = r.u64("request_id");
          const std::uint32_t n = r.u32("n_values");
          PPHE_CHECK_CODE(
              static_cast<std::size_t>(n) * 4 <= r.remaining(),
              ErrorCode::kSerialization,
              "request: image claims more floats than the payload holds");
          std::vector<float> image(n);
          for (std::uint32_t i = 0; i < n; ++i) image[i] = r.f32("pixel");
          r.expect_done("request");
          {
            std::lock_guard<std::mutex> lock(stats_mutex_);
            ++stats_.requests;
          }

          PayloadWriter reply;
          reply.u64(request_id);

          // Typed "re-send keys": an unregistered or LRU-evicted session
          // must re-upload before evaluation.
          if (!registry_.touch(session)) {
            {
              std::lock_guard<std::mutex> lock(stats_mutex_);
              ++stats_.key_evicted_rejects;
              ++stats_.replies_rejected;
            }
            finish_rejected_reply(
                reply, ErrorCode::kKeyEvicted,
                "evaluation keys for this session are not registered "
                "(evicted under the key-registry quota) — re-send keys and "
                "resubmit");
            send_frame(conn, FrameType::kReply, reply.take(), true);
            break;
          }

          // Tiered admission: shed by client class while the queue fills,
          // before the queue's own kOverloaded backstop.
          if (batch_server_.queue_depth() >= tier_cap) {
            {
              std::lock_guard<std::mutex> lock(stats_mutex_);
              ++stats_.sheds[static_cast<std::size_t>(tier)];
              ++stats_.replies_rejected;
            }
            finish_rejected_reply(
                reply, ErrorCode::kOverloaded,
                std::string("admission: ") + tier_name(tier) +
                    "-tier traffic sheds at " + std::to_string(tier_cap) +
                    "/" + std::to_string(queue_cap) +
                    " queue fill — resubmit later");
            send_frame(conn, FrameType::kReply, reply.take(), true);
            break;
          }

          std::future<ServeReply> future;
          try {
            future = batch_server_.submit(std::move(image));
          } catch (const Error& e) {
            {
              std::lock_guard<std::mutex> lock(stats_mutex_);
              ++stats_.replies_rejected;
            }
            finish_rejected_reply(reply, e.code(), e.what());
            send_frame(conn, FrameType::kReply, reply.take(), true);
            break;
          }
          const ServeReply sr = future.get();
          {
            std::lock_guard<std::mutex> lock(stats_mutex_);
            if (sr.ok) {
              ++stats_.replies_ok;
            } else if (sr.degraded) {
              ++stats_.replies_degraded;
            } else {
              ++stats_.replies_failed;
            }
          }
          reply.u8(sr.ok ? 0 : sr.degraded ? 1 : 2);
          reply.u8(static_cast<std::uint8_t>(sr.error));
          reply.i32(sr.predicted);
          reply.u32(static_cast<std::uint32_t>(sr.attempts));
          reply.u32(static_cast<std::uint32_t>(sr.batch_size));
          reply.f64(sr.queue_seconds);
          reply.f64(sr.eval_seconds);
          reply.u32(static_cast<std::uint32_t>(sr.logits.size()));
          for (const double v : sr.logits) reply.f64(v);
          reply.str(sr.message);
          send_frame(conn, FrameType::kReply, reply.take(), true);
          break;
        }

        default:
          throw Error(ErrorCode::kProtocol,
                      std::string("session: unexpected '") +
                          frame_type_name(frame.type) + "' frame");
      }
    } catch (const Error& e) {
      // Malformed-but-framed payloads and registry refusals: typed error
      // frame, connection kept.
      count_frame_reject(e.code());
      try {
        send_frame(conn, FrameType::kError,
                   error_frame_payload(e.code(), e.what()));
      } catch (...) {
        return;
      }
    }
  }
}

NetServerStats NetServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

std::string NetServer::metrics_text() const {
  return render_prometheus(batch_server_.snapshot(), stats(),
                           registry_.stats(), backend_.op_counts(),
                           backend_.galois_key_stats(),
                           batch_server_.options().queue_capacity);
}

void NetServer::shutdown() {
  if (!running_.exchange(false)) return;
  listener_.close();
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    // Interrupt every blocked read; handlers unwind with typed errors/EOF.
    std::lock_guard<std::mutex> lock(handlers_mutex_);
    for (const auto& h : handlers_) {
      if (h->fd >= 0) ::shutdown(h->fd, SHUT_RDWR);
    }
  }
  for (;;) {
    std::shared_ptr<Handler> h;
    {
      std::lock_guard<std::mutex> lock(handlers_mutex_);
      if (handlers_.empty()) break;
      h = handlers_.front();
      handlers_.pop_front();
    }
    if (h->thread.joinable()) h->thread.join();
  }
}

}  // namespace pphe::serve::net
