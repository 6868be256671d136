#include "core/serving.hpp"

#include <algorithm>
#include <chrono>
#include <future>
#include <thread>

#include "ckks/rns_backend.hpp"
#include "ckks/serialize.hpp"
#include "common/fault.hpp"
#include "common/trace.hpp"

namespace pphe {
namespace {

/// One serialized hop: encode to bytes, let the fault harness corrupt them,
/// decode on the receiving side. Decoding is where transport corruption is
/// detected (typed kSerialization / kChecksumMismatch / kIntegrity).
Ciphertext ship(const RnsBackend& backend, const Ciphertext& ct,
                fault::Site site) {
  std::string bytes = ciphertext_to_string(backend, ct);
  fault::corrupt_wire(site, bytes);
  return ciphertext_from_string(bytes, backend);
}

/// Cloud-side evaluation under the per-attempt watchdog. The worker thread
/// cannot be killed, so on expiry it is joined (its stall is bounded by the
/// fault plan's slow_seconds) and its result discarded; the attempt then
/// fails with a typed kTimeout.
Ciphertext guarded_eval(const HeModel& model,
                        const std::vector<Ciphertext>& inputs,
                        double watchdog_seconds) {
  if (watchdog_seconds <= 0.0) {
    fault::worker_checkpoint();
    return model.eval(inputs);
  }
  std::packaged_task<Ciphertext()> task([&model, &inputs] {
    fault::worker_checkpoint();
    return model.eval(inputs);
  });
  std::future<Ciphertext> future = task.get_future();
  std::thread worker(std::move(task));
  const bool timed_out =
      future.wait_for(std::chrono::duration<double>(watchdog_seconds)) ==
      std::future_status::timeout;
  worker.join();
  if (timed_out) {
    try {
      future.get();  // discard the straggler's result or exception
    } catch (...) {
    }
    throw Error(ErrorCode::kTimeout,
                "watchdog: evaluation exceeded " +
                    std::to_string(watchdog_seconds) + " s deadline");
  }
  return future.get();
}

}  // namespace

ServeBatchOutcome serve_classify_batch(const RnsBackend& backend,
                                       const HeModel& model,
                                       const std::vector<std::vector<float>>& images,
                                       const ServingOptions& options) {
  PPHE_CHECK(&model.backend() == static_cast<const HeBackend*>(&backend),
             "serve_classify_batch: model was compiled on a different backend");
  const std::size_t batch = model.options().batch;
  PPHE_CHECK_CODE(!images.empty() && images.size() <= batch,
                  ErrorCode::kInvalidArgument,
                  "serve_classify_batch: " + std::to_string(images.size()) +
                      " images for a batch-" + std::to_string(batch) +
                      " model (need 1.." + std::to_string(batch) + ")");
  trace::Span span("serve_classify_batch", "serving");
  span.attr("images", static_cast<double>(images.size()));
  span.attr("batch", static_cast<double>(batch));

  // One-time session setup, hoisted OUT of the retry loop: evaluation keys
  // (relin + Galois) live for the whole client/cloud session, so a retry
  // re-sends only the freshly re-encrypted inputs — never the key material,
  // which dwarfs every other object in the protocol. The op-counter
  // regression test pins kGaloisKeys to one bump per serve call regardless
  // of how many attempts the fault plan forces. The keys carry the plan's
  // levels: bare steps would rebuild every key over the whole chain.
  model.backend().ensure_galois_keys(model.galois_keys());

  // Partial batches ride in the same slot-packed layout padded with zero
  // images; their logits exist but are dropped before the outcome is built.
  const std::vector<std::vector<float>>* submit = &images;
  std::vector<std::vector<float>> padded;
  if (images.size() < batch) {
    padded = images;
    const std::size_t in_dim = images.front().size();
    padded.resize(batch, std::vector<float>(in_dim, 0.0f));
    submit = &padded;
  }

  ServeBatchOutcome outcome;
  const int attempts_allowed = 1 + std::max(0, options.max_retries);
  for (int attempt = 0; attempt < attempts_allowed; ++attempt) {
    ++outcome.attempts;
    try {
      // Client side: fresh encrypt every attempt (retry-with-recompute).
      const std::vector<Ciphertext> fresh = model.encrypt_batch(*submit);
      // Client -> cloud hop, per branch ciphertext.
      std::vector<Ciphertext> cloud_inputs;
      cloud_inputs.reserve(fresh.size());
      for (const Ciphertext& ct : fresh) {
        cloud_inputs.push_back(ship(backend, ct, fault::Site::kWireUpload));
      }
      // Cloud side: validation + guardrails run inside eval.
      const Ciphertext encrypted_logits =
          guarded_eval(model, cloud_inputs, options.watchdog_seconds);
      // Cloud -> client hop, then client-side decrypt + de-interleave.
      const Ciphertext received =
          ship(backend, encrypted_logits, fault::Site::kWireDownload);
      auto all = model.decrypt_logits_batch(received);
      outcome.logits.assign(
          std::make_move_iterator(all.begin()),
          std::make_move_iterator(all.begin() +
                                  static_cast<long>(images.size())));
      outcome.predicted.resize(images.size());
      for (std::size_t i = 0; i < images.size(); ++i) {
        const auto& row = outcome.logits[i];
        outcome.predicted[i] = static_cast<int>(
            std::max_element(row.begin(), row.end()) - row.begin());
      }
      outcome.ok = true;
      break;
    } catch (const Error& e) {
      outcome.faults.push_back({e.code(), e.what()});
      if (e.code() == ErrorCode::kNoiseBudget) {
        // Retrying cannot add modulus back; report a degraded outcome.
        outcome.degraded = true;
        break;
      }
    }
  }
  span.attr("attempts", static_cast<double>(outcome.attempts));
  span.attr("ok", outcome.ok ? 1.0 : 0.0);
  return outcome;
}

ServeOutcome serve_classify(const RnsBackend& backend, const HeModel& model,
                            std::span<const float> image,
                            const ServingOptions& options) {
  PPHE_CHECK(&model.backend() == static_cast<const HeBackend*>(&backend),
             "serve_classify: model was compiled on a different backend");
  trace::Span span("serve_classify", "serving");
  // The single-image path IS the batch path with one image: the batched loop
  // handles a batch-1 model (replicated layout) natively, so the two share
  // the retry/recovery logic verbatim.
  ServeBatchOutcome batched = serve_classify_batch(
      backend, model, {std::vector<float>(image.begin(), image.end())},
      options);
  ServeOutcome outcome;
  if (!batched.logits.empty()) {
    outcome.logits = std::move(batched.logits.front());
    outcome.predicted = batched.predicted.front();
  }
  outcome.ok = batched.ok;
  outcome.degraded = batched.degraded;
  outcome.faults = std::move(batched.faults);
  outcome.attempts = batched.attempts;
  span.attr("attempts", static_cast<double>(outcome.attempts));
  span.attr("ok", outcome.ok ? 1.0 : 0.0);
  return outcome;
}

}  // namespace pphe
