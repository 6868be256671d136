// Micro benchmarks (google-benchmark) of the scheme primitives, RNS vs
// multiprecision: NTT, ct-ct multiply, relinearize, rescale, rotate, encode,
// encrypt, decrypt. These are the per-op costs that compose into the
// Table III-VI latencies, plus the DESIGN.md §6 ablations (deferred
// relinearization, BSGS).

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ckks/big_backend.hpp"
#include "ckks/rns_backend.hpp"
#include "common/prng.hpp"
#include "core/he_model.hpp"
#include "core/models.hpp"
#include "math/hal/hal.hpp"
#include "math/modarith.hpp"
#include "math/ntt.hpp"
#include "math/primes.hpp"

namespace pphe {
namespace {

CkksParams bench_params() {
  CkksParams p;
  p.degree = 1 << 12;  // small enough for google-benchmark's repetitions
  p.q_bit_sizes = {40, 26, 26, 26, 26, 26, 26, 26};
  p.special_bit_size = 40;
  p.scale = 67108864.0;
  return p;
}

struct Fixture {
  std::unique_ptr<HeBackend> backend;
  Ciphertext ca, cb;
  Plaintext pb;

  explicit Fixture(const std::string& kind) {
    const CkksParams p = bench_params();
    if (kind == "rns") {
      backend = std::make_unique<RnsBackend>(p);
    } else {
      backend = std::make_unique<BigBackend>(p);
    }
    backend->ensure_galois_keys({1});
    Prng prng(5);
    std::vector<double> a(backend->slot_count()), b(backend->slot_count());
    for (auto& v : a) v = prng.uniform_double();
    for (auto& v : b) v = prng.uniform_double();
    pb = backend->encode(b, p.scale, backend->max_level());
    ca = backend->encrypt(backend->encode(a, p.scale, backend->max_level()));
    cb = backend->encrypt(pb);
  }

  static Fixture& get(const std::string& kind) {
    static Fixture rns("rns");
    static Fixture big("big");
    return kind == "rns" ? rns : big;
  }
};

/// Runs `op` once to warm the arena's free list, then times it and reports
/// allocation behaviour next to latency: alloc/op (free-list misses, i.e.
/// trips to the system allocator), hit/op (slabs recycled), and the arena's
/// peak footprint. Steady-state multiply/rescale/rotate must show 0 alloc/op.
template <typename Op>
void run_with_mem(benchmark::State& state, HeBackend& backend, Op&& op) {
  benchmark::DoNotOptimize(op());  // warm-up populates the free list
  backend.reset_mem_stats();
  for (auto _ : state) {
    benchmark::DoNotOptimize(op());
  }
  const MemStats ms = backend.mem_stats();
  state.counters["alloc/op"] = benchmark::Counter(
      static_cast<double>(ms.pool_misses), benchmark::Counter::kAvgIterations);
  state.counters["hit/op"] = benchmark::Counter(
      static_cast<double>(ms.pool_hits), benchmark::Counter::kAvgIterations);
  state.counters["peak_MB"] =
      static_cast<double>(ms.peak_bytes) / (1024.0 * 1024.0);
}

void BM_Multiply(benchmark::State& state, const std::string& kind) {
  auto& f = Fixture::get(kind);
  run_with_mem(state, *f.backend,
               [&] { return f.backend->multiply(f.ca, f.cb); });
}

void BM_MultiplyPlain(benchmark::State& state, const std::string& kind) {
  auto& f = Fixture::get(kind);
  run_with_mem(state, *f.backend,
               [&] { return f.backend->multiply_plain(f.ca, f.pb); });
}

void BM_Relinearize(benchmark::State& state, const std::string& kind) {
  auto& f = Fixture::get(kind);
  const Ciphertext prod = f.backend->multiply(f.ca, f.cb);
  run_with_mem(state, *f.backend,
               [&] { return f.backend->relinearize(prod); });
}

void BM_Rescale(benchmark::State& state, const std::string& kind) {
  auto& f = Fixture::get(kind);
  const Ciphertext prod =
      f.backend->relinearize(f.backend->multiply(f.ca, f.cb));
  run_with_mem(state, *f.backend, [&] { return f.backend->rescale(prod); });
}

void BM_Rotate(benchmark::State& state, const std::string& kind) {
  auto& f = Fixture::get(kind);
  run_with_mem(state, *f.backend, [&] { return f.backend->rotate(f.ca, 1); });
}

void BM_Add(benchmark::State& state, const std::string& kind) {
  auto& f = Fixture::get(kind);
  run_with_mem(state, *f.backend, [&] { return f.backend->add(f.ca, f.cb); });
}

void BM_Encrypt(benchmark::State& state, const std::string& kind) {
  auto& f = Fixture::get(kind);
  run_with_mem(state, *f.backend, [&] { return f.backend->encrypt(f.pb); });
}

void BM_Decrypt(benchmark::State& state, const std::string& kind) {
  auto& f = Fixture::get(kind);
  run_with_mem(state, *f.backend,
               [&] { return f.backend->decrypt_decode(f.ca); });
}

void BM_Encode(benchmark::State& state, const std::string& kind) {
  auto& f = Fixture::get(kind);
  std::vector<double> v(f.backend->slot_count(), 0.5);
  run_with_mem(state, *f.backend, [&] {
    return f.backend->encode(v, f.backend->params().scale,
                             f.backend->max_level());
  });
}

// Word-level kernel rows: the per-residue NTT and dyadic loops every
// RNS-domain latency above decomposes into. N=2^14 forward+inverse is the
// kernel-speedup gate tracked across PRs.
struct NttFixture {
  Modulus mod;
  NttTable ntt;
  std::vector<std::uint64_t> a, b, bq, c;

  explicit NttFixture(std::size_t n)
      : mod(generate_ntt_primes(n, 50, 1)[0]), ntt(n, mod), a(n), b(n), bq(n),
        c(n) {
    Prng prng(n);
    for (auto& v : a) v = prng.uniform_below(mod.value());
    for (auto& v : b) v = prng.uniform_below(mod.value());
    dyadic::shoup_precompute(b, bq, mod);  // b as the fixed operand
  }

  static NttFixture& get(std::size_t n) {
    static NttFixture f12(std::size_t{1} << 12);
    static NttFixture f14(std::size_t{1} << 14);
    return n == (std::size_t{1} << 12) ? f12 : f14;
  }
};

void BM_NttForward(benchmark::State& state) {
  auto& f = NttFixture::get(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    f.ntt.forward(f.a);
    benchmark::DoNotOptimize(f.a.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.ntt.n()));
}

void BM_NttInverse(benchmark::State& state) {
  auto& f = NttFixture::get(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    f.ntt.inverse(f.a);
    benchmark::DoNotOptimize(f.a.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.ntt.n()));
}

/// The gate row: one forward + one inverse pass (what every homomorphic op
/// pays per representation change).
void BM_NttForwardInverse(benchmark::State& state) {
  auto& f = NttFixture::get(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    f.ntt.forward(f.a);
    f.ntt.inverse(f.a);
    benchmark::DoNotOptimize(f.a.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.ntt.n()));
}

void BM_PointwiseBarrett(benchmark::State& state) {
  auto& f = NttFixture::get(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    f.ntt.pointwise(f.a, f.b, f.c);
    benchmark::DoNotOptimize(f.c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.ntt.n()));
}

// Fused dyadic kernels: the multiply-accumulate and fixed-operand (Shoup)
// variants the RNS evaluator runs in ct-pt products and key switching.
void BM_DyadicMulAcc(benchmark::State& state) {
  auto& f = NttFixture::get(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    dyadic::mul_acc(f.a, f.b, f.c, f.mod);
    benchmark::DoNotOptimize(f.c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.ntt.n()));
}

void BM_DyadicMulShoup(benchmark::State& state) {
  auto& f = NttFixture::get(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    dyadic::mul_shoup(f.a, f.b, f.bq, f.c, f.mod);
    benchmark::DoNotOptimize(f.c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.ntt.n()));
}

void BM_DyadicMulAccShoup(benchmark::State& state) {
  auto& f = NttFixture::get(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    dyadic::mul_acc_shoup(f.a, f.b, f.bq, f.c, f.mod);
    benchmark::DoNotOptimize(f.c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.ntt.n()));
}

void BM_ShoupPrecompute(benchmark::State& state) {
  auto& f = NttFixture::get(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    dyadic::shoup_precompute(f.b, f.c, f.mod);
    benchmark::DoNotOptimize(f.c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.ntt.n()));
}

#define PPCNN_KERNEL_BENCH(fn) \
  BENCHMARK(fn)->Arg(1 << 12)->Arg(1 << 14)->Unit(benchmark::kMicrosecond)

PPCNN_KERNEL_BENCH(BM_NttForward);
PPCNN_KERNEL_BENCH(BM_NttInverse);
PPCNN_KERNEL_BENCH(BM_NttForwardInverse);
PPCNN_KERNEL_BENCH(BM_PointwiseBarrett);
PPCNN_KERNEL_BENCH(BM_DyadicMulAcc);
PPCNN_KERNEL_BENCH(BM_DyadicMulShoup);
PPCNN_KERNEL_BENCH(BM_DyadicMulAccShoup);
PPCNN_KERNEL_BENCH(BM_ShoupPrecompute);

// Per-ISA kernel rows, driving one HAL table directly (bypassing the
// process dispatch) against the same fixtures. The rows above keep their
// historical names and measure whatever ISA the process dispatched to;
// these pin it in the row name — BM_NttForwardInverse_scalar/16384 is the
// denominator of run_benches.sh's SIMD speedup gate.
void BM_NttForwardInverseIsa(benchmark::State& state,
                             const hal::MathKernels* k) {
  auto& f = NttFixture::get(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    k->ntt_forward(f.a.data(), f.ntt.n(), f.ntt.root_powers().data(),
                   f.mod.value());
    k->ntt_inverse(f.a.data(), f.ntt.n(), f.ntt.inv_root_powers().data(),
                   f.ntt.inv_n(), f.ntt.inv_n_root(), f.mod.value());
    benchmark::DoNotOptimize(f.a.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.ntt.n()));
}

void BM_DyadicMulShoupIsa(benchmark::State& state, const hal::MathKernels* k) {
  auto& f = NttFixture::get(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    k->mul_shoup(f.a.data(), f.b.data(), f.bq.data(), f.c.data(), f.ntt.n(),
                 f.mod.value());
    benchmark::DoNotOptimize(f.c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.ntt.n()));
}

void BM_DyadicMulAccShoupIsa(benchmark::State& state,
                             const hal::MathKernels* k) {
  auto& f = NttFixture::get(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    k->mul_acc_shoup(f.a.data(), f.b.data(), f.bq.data(), f.c.data(),
                     f.ntt.n(), f.mod.value());
    benchmark::DoNotOptimize(f.c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.ntt.n()));
}

// Dense BSGS layer (DESIGN.md §14): three stacked dense 64->64 linear
// stages with plaintext weights, evaluated end to end on the RNS backend.
// `fused` runs the double-hoisted linear_bsgs path (one decomposition per
// unique operand, one mod-down per giant group); `unfused` the legacy
// per-rotation key-switch schedule. run_benches.sh gates fused >= 1.5x.
struct DenseBsgsFixture {
  std::unique_ptr<RnsBackend> backend;
  std::unique_ptr<HeModel> model;
  std::vector<Ciphertext> input;

  explicit DenseBsgsFixture(bool fused)
      : backend(std::make_unique<RnsBackend>(bench_params())) {
    Prng prng(97);
    ModelSpec spec;
    spec.name = fused ? "dense-bsgs-fused" : "dense-bsgs-unfused";
    for (int layer = 0; layer < 3; ++layer) {
      ModelSpec::Stage s;
      s.kind = ModelSpec::Stage::Kind::kLinear;
      s.linear.in_dim = 64;
      s.linear.out_dim = 64;
      s.linear.weight.resize(64 * 64);
      s.linear.bias.resize(64);
      for (auto& w : s.linear.weight) {
        w = static_cast<float>(prng.normal() * 0.1);
      }
      for (auto& b : s.linear.bias) {
        b = static_cast<float>(prng.normal() * 0.05);
      }
      spec.stages.push_back(std::move(s));
    }
    HeModelOptions options;
    options.encrypted_weights = false;
    options.validate_inputs = false;
    options.hoist_fusion = fused;
    model = std::make_unique<HeModel>(*backend, spec, options);
    std::vector<float> img(64);
    for (auto& v : img) v = static_cast<float>(prng.uniform_double());
    input = model->encrypt_input(img);
  }

  static DenseBsgsFixture& get(bool fused) {
    static DenseBsgsFixture hoisted(true);
    static DenseBsgsFixture legacy(false);
    return fused ? hoisted : legacy;
  }
};

void BM_DenseBsgsLayer(benchmark::State& state, bool fused) {
  auto& f = DenseBsgsFixture::get(fused);
  run_with_mem(state, *f.backend, [&] { return f.model->eval(f.input); });
}

void BM_DenseBsgsLayerIsa(benchmark::State& state, bool fused, hal::Isa isa) {
  const hal::ScopedForceIsa pin(isa);
  BM_DenseBsgsLayer(state, fused);
}

// Ablation (DESIGN.md §6.1): relinearizing after every product vs deferring
// a single relinearization to the end of an 8-term inner product.
void BM_InnerProduct8_RelinEach(benchmark::State& state,
                                const std::string& kind) {
  auto& f = Fixture::get(kind);
  for (auto _ : state) {
    Ciphertext acc;
    for (int i = 0; i < 8; ++i) {
      Ciphertext t = f.backend->relinearize(f.backend->multiply(f.ca, f.cb));
      acc = acc.valid() ? f.backend->add(acc, t) : t;
    }
    benchmark::DoNotOptimize(acc);
  }
}

void BM_InnerProduct8_RelinDeferred(benchmark::State& state,
                                    const std::string& kind) {
  auto& f = Fixture::get(kind);
  for (auto _ : state) {
    Ciphertext acc;
    for (int i = 0; i < 8; ++i) {
      Ciphertext t = f.backend->multiply(f.ca, f.cb);
      acc = acc.valid() ? f.backend->add(acc, t) : t;
    }
    benchmark::DoNotOptimize(f.backend->relinearize(acc));
  }
}

#define PPCNN_BENCH(fn)                                             \
  BENCHMARK_CAPTURE(fn, rns, std::string("rns"))                    \
      ->Unit(benchmark::kMillisecond);                              \
  BENCHMARK_CAPTURE(fn, big, std::string("big"))                    \
      ->Unit(benchmark::kMillisecond)

PPCNN_BENCH(BM_Add);
PPCNN_BENCH(BM_Multiply);
PPCNN_BENCH(BM_MultiplyPlain);
PPCNN_BENCH(BM_Relinearize);
PPCNN_BENCH(BM_Rescale);
PPCNN_BENCH(BM_Rotate);
PPCNN_BENCH(BM_Encrypt);
PPCNN_BENCH(BM_Decrypt);
PPCNN_BENCH(BM_Encode);
PPCNN_BENCH(BM_InnerProduct8_RelinEach);
PPCNN_BENCH(BM_InnerProduct8_RelinDeferred);

// Repeated so the run_benches.sh gate can take the fastest of several
// samples: at a short --benchmark_min_time one sample is 2-3 iterations.
BENCHMARK_CAPTURE(BM_DenseBsgsLayer, fused, true)
    ->Unit(benchmark::kMillisecond)
    ->Repetitions(5);
BENCHMARK_CAPTURE(BM_DenseBsgsLayer, unfused, false)
    ->Unit(benchmark::kMillisecond)
    ->Repetitions(5);

}  // namespace

// One row set per ISA this build+CPU can run (scalar always; avx2/avx512
// when present). Must run after benchmark::Initialize.
void register_per_isa_kernel_rows() {
  for (const hal::Isa isa :
       {hal::Isa::kScalar, hal::Isa::kAvx2, hal::Isa::kAvx512}) {
    if (!hal::available(isa)) continue;
    const hal::MathKernels* k = &hal::kernels(isa);
    const std::string suffix = hal::isa_name(isa);
    const struct {
      const char* stem;
      void (*fn)(benchmark::State&, const hal::MathKernels*);
    } rows[] = {
        {"BM_NttForwardInverse_", &BM_NttForwardInverseIsa},
        {"BM_DyadicMulShoup_", &BM_DyadicMulShoupIsa},
        {"BM_DyadicMulAccShoup_", &BM_DyadicMulAccShoupIsa},
    };
    for (const auto& row : rows) {
      auto* fn = row.fn;
      benchmark::RegisterBenchmark((row.stem + suffix).c_str(),
                                   [fn, k](benchmark::State& st) { fn(st, k); })
          ->Arg(1 << 12)
          ->Arg(1 << 14)
          ->Unit(benchmark::kMicrosecond);
    }
    // Layer-level fused/unfused rows with the dispatch pinned, so the drift
    // report can compare the hoisted BSGS path like-for-like per ISA.
    for (const bool fused : {true, false}) {
      const std::string name = std::string("BM_DenseBsgsLayer_") +
                               (fused ? "fused_" : "unfused_") + suffix;
      benchmark::RegisterBenchmark(
          name.c_str(),
          [fused, isa](benchmark::State& st) {
            BM_DenseBsgsLayerIsa(st, fused, isa);
          })
          ->Unit(benchmark::kMillisecond);
    }
  }
}

}  // namespace pphe

// Custom main so callers (run_benches.sh, CI) can ask for machine-readable
// output with a single flag: `--json[=path]` expands to google-benchmark's
// --benchmark_out=<path> --benchmark_out_format=json (default path
// BENCH_micro.json in the current directory). `--force-isa=<name>` pins the
// math HAL before any fixture is built, and the dispatched ISA is recorded
// in the JSON context as "isa_dispatched" so the drift report can compare
// like-for-like. All other flags pass through.
int main(int argc, char** argv) {
  std::string out_flag, fmt_flag = "--benchmark_out_format=json";
  std::string isa_flag;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc) + 2);
  for (int i = 0; i < argc; ++i) {
    const std::string_view a(argv[i]);
    if (a == "--json") {
      out_flag = "--benchmark_out=BENCH_micro.json";
    } else if (a.rfind("--json=", 0) == 0) {
      out_flag = "--benchmark_out=" + std::string(a.substr(7));
    } else if (a.rfind("--force-isa=", 0) == 0) {
      isa_flag = std::string(a.substr(12));
    } else {
      args.push_back(argv[i]);
    }
  }
  if (!isa_flag.empty()) {
    if (isa_flag == "auto") {
      pphe::hal::reset();
    } else {
      pphe::hal::force(pphe::hal::parse_isa(isa_flag));
    }
  }
  if (!out_flag.empty()) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int patched_argc = static_cast<int>(args.size());
  benchmark::Initialize(&patched_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(patched_argc, args.data())) {
    return 1;
  }
  pphe::register_per_isa_kernel_rows();
  benchmark::AddCustomContext("isa_dispatched", pphe::hal::active().name);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
