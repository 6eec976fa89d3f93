// Link-time layer tracer for pdsl_benchmark_traced.
//
// The library is linked unchanged; CMakeLists.txt passes -Wl,--wrap=<symbol>
// for every symbol named in a PDSL_WRAP(...) below, so each call that crosses
// into that entry point from another translation unit lands in the wrapper,
// which times it and forwards to __real_<symbol>. Calls inside one
// translation unit are resolved by the compiler and are not seen, and
// virtual calls (nn::Layer::forward) cannot be wrapped at all.
//
// __real_<symbol> is declared weak: if an entry point is renamed or its
// signature changes, the build still links, the wrapper is never called, the
// layer's counts stay zero and pdsl_bench_trace_dump lists the symbol under
// "missing_symbols", which run.py reports as a missing layer.
//
// Recording: every wrapped call is a Span that adds its call count, inclusive
// ns, self ns (minus wrapped calls nested in it on the same thread) and a
// work measure (flop, bytes, coalitions) into a thread-local table row for
// the current round. Network::begin_round(t) starts a new round row. Spans of
// one chosen round are also kept as Chrome trace events.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "fleet/wire.hpp"
#include "nn/model.hpp"
#include "runtime/parallel_for.hpp"
#include "shapley/game.hpp"
#include "shapley/shapley.hpp"
#include "sim/evaluate.hpp"
#include "sim/network.hpp"
#include "sim/worker.hpp"
#include "trace_hooks.hpp"

namespace {

using namespace pdsl;

enum Metric : int {
  kGemm,
  kIm2col,
  kCol2im,
  kTrainStep,
  kInfer,
  kWorkerGradient,
  kPrivatize,
  kShapleyEstimate,
  kCoalitionEval,
  kParallelFor,   ///< units = wall ns x pool width (capacity)
  kParallelBody,  ///< one per body(i) call; ns = busy time
  kNetSend,
  kNetReceive,
  kNetBeginRound,
  kWireEncode,
  kWireDecode,
  kMetricCount,
};

constexpr std::array<const char*, kMetricCount> kMetricNames = {
    "kernels.gemm",        "kernels.im2col",     "kernels.col2im",
    "nn.train_step",       "nn.infer",           "sim.worker.gradient",
    "dp.privatize",        "shapley.estimate",   "sim.evaluate",
    "runtime.parallel_for", "runtime.parallel_body", "sim.network.send",
    "sim.network.receive", "sim.network.begin_round", "fleet.wire.encode",
    "fleet.wire.decode"};

/// Spans kept for the Chrome trace are capped so a pathological round
/// cannot exhaust memory; the cap is reported in the trace metadata.
constexpr std::size_t kMaxEvents = 500000;

struct Cell {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
  std::uint64_t self_ns = 0;
  double units = 0.0;
};
using Row = std::array<Cell, kMetricCount>;

struct Event {
  Metric metric;
  std::uint64_t start_ns;
  std::uint64_t dur_ns;
};

class Span;

/// One per thread that ever entered a wrapper. Owned by the global registry
/// (not by the thread) so rows of pool threads torn down between
/// repetitions survive until the dump.
struct ThreadTable {
  std::size_t tid = 0;
  std::vector<Row> rows;  ///< indexed by round id
  std::vector<Event> events;
  Span* top = nullptr;  ///< innermost open span on this thread

  Cell& cell(std::size_t round, Metric m) {
    if (rows.size() <= round) rows.resize(round + 1);
    return rows[round][m];
  }
};

struct RoundInfo {
  std::size_t rep = 0;
  std::size_t t = 0;  ///< 0 = repetition set-up (before its first round)
  std::uint64_t start_ns = 0;
  std::size_t tid = 0;  ///< the main thread that opened it
};

struct Registry {
  std::mutex mu;  ///< guards tables and rounds
  std::vector<std::unique_ptr<ThreadTable>> tables;
  std::vector<RoundInfo> rounds;  ///< index = round id
};

Registry& registry() {
  static auto* r = new Registry();  // leaky: pool threads may outlive statics
  return *r;
}

// The current round id is written only by the main thread (in the
// begin_round wrapper and pdsl_bench_trace_rep, both outside parallel
// regions) and read by every thread; parallel_for's barrier orders them.
std::atomic<std::size_t> g_round{0};
std::atomic<bool> g_capture{false};
std::size_t g_rep = 0;
std::size_t g_capture_rep = static_cast<std::size_t>(-1);
std::size_t g_capture_round = 0;
const auto g_epoch = std::chrono::steady_clock::now();

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - g_epoch)
                                        .count());
}

ThreadTable& table() {
  thread_local ThreadTable* mine = [] {
    auto& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.tables.push_back(std::make_unique<ThreadTable>());
    reg.tables.back()->tid = reg.tables.size();
    return reg.tables.back().get();
  }();
  return *mine;
}

std::size_t open_round(std::size_t rep, std::size_t t) {
  const std::size_t tid = table().tid;
  auto& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.rounds.push_back(RoundInfo{rep, t, now_ns(), tid});
  return reg.rounds.size() - 1;
}

class Span {
 public:
  explicit Span(Metric m, double units = 0.0, ThreadTable& tab = table())
      : tab_(tab), metric_(m), round_(g_round.load(std::memory_order_relaxed)),
        units_(units), parent_(tab_.top), start_(now_ns()) {
    tab_.top = this;
  }
  ~Span() {
    const std::uint64_t dur = now_ns() - start_;
    tab_.top = parent_;
    // A span nested in one of its own metric (re-entry through another
    // translation unit) is already inside that outer span's time.
    bool reentered = false;
    for (const Span* p = parent_; p != nullptr; p = p->parent_) reentered |= p->metric_ == metric_;
    Cell& c = tab_.cell(round_, metric_);
    ++c.calls;
    c.units += units_;
    if (!reentered) {
      c.ns += dur;
      c.self_ns += dur - child_ns_;
    }
    if (parent_ != nullptr) parent_->child_ns_ += dur;
    if (g_capture.load(std::memory_order_relaxed) && tab_.events.size() < kMaxEvents) {
      tab_.events.push_back(Event{metric_, start_, dur});
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void add_units(double u) { units_ += u; }
  [[nodiscard]] std::uint64_t start() const { return start_; }

 private:
  ThreadTable& tab_;
  Metric metric_;
  std::size_t round_;
  double units_;
  Span* parent_;
  std::uint64_t start_;
  std::uint64_t child_ns_ = 0;
};

}  // namespace

// Declares the weak __real_<sym> as real_<name> and opens the definition of
// __wrap_<sym>. CMakeLists.txt turns every "PDSL_WRAP(<sym>" in this file
// into -Wl,--wrap=<sym>, so the symbol must directly follow the parenthesis.
// Both functions need external linkage for the linker to bind them.
#define PDSL_WRAP(sym, ret, name, params)                                  \
  ret real_##name params __asm__("__real_" #sym) __attribute__((weak)); \
  ret wrap_##name params __asm__("__wrap_" #sym);                       \
  ret wrap_##name params

// Member functions are wrapped as free functions taking `this` first, which
// is how the Itanium C++ ABI passes it (after the hidden return slot).

// ---- kernels ---------------------------------------------------------------

PDSL_WRAP(_ZN4pdsl7kernels5sgemmEmmmPKfS2_Pfb, void, sgemm,
          (std::size_t m, std::size_t k, std::size_t n, const float* a, const float* b,
           float* c, bool acc)) {
  Span s(kGemm, 2.0 * static_cast<double>(m) * static_cast<double>(k) * static_cast<double>(n));
  real_sgemm(m, k, n, a, b, c, acc);
}

PDSL_WRAP(_ZN4pdsl7kernels17sgemm_transpose_aEmmmPKfS2_Pfb, void, sgemm_ta,
          (std::size_t m, std::size_t k, std::size_t n, const float* a, const float* b,
           float* c, bool acc)) {
  Span s(kGemm, 2.0 * static_cast<double>(m) * static_cast<double>(k) * static_cast<double>(n));
  real_sgemm_ta(m, k, n, a, b, c, acc);
}

PDSL_WRAP(_ZN4pdsl7kernels17sgemm_transpose_bEmmmPKfS2_Pfb, void, sgemm_tb,
          (std::size_t m, std::size_t n, std::size_t k, const float* a, const float* b,
           float* c, bool acc)) {
  Span s(kGemm, 2.0 * static_cast<double>(m) * static_cast<double>(k) * static_cast<double>(n));
  real_sgemm_tb(m, n, k, a, b, c, acc);
}

PDSL_WRAP(_ZN4pdsl7kernels6im2colEPKfmmmmmPf, void, im2col,
          (const float* x, std::size_t in_ch, std::size_t ih, std::size_t iw, std::size_t k,
           std::size_t pad, float* col)) {
  Span s(kIm2col);
  real_im2col(x, in_ch, ih, iw, k, pad, col);
}

PDSL_WRAP(_ZN4pdsl7kernels6col2imEPKfmmmmmPf, void, col2im,
          (const float* col, std::size_t in_ch, std::size_t ih, std::size_t iw, std::size_t k,
           std::size_t pad, float* x)) {
  Span s(kCol2im);
  real_col2im(col, in_ch, ih, iw, k, pad, x);
}

// ---- nn ----------------------------------------------------------------------

PDSL_WRAP(_ZN4pdsl2nn5Model17loss_and_backwardERKNS_6TensorERKSt6vectorIiSaIiEE, double,
          loss_and_backward, (nn::Model * self, const Tensor& x, const std::vector<int>& y)) {
  Span s(kTrainStep);
  return real_loss_and_backward(self, x, y);
}

PDSL_WRAP(_ZN4pdsl2nn5Model7forwardERKNS_6TensorE, Tensor, model_forward,
          (nn::Model * self, const Tensor& x)) {
  Span s(kInfer);
  return real_model_forward(self, x);
}

PDSL_WRAP(_ZN4pdsl2nn5Model8accuracyERKNS_6TensorERKSt6vectorIiSaIiEE, double, model_accuracy,
          (nn::Model * self, const Tensor& x, const std::vector<int>& y)) {
  Span s(kInfer);
  return real_model_accuracy(self, x, y);
}

PDSL_WRAP(_ZN4pdsl2nn5Model4lossERKNS_6TensorERKSt6vectorIiSaIiEE, double, model_loss,
          (nn::Model * self, const Tensor& x, const std::vector<int>& y)) {
  Span s(kInfer);
  return real_model_loss(self, x, y);
}

// ---- sim worker + dp ----------------------------------------------------------

PDSL_WRAP(_ZN4pdsl3sim11LocalWorker8gradientERKSt6vectorIfSaIfEE, std::vector<float>,
          worker_gradient, (sim::LocalWorker * self, const std::vector<float>& params)) {
  Span s(kWorkerGradient);
  return real_worker_gradient(self, params);
}

PDSL_WRAP(_ZN4pdsl2dp9privatizeERKSt6vectorIfSaIfEEddRNS_3RngE, std::vector<float>, privatize,
          (const std::vector<float>& g, double clip, double sigma, Rng& rng)) {
  Span s(kPrivatize);
  return real_privatize(g, clip, sigma, rng);
}

// ---- shapley estimators + coalition scoring ---------------------------------------

PDSL_WRAP(_ZN4pdsl7shapley19monte_carlo_shapleyERNS0_4GameEmRNS_3RngE, std::vector<double>,
          monte_carlo_shapley, (shapley::Game & game, std::size_t perms, Rng& rng)) {
  Span s(kShapleyEstimate);
  return real_monte_carlo_shapley(game, perms, rng);
}

PDSL_WRAP(_ZN4pdsl7shapley13exact_shapleyERNS0_4GameE, std::vector<double>, exact_shapley,
          (shapley::Game & game)) {
  Span s(kShapleyEstimate);
  return real_exact_shapley(game);
}

PDSL_WRAP(_ZN4pdsl7shapley28adaptive_monte_carlo_shapleyERNS0_4GameERKNS0_17AdaptiveMcOptionsERNS_3RngE,
          shapley::AdaptiveMcResult, adaptive_shapley,
          (shapley::Game & game, const shapley::AdaptiveMcOptions& opts, Rng& rng)) {
  Span s(kShapleyEstimate);
  return real_adaptive_shapley(game, opts, rng);
}

PDSL_WRAP(_ZN4pdsl7shapley29truncated_monte_carlo_shapleyERNS0_4GameERKNS0_18TruncatedMcOptionsERNS_3RngE,
          std::vector<double>, truncated_shapley,
          (shapley::Game & game, const shapley::TruncatedMcOptions& opts, Rng& rng)) {
  Span s(kShapleyEstimate);
  return real_truncated_shapley(game, opts, rng);
}

PDSL_WRAP(_ZN4pdsl7shapley18stratified_shapleyERNS0_4GameEmRNS_3RngE, std::vector<double>,
          stratified_shapley, (shapley::Game & game, std::size_t per_stratum, Rng& rng)) {
  Span s(kShapleyEstimate);
  return real_stratified_shapley(game, per_stratum, rng);
}

PDSL_WRAP(_ZN4pdsl3sim11accuracy_onERNS_2nn5ModelERKSt6vectorIfSaIfEERKNS0_10FixedBatchE, double,
          accuracy_on,
          (nn::Model & ws, const std::vector<float>& params, const sim::FixedBatch& b)) {
  Span s(kCoalitionEval, 1.0);
  return real_accuracy_on(ws, params, b);
}

PDSL_WRAP(_ZN4pdsl3sim7loss_onERNS_2nn5ModelERKSt6vectorIfSaIfEERKNS0_10FixedBatchE, double,
          loss_on, (nn::Model & ws, const std::vector<float>& params, const sim::FixedBatch& b)) {
  Span s(kCoalitionEval, 1.0);
  return real_loss_on(ws, params, b);
}

using ParamPtrs = std::vector<const std::vector<float>*>;

PDSL_WRAP(_ZN4pdsl3sim23CoalitionBatchEvaluator10accuraciesERKSt6vectorIPKS2_IfSaIfEESaIS6_EE,
          std::vector<double>, batch_accuracies,
          (sim::CoalitionBatchEvaluator * self, const ParamPtrs& params)) {
  Span s(kCoalitionEval, static_cast<double>(params.size()));
  return real_batch_accuracies(self, params);
}

PDSL_WRAP(_ZN4pdsl3sim23CoalitionBatchEvaluator6lossesERKSt6vectorIPKS2_IfSaIfEESaIS6_EE,
          std::vector<double>, batch_losses,
          (sim::CoalitionBatchEvaluator * self, const ParamPtrs& params)) {
  Span s(kCoalitionEval, static_cast<double>(params.size()));
  return real_batch_losses(self, params);
}

PDSL_WRAP(_ZN4pdsl3sim23CoalitionBatchEvaluator11set_membersERKSt6vectorIPKS2_IfSaIfEESaIS6_EE,
          void, set_members, (sim::CoalitionBatchEvaluator * self, const ParamPtrs& members)) {
  Span s(kCoalitionEval);
  real_set_members(self, members);
}

PDSL_WRAP(_ZN4pdsl3sim23CoalitionBatchEvaluator20coalition_accuraciesERKSt6vectorImSaImEE,
          std::vector<double>, coalition_accuracies,
          (sim::CoalitionBatchEvaluator * self, const std::vector<std::uint64_t>& masks)) {
  Span s(kCoalitionEval, static_cast<double>(masks.size()));
  return real_coalition_accuracies(self, masks);
}

PDSL_WRAP(_ZN4pdsl3sim23CoalitionBatchEvaluator16coalition_lossesERKSt6vectorImSaImEE,
          std::vector<double>, coalition_losses,
          (sim::CoalitionBatchEvaluator * self, const std::vector<std::uint64_t>& masks)) {
  Span s(kCoalitionEval, static_cast<double>(masks.size()));
  return real_coalition_losses(self, masks);
}

// ---- runtime -----------------------------------------------------------------

PDSL_WRAP(_ZN4pdsl7runtime12parallel_forEmmmRKSt8functionIFvmEE, void, parallel_for,
          (std::size_t begin, std::size_t end, std::size_t grain,
           const std::function<void(std::size_t)>& body)) {
  const double width = static_cast<double>(runtime::global_threads());
  Span s(kParallelFor);
  real_parallel_for(begin, end, grain, [&body](std::size_t i) {
    Span busy(kParallelBody);
    body(i);
  });
  s.add_units(width * static_cast<double>(now_ns() - s.start()));
}

// ---- sim network + fleet wire --------------------------------------------------

PDSL_WRAP(_ZN4pdsl3sim7Network11begin_roundEm, std::vector<sim::LateMessage>, begin_round,
          (sim::Network * self, std::size_t t)) {
  const std::size_t id = open_round(g_rep, t);
  g_round.store(id, std::memory_order_relaxed);
  g_capture.store(g_rep == g_capture_rep && t == g_capture_round, std::memory_order_relaxed);
  Span s(kNetBeginRound);
  return real_begin_round(self, t);
}

PDSL_WRAP(_ZN4pdsl3sim7Network4sendEmmRKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESt6vectorIfSaIfEENS0_7ChannelE,
          bool, net_send,
          (sim::Network * self, std::size_t src, std::size_t dst, const std::string& tag,
           std::vector<float> payload, sim::Channel channel)) {
  Span s(kNetSend, static_cast<double>(payload.size() * sizeof(float)));
  return real_net_send(self, src, dst, tag, std::move(payload), channel);
}

PDSL_WRAP(_ZN4pdsl3sim7Network7receiveEmmRKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE,
          std::optional<std::vector<float>>, net_receive,
          (sim::Network * self, std::size_t dst, std::size_t src, const std::string& tag)) {
  Span s(kNetReceive);
  return real_net_receive(self, dst, src, tag);
}

PDSL_WRAP(_ZN4pdsl5fleet11wire_encodeERKNS0_11WireMessageE, io::ByteBuffer, wire_encode,
          (const fleet::WireMessage& msg)) {
  Span s(kWireEncode);
  io::ByteBuffer frame = real_wire_encode(msg);
  s.add_units(static_cast<double>(frame.size()));
  return frame;
}

PDSL_WRAP(_ZN4pdsl5fleet11wire_decodeERKSt6vectorIhSaIhEE, fleet::WireMessage, wire_decode,
          (const io::ByteBuffer& frame)) {
  Span s(kWireDecode);
  return real_wire_decode(frame);
}

PDSL_WRAP(_ZN4pdsl5fleet15wire_try_decodeERKSt6vectorIhSaIhEE, std::optional<fleet::WireMessage>,
          wire_try_decode, (const io::ByteBuffer& frame)) {
  Span s(kWireDecode);
  return real_wire_try_decode(frame);
}

// ---- hooks ---------------------------------------------------------------------

namespace {

/// (name, address) of every __real_ symbol; a null address is a layer whose
/// entry point no longer exists under the wrapped name.
std::vector<std::pair<const char*, const void*>> real_symbols() {
  return {
      {"kernels::sgemm", reinterpret_cast<const void*>(&real_sgemm)},
      {"kernels::sgemm_transpose_a", reinterpret_cast<const void*>(&real_sgemm_ta)},
      {"kernels::sgemm_transpose_b", reinterpret_cast<const void*>(&real_sgemm_tb)},
      {"kernels::im2col", reinterpret_cast<const void*>(&real_im2col)},
      {"kernels::col2im", reinterpret_cast<const void*>(&real_col2im)},
      {"nn::Model::loss_and_backward", reinterpret_cast<const void*>(&real_loss_and_backward)},
      {"nn::Model::forward", reinterpret_cast<const void*>(&real_model_forward)},
      {"nn::Model::accuracy", reinterpret_cast<const void*>(&real_model_accuracy)},
      {"nn::Model::loss", reinterpret_cast<const void*>(&real_model_loss)},
      {"sim::LocalWorker::gradient", reinterpret_cast<const void*>(&real_worker_gradient)},
      {"dp::privatize", reinterpret_cast<const void*>(&real_privatize)},
      {"shapley::monte_carlo_shapley", reinterpret_cast<const void*>(&real_monte_carlo_shapley)},
      {"shapley::exact_shapley", reinterpret_cast<const void*>(&real_exact_shapley)},
      {"shapley::adaptive_monte_carlo_shapley",
       reinterpret_cast<const void*>(&real_adaptive_shapley)},
      {"shapley::truncated_monte_carlo_shapley",
       reinterpret_cast<const void*>(&real_truncated_shapley)},
      {"shapley::stratified_shapley", reinterpret_cast<const void*>(&real_stratified_shapley)},
      {"sim::accuracy_on", reinterpret_cast<const void*>(&real_accuracy_on)},
      {"sim::loss_on", reinterpret_cast<const void*>(&real_loss_on)},
      {"sim::CoalitionBatchEvaluator::accuracies",
       reinterpret_cast<const void*>(&real_batch_accuracies)},
      {"sim::CoalitionBatchEvaluator::losses", reinterpret_cast<const void*>(&real_batch_losses)},
      {"sim::CoalitionBatchEvaluator::set_members",
       reinterpret_cast<const void*>(&real_set_members)},
      {"sim::CoalitionBatchEvaluator::coalition_accuracies",
       reinterpret_cast<const void*>(&real_coalition_accuracies)},
      {"sim::CoalitionBatchEvaluator::coalition_losses",
       reinterpret_cast<const void*>(&real_coalition_losses)},
      {"runtime::parallel_for", reinterpret_cast<const void*>(&real_parallel_for)},
      {"sim::Network::begin_round", reinterpret_cast<const void*>(&real_begin_round)},
      {"sim::Network::send", reinterpret_cast<const void*>(&real_net_send)},
      {"sim::Network::receive", reinterpret_cast<const void*>(&real_net_receive)},
      {"fleet::wire_encode", reinterpret_cast<const void*>(&real_wire_encode)},
      {"fleet::wire_decode", reinterpret_cast<const void*>(&real_wire_decode)},
      {"fleet::wire_try_decode", reinterpret_cast<const void*>(&real_wire_try_decode)},
  };
}

/// Mean cost of one empty span, measured into a throwaway table: what every
/// wrapped call adds to the traced run.
double span_cost_ns() {
  constexpr int kSpans = 200000;
  ThreadTable throwaway;
  const std::uint64_t start = now_ns();
  for (int i = 0; i < kSpans; ++i) Span s(kGemm, 0.0, throwaway);
  return static_cast<double>(now_ns() - start) / kSpans;
}

json::Value per_layer_json(Registry& reg) {
  json::Array metric_names;
  for (const char* n : kMetricNames) metric_names.emplace_back(n);
  json::Array missing;
  for (const auto& [name, addr] : real_symbols()) {
    if (addr == nullptr) missing.emplace_back(name);
  }
  json::Array rounds;
  for (std::size_t id = 0; id < reg.rounds.size(); ++id) {
    Row sum{};
    for (const auto& tab : reg.tables) {
      if (id >= tab->rows.size()) continue;
      for (int m = 0; m < kMetricCount; ++m) {
        const Cell& c = tab->rows[id][m];
        sum[m].calls += c.calls;
        sum[m].ns += c.ns;
        sum[m].self_ns += c.self_ns;
        sum[m].units += c.units;
      }
    }
    json::Object cells;
    for (int m = 0; m < kMetricCount; ++m) {
      if (sum[m].calls == 0) continue;
      cells[kMetricNames[m]] = json::Array{json::Value(static_cast<std::int64_t>(sum[m].calls)),
                                           json::Value(static_cast<std::int64_t>(sum[m].ns)),
                                           json::Value(static_cast<std::int64_t>(sum[m].self_ns)),
                                           json::Value(sum[m].units)};
    }
    json::Object row;
    row["rep"] = reg.rounds[id].rep;
    row["t"] = reg.rounds[id].t;
    row["cells"] = std::move(cells);
    rounds.push_back(json::Value(std::move(row)));
  }
  json::Object o;
  o["cell_fields"] = json::Array{json::Value("calls"), json::Value("ns"), json::Value("self_ns"),
                                 json::Value("units")};
  o["metrics"] = std::move(metric_names);
  o["missing_symbols"] = std::move(missing);
  o["span_cost_ns"] = span_cost_ns();
  o["rounds"] = std::move(rounds);
  return json::Value(std::move(o));
}

json::Value span_event(const char* name, std::uint64_t start_ns, std::uint64_t dur_ns,
                       std::size_t tid) {
  json::Object ev;
  ev["name"] = name;
  ev["ph"] = "X";
  ev["ts"] = static_cast<double>(start_ns) / 1e3;
  ev["dur"] = static_cast<double>(dur_ns) / 1e3;
  ev["pid"] = 1;
  ev["tid"] = tid;
  return json::Value(std::move(ev));
}

json::Value chrome_json(Registry& reg) {
  json::Array events;
  bool truncated = false;
  std::uint64_t last_end = 0;
  for (const auto& tab : reg.tables) {
    truncated |= tab->events.size() >= kMaxEvents;
    for (const Event& e : tab->events) {
      events.push_back(span_event(kMetricNames[e.metric], e.start_ns, e.dur_ns, tab->tid));
      last_end = std::max(last_end, e.start_ns + e.dur_ns);
    }
  }
  // The captured round itself (run_round plus its metrics evaluation) runs
  // from its begin_round to the next round's.
  for (std::size_t id = 0; id < reg.rounds.size(); ++id) {
    const RoundInfo& r = reg.rounds[id];
    if (r.rep != g_capture_rep || r.t != g_capture_round) continue;
    const std::uint64_t end = id + 1 < reg.rounds.size() ? reg.rounds[id + 1].start_ns : last_end;
    events.push_back(span_event("round", r.start_ns, std::max(end, r.start_ns) - r.start_ns, r.tid));
  }
  json::Object meta;
  meta["capture_rep"] = g_capture_rep;
  meta["capture_round"] = g_capture_round;
  meta["truncated"] = truncated;
  json::Object o;
  o["traceEvents"] = std::move(events);
  o["displayTimeUnit"] = "ms";
  o["otherData"] = std::move(meta);
  return json::Value(std::move(o));
}

bool write_file(const char* path, const json::Value& v) {
  std::ofstream f(path);
  f << v.dump() << "\n";
  if (!f) {
    std::fprintf(stderr, "pdsl_benchmark_traced: cannot write %s\n", path);
    return false;
  }
  return true;
}

}  // namespace

extern "C" void pdsl_bench_trace_rep(std::size_t rep) {
  g_rep = rep;
  g_capture.store(false, std::memory_order_relaxed);
  g_round.store(open_round(rep, 0), std::memory_order_relaxed);
}

extern "C" void pdsl_bench_trace_capture(std::size_t rep, std::size_t round) {
  g_capture_rep = rep;
  g_capture_round = round;
}

extern "C" bool pdsl_bench_trace_dump(const char* per_layer_path, const char* chrome_path) {
  g_capture.store(false, std::memory_order_relaxed);
  auto& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  return write_file(per_layer_path, per_layer_json(reg)) &&
         write_file(chrome_path, chrome_json(reg));
}
