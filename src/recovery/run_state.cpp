#include "recovery/run_state.hpp"

#include <stdexcept>

#include "io/checkpoint.hpp"

namespace pdsl::recovery {

namespace {

// Every RoundMetrics field travels, wall-clock ones included: a resumed run
// re-emits the prior rows verbatim, so its CSV is byte-identical to the
// uninterrupted run's in all deterministic columns and carries the original
// timings in the volatile "_s" ones.
void append_round(io::ByteBuffer& buf, const sim::RoundMetrics& m) {
  io::append_u64(buf, m.round);
  io::append_f64(buf, m.avg_loss);
  io::append_f64(buf, m.test_accuracy);
  io::append_f64(buf, m.consensus);
  io::append_f64(buf, m.grad_norm);
  io::append_u64(buf, m.messages);
  io::append_u64(buf, m.bytes);
  io::append_f64(buf, m.elapsed_s);
  io::append_f64(buf, m.round_s);
  io::append_f64(buf, m.phases.local_grad_s);
  io::append_f64(buf, m.phases.crossgrad_s);
  io::append_f64(buf, m.phases.shapley_s);
  io::append_f64(buf, m.phases.aggregate_s);
  io::append_f64(buf, m.phases.gossip_s);
  io::append_u64(buf, m.dropped);
  io::append_u64(buf, m.delayed);
  io::append_u64(buf, m.offline);
  io::append_u64(buf, m.stale_reused);
  io::append_u64(buf, m.fallbacks);
  io::append_u64(buf, m.byz_active);
  io::append_u64(buf, m.corrupted);
  io::append_u64(buf, m.rejected);
  io::append_u64(buf, m.reclipped);
  io::append_f64(buf, m.pi_attacker);
  io::append_f64(buf, m.pi_honest);
  io::append_f64(buf, m.epsilon_spent);
  io::append_u64(buf, m.shapley_evals);
  io::append_u64(buf, m.shapley_early_stops);
  io::append_u64(buf, m.retransmits);
  io::append_u64(buf, m.corrupt_detected);
  io::append_u64(buf, m.dup_dropped);
  io::append_u64(buf, m.reordered);
  io::append_u64(buf, m.crashes);
  io::append_u64(buf, m.resyncs);
}

sim::RoundMetrics read_round(io::ByteReader& r) {
  sim::RoundMetrics m;
  m.round = static_cast<std::size_t>(r.read_u64("round"));
  m.avg_loss = r.read_f64("avg_loss");
  m.test_accuracy = r.read_f64("test_accuracy");
  m.consensus = r.read_f64("consensus");
  m.grad_norm = r.read_f64("grad_norm");
  m.messages = static_cast<std::size_t>(r.read_u64("messages"));
  m.bytes = static_cast<std::size_t>(r.read_u64("bytes"));
  m.elapsed_s = r.read_f64("elapsed_s");
  m.round_s = r.read_f64("round_s");
  m.phases.local_grad_s = r.read_f64("local_grad_s");
  m.phases.crossgrad_s = r.read_f64("crossgrad_s");
  m.phases.shapley_s = r.read_f64("shapley_s");
  m.phases.aggregate_s = r.read_f64("aggregate_s");
  m.phases.gossip_s = r.read_f64("gossip_s");
  m.dropped = static_cast<std::size_t>(r.read_u64("dropped"));
  m.delayed = static_cast<std::size_t>(r.read_u64("delayed"));
  m.offline = static_cast<std::size_t>(r.read_u64("offline"));
  m.stale_reused = static_cast<std::size_t>(r.read_u64("stale_reused"));
  m.fallbacks = static_cast<std::size_t>(r.read_u64("fallbacks"));
  m.byz_active = static_cast<std::size_t>(r.read_u64("byz_active"));
  m.corrupted = static_cast<std::size_t>(r.read_u64("corrupted"));
  m.rejected = static_cast<std::size_t>(r.read_u64("rejected"));
  m.reclipped = static_cast<std::size_t>(r.read_u64("reclipped"));
  m.pi_attacker = r.read_f64("pi_attacker");
  m.pi_honest = r.read_f64("pi_honest");
  m.epsilon_spent = r.read_f64("epsilon_spent");
  m.shapley_evals = static_cast<std::size_t>(r.read_u64("shapley_evals"));
  m.shapley_early_stops = static_cast<std::size_t>(r.read_u64("shapley_early_stops"));
  m.retransmits = static_cast<std::size_t>(r.read_u64("retransmits"));
  m.corrupt_detected = static_cast<std::size_t>(r.read_u64("corrupt_detected"));
  m.dup_dropped = static_cast<std::size_t>(r.read_u64("dup_dropped"));
  m.reordered = static_cast<std::size_t>(r.read_u64("reordered"));
  m.crashes = static_cast<std::size_t>(r.read_u64("crashes"));
  m.resyncs = static_cast<std::size_t>(r.read_u64("resyncs"));
  return m;
}

}  // namespace

void save_run_state(const std::string& path, const RunState& st) {
  io::ByteBuffer body;
  io::append_u64(body, st.config_hash);
  io::append_u64(body, st.resume.completed_rounds);
  io::append_f64(body, st.resume.last_acc);
  io::append_u64(body, st.resume.accountant_rdp.size());
  for (const double v : st.resume.accountant_rdp) io::append_f64(body, v);
  io::append_u64(body, st.resume.accountant_invocations);
  io::append_u64(body, st.resume.prior_series.size());
  for (const auto& m : st.resume.prior_series) append_round(body, m);
  io::append_u64(body, st.algo_state.size());
  io::append_raw(body, st.algo_state.data(), st.algo_state.size());
  io::save_blob(path, kRunStateMagic, body, "run-state save");
}

RunState load_run_state(const std::string& path, std::uint64_t expected_config_hash) {
  const io::ByteBuffer body = io::load_blob(path, kRunStateMagic, "run-state load");
  io::ByteReader r(body, "run-state load");
  RunState st;
  st.config_hash = r.read_u64("config hash");
  if (expected_config_hash != 0 && st.config_hash != expected_config_hash) {
    throw std::runtime_error(
        "run-state load: " + path +
        " was checkpointed under a different experiment configuration; refusing to "
        "resume (a silent mismatch would diverge, not recover)");
  }
  st.resume.completed_rounds = static_cast<std::size_t>(r.read_u64("completed rounds"));
  st.resume.last_acc = r.read_f64("last accuracy");
  const auto n_rdp = static_cast<std::size_t>(r.read_u64("rdp order count"));
  st.resume.accountant_rdp.reserve(n_rdp);
  for (std::size_t i = 0; i < n_rdp; ++i) {
    st.resume.accountant_rdp.push_back(r.read_f64("rdp accumulator"));
  }
  st.resume.accountant_invocations =
      static_cast<std::size_t>(r.read_u64("accountant invocations"));
  const auto n_rounds = static_cast<std::size_t>(r.read_u64("series length"));
  st.resume.prior_series.reserve(n_rounds);
  for (std::size_t i = 0; i < n_rounds; ++i) st.resume.prior_series.push_back(read_round(r));
  const auto blob_size = static_cast<std::size_t>(r.read_u64("algorithm blob size"));
  st.algo_state.resize(blob_size);
  r.read_raw(st.algo_state.data(), blob_size, "algorithm blob");
  if (!r.exhausted()) {
    throw std::runtime_error("run-state load: trailing bytes after the algorithm blob in " +
                             path);
  }
  return st;
}

}  // namespace pdsl::recovery
