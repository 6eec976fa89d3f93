#include "recovery/run_state.hpp"

#include <stdexcept>

#include "io/checkpoint.hpp"

namespace pdsl::recovery {

namespace {

// Every column travels, in table order, wall-clock ones included: a resumed
// run re-emits the prior rows verbatim, so its CSV is byte-identical to the
// uninterrupted run's in all deterministic columns and carries the original
// timings in the wall-clock ones. Counts are u64 words, the rest doubles.
void put(io::ByteBuffer& buf, std::size_t v) { io::append_u64(buf, v); }
void put(io::ByteBuffer& buf, double v) { io::append_f64(buf, v); }
void get(io::ByteReader& r, std::size_t& v, const char* what) { v = r.read_u64(what); }
void get(io::ByteReader& r, double& v, const char* what) { v = r.read_f64(what); }

void append_round(io::ByteBuffer& buf, const sim::RoundMetrics& m) {
  sim::for_each_column([&](const sim::MetricColumn&, const auto& v) { put(buf, v); }, m);
}

sim::RoundMetrics read_round(io::ByteReader& r) {
  sim::RoundMetrics m;
  sim::for_each_column([&](const sim::MetricColumn& c, auto& v) { get(r, v, c.name.c_str()); },
                       m);
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
