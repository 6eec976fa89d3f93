#include "sim/network.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "fleet/wire.hpp"

namespace pdsl::sim {

Network::Network(graph::Graph topo, Options opts)
    : topo_(std::move(topo)), opts_(std::move(opts)) {
  // The fallback to opts_.seed keeps the historical drop stream for configs
  // that leave faults.seed unset.
  if (opts_.faults.seed == 0) opts_.faults.seed = opts_.seed;
  opts_.faults.validate();
  // S-BYZ: the adversary's noise streams default to the same seed family as
  // the benign faults (corrupt_payload salts internally to decorrelate).
  if (opts_.adversary.seed == 0) opts_.adversary.seed = opts_.faults.seed;
  opts_.adversary.validate();
  // S-RECOV: the channel impairment hashes likewise derive from the merged
  // fault seed (each decision family salts internally).
  if (opts_.channel.seed == 0) opts_.channel.seed = opts_.faults.seed;
  opts_.channel.validate();
  // A rule naming an agent the topology lacks would silently never match,
  // and such a role would still make the adversary plan count as active.
  const std::size_t m = topo_.size();
  const auto outside = [m](std::size_t agent) {
    return " names agent " + std::to_string(agent) + ", outside the " + std::to_string(m) +
           "-agent topology";
  };
  for (const auto& r : opts_.faults.edge_rules) {
    if (r.src >= m || r.dst >= m) {
      throw std::invalid_argument("Network: faults edge rule " + std::to_string(r.src) + "->" +
                                  std::to_string(r.dst) + outside(std::max(r.src, r.dst)));
    }
  }
  for (const auto& r : opts_.adversary.roles) {
    if (r.agent >= m) throw std::invalid_argument("Network: adversary role" + outside(r.agent));
  }
}

std::vector<LateMessage> Network::begin_round(std::size_t t) {
  std::lock_guard<std::mutex> lock(mu_);
  clock_ = t;
  std::vector<LateMessage> matured;
  std::vector<Pending> still_pending;
  std::vector<Pending> ready;
  for (auto& p : pending_) {
    (p.mature_round <= t ? ready : still_pending).push_back(std::move(p));
  }
  pending_ = std::move(still_pending);
  // Concurrent senders insert into pending_ in schedule-dependent order; a
  // total order over (src, dst, tag, per-edge index) restores determinism.
  std::sort(ready.begin(), ready.end(), [](const Pending& a, const Pending& b) {
    if (a.msg.src != b.msg.src) return a.msg.src < b.msg.src;
    if (a.msg.dst != b.msg.dst) return a.msg.dst < b.msg.dst;
    if (a.msg.tag != b.msg.tag) return a.msg.tag < b.msg.tag;
    return a.edge_index < b.edge_index;
  });
  matured.reserve(ready.size());
  for (auto& p : ready) matured.push_back(std::move(p.msg));
  return matured;
}

bool Network::send(std::size_t src, std::size_t dst, const std::string& tag,
                   std::vector<float> payload, Channel channel) {
  if (src >= topo_.size() || dst >= topo_.size()) {
    throw std::out_of_range("Network::send: agent id out of range");
  }
  if (src == dst) {
    if (!opts_.allow_self_send) throw std::invalid_argument("Network::send: self send disabled");
  } else if (!topo_.has_edge(src, dst)) {
    throw std::invalid_argument("Network::send: (" + std::to_string(src) + "," +
                                std::to_string(dst) + ") is not an edge");
  }
  const bool lossy_channel = (src != dst) && opts_.compressor != nullptr;
  // Compress outside the lock: apply() is const/stateless and can be the
  // expensive part of a send under top-k or quantization.
  const std::size_t payload_bytes = lossy_channel ? opts_.compressor->wire_bytes(payload)
                                                  : payload.size() * sizeof(float);
  if (lossy_channel) payload = opts_.compressor->apply(payload);

  // Inter-agent traffic goes over the wire when a channel plan can impair it
  // (S-RECOV) or when the wire round-trip is asked for (S-SCALE).
  const bool wire = src != dst && (opts_.channel.any() || opts_.wire_roundtrip);

  // ---- Locked section 1: clock, send counters, the per-edge index, and the
  // offline / drop / Byzantine decisions. Everything that costs time in
  // proportion to the payload runs after it, without the lock.
  std::size_t clock = 0;
  std::uint64_t edge_index = 0;
  std::optional<ByzRole> byz;              // corrupt_payload() to apply
  std::optional<std::vector<float>> stale; // stale-replay substitute
  {
    std::lock_guard<std::mutex> lock(mu_);
    clock = clock_;
    ++counters_.messages;
    counters_.bytes += payload_bytes;
    edge_index = edge_messages_[{src, dst}]++;  // nth message on this edge
    if (src != dst) {
      const FaultPlan& plan = opts_.faults;
      // Churn: traffic to or from an offline agent is lost on the wire. The
      // decision keys on the round clock, so algorithms that never call
      // begin_round() (clock 0) see no churn. Drops are a pure function of
      // (seed, edge, per-edge index): the same messages drop no matter how
      // concurrent senders interleave, which is what makes fault injection
      // reproducible across --threads settings. A lost message never reaches
      // the wire.
      if (plan.offline(src, clock) || plan.offline(dst, clock) ||
          plan.drop(src, dst, edge_index, clock)) {
        ++counters_.dropped;
        return false;
      }
      if (channel == Channel::kContribution && opts_.adversary.any()) {
        // S-BYZ: an active Byzantine sender corrupts its contribution payload
        // at this boundary — after the drop decision (corrupting a lost
        // message is moot) and before any delay (the attacker sent it
        // corrupted, so that is what matures later). Every decision is a pure
        // function of the plan and the message identity, so attack traces are
        // interleaving-independent.
        const ByzRole role = opts_.adversary.role(src, topo_.size(), clock);
        if (role.mode == ByzMode::kStaleReplay) {
          const auto at = tag.find('@');
          const ReplayKey key{src, dst, at == std::string::npos ? tag : tag.substr(0, at)};
          const auto it = replay_.find(key);
          if (it == replay_.end()) {
            // First send on this key: record it (and let it through honest) so
            // there is something old to replay from the next round on.
            replay_.emplace(key, ReplayEntry{payload, clock});
          } else if (it->second.round < clock) {
            stale = it->second.payload;
          }
        } else if (role.mode != ByzMode::kNone) {
          byz = role;
        }
        if (stale || byz) {
          ++counters_.corrupted;
        }
      }
    }
  }

  // ---- Unlocked: payload work on the sender's thread, counting into a
  // tally that section 2 folds in.
  if (stale) payload = std::move(*stale);
  if (byz) corrupt_payload(*byz, opts_.adversary.seed, src, dst, hash_tag(tag), payload);

  // The one wire path: encode every attempt; under a channel plan a
  // hash-driven bit flip is caught by the frame checksum (wire_try_decode ->
  // nullopt), the receiver NACKs and the sender retransmits, up to
  // channel.max_retries extra attempts with round-granular exponential
  // backoff. Exhausting the budget loses the message like a drop — the
  // receiver degrades through its S-FAULT renormalization path. Every
  // decision hashes (seed, edge, per-edge index, attempt), so retransmission
  // traces are bit-identical at any --threads width. With no channel plan the
  // first attempt is clean and wire_roundtrip checks it decodes bit for bit.
  NetCounters tally;
  bool exhausted = false;
  std::size_t backoff = 0;
  if (wire) {
    const ChannelPlan& ch = opts_.channel;
    fleet::WireMessage msg{static_cast<std::uint32_t>(src), static_cast<std::uint32_t>(dst),
                           static_cast<std::uint32_t>(clock),
                           static_cast<std::uint8_t>(channel == Channel::kContribution ? 1 : 0),
                           tag, std::move(payload)};
    std::size_t frame_bytes = 0;
    exhausted = true;
    for (std::size_t attempt = 0; attempt <= ch.max_retries; ++attempt) {
      io::ByteBuffer frame = fleet::wire_encode(msg);
      frame_bytes = frame.size();
      ++tally.wire_messages;
      tally.wire_bytes += frame.size();
      if (attempt > 0) ++tally.retransmits;
      if (ch.corrupt(src, dst, edge_index, attempt)) {
        const std::size_t bit = ch.corrupt_bit(src, dst, edge_index, attempt, frame.size());
        frame[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        auto decoded = fleet::wire_try_decode(frame);
        if (!decoded) {
          ++tally.corrupt_detected;
          continue;  // NACK: the corrupted frame never reaches a mailbox
        }
        // The flip survived the checksum (a 2^-64-grade collision, but
        // deterministic if it ever fires): a real receiver would accept the
        // frame, so deliver the decoded payload as-is.
        msg.payload = std::move(decoded->payload);
      } else {
        fleet::WireMessage decoded = fleet::wire_decode(frame);  // clean frame
        if (opts_.wire_roundtrip && !fleet::wire_equal(msg, decoded)) {
          throw std::runtime_error("Network::send: wire round-trip mismatch on (" +
                                   std::to_string(src) + "->" + std::to_string(dst) + ", " +
                                   tag + ")");
        }
        msg.payload = std::move(decoded.payload);
      }
      exhausted = false;
      backoff = ChannelPlan::backoff_for(attempt);
      break;
    }
    payload = std::move(msg.payload);
    // In-flight duplication: the second copy arrives too, but the
    // transport's per-edge sequence numbers dedup it — exactly-once
    // mailbox delivery, while the wire still paid for the extra frame.
    if (!exhausted && ch.duplicate(src, dst, edge_index)) {
      ++tally.dup_dropped;
      ++tally.wire_messages;
      tally.wire_bytes += frame_bytes;
    }
  }
  if (exhausted) {
    ++tally.retry_exhausted;
    ++tally.dropped;
  }
  const std::size_t delay =
      !exhausted && src != dst ? opts_.faults.delay(src, dst, edge_index) + backoff : 0;
  if (delay > 0) ++tally.delayed;
  // Reordering: the impairment hash promotes this delivery to the front of
  // the destination mailbox (older mail is read after it).
  const bool reorder =
      !exhausted && delay == 0 && wire && opts_.channel.reorder(src, dst, edge_index);
  if (reorder) ++tally.reordered;

  // ---- Locked section 2: fold the tally in and place the payload.
  std::lock_guard<std::mutex> lock(mu_);
  for_each_counter([](const char*, std::size_t& total, std::size_t n) { total += n; }, counters_,
                   tally);
  if (exhausted) return false;
  if (delay > 0) {
    pending_.push_back(
        Pending{LateMessage{src, dst, tag, std::move(payload), clock}, clock + delay, edge_index});
    return true;  // sent, just slow — it surfaces via a later begin_round()
  }
  auto& box = boxes_[Key{src, dst, tag}];
  if (reorder) {
    box.push_front(std::move(payload));
  } else {
    box.push_back(std::move(payload));
  }
  return true;
}

std::optional<std::vector<float>> Network::receive(std::size_t dst, std::size_t src,
                                                   const std::string& tag) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = boxes_.find(Key{src, dst, tag});
  if (it == boxes_.end() || it->second.empty()) return std::nullopt;
  std::vector<float> payload = std::move(it->second.front());
  it->second.pop_front();
  if (it->second.empty()) boxes_.erase(it);
  return payload;
}

bool Network::has_message(std::size_t dst, std::size_t src, const std::string& tag) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = boxes_.find(Key{src, dst, tag});
  return it != boxes_.end() && !it->second.empty();
}

NetCounters Network::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

std::size_t Network::in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.size();
}

std::size_t Network::round() const {
  std::lock_guard<std::mutex> lock(mu_);
  return clock_;
}

std::size_t Network::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (auto& [key, q] : boxes_) n += q.size();
  boxes_.clear();
  return n;
}

void Network::save_state(io::ByteBuffer& buf) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, q] : boxes_) {
    if (!q.empty()) {
      throw std::runtime_error("Network::save_state: mailboxes not empty (checkpoint "
                               "between rounds, after clear())");
    }
  }
  io::append_u64(buf, clock_);
  for_each_counter([&](const char*, std::size_t n) { io::append_u64(buf, n); }, counters_);
  // Per-edge message indices: they key every drop/delay/corrupt decision, so
  // a resumed run must continue the sequence exactly. std::map iterates in
  // sorted order — the blob is deterministic.
  io::append_u64(buf, edge_messages_.size());
  for (const auto& [edge, messages] : edge_messages_) {
    io::append_u64(buf, edge.first);
    io::append_u64(buf, edge.second);
    io::append_u64(buf, messages);
  }
  // In-flight delayed messages (sorted for determinism; begin_round sorts the
  // matured batch anyway, but identical state must serialize identically).
  std::vector<const Pending*> pending;
  pending.reserve(pending_.size());
  for (const auto& p : pending_) pending.push_back(&p);
  std::sort(pending.begin(), pending.end(), [](const Pending* a, const Pending* b) {
    if (a->msg.src != b->msg.src) return a->msg.src < b->msg.src;
    if (a->msg.dst != b->msg.dst) return a->msg.dst < b->msg.dst;
    if (a->msg.tag != b->msg.tag) return a->msg.tag < b->msg.tag;
    return a->edge_index < b->edge_index;
  });
  io::append_u64(buf, pending.size());
  for (const Pending* p : pending) {
    io::append_u64(buf, p->msg.src);
    io::append_u64(buf, p->msg.dst);
    io::append_string(buf, p->msg.tag);
    io::append_floats(buf, p->msg.payload);
    io::append_u64(buf, p->msg.sent_round);
    io::append_u64(buf, p->mature_round);
    io::append_u64(buf, p->edge_index);
  }
  io::append_u64(buf, replay_.size());
  for (const auto& [key, entry] : replay_) {
    io::append_u64(buf, key.src);
    io::append_u64(buf, key.dst);
    io::append_string(buf, key.kind);
    io::append_floats(buf, entry.payload);
    io::append_u64(buf, entry.round);
  }
}

void Network::restore_state(io::ByteReader& r) {
  std::lock_guard<std::mutex> lock(mu_);
  boxes_.clear();
  clock_ = static_cast<std::size_t>(r.read_u64("net clock"));
  for_each_counter(
      [&](const char* name, std::size_t& n) {
        n = static_cast<std::size_t>(r.read_u64((std::string("net ") + name).c_str()));
      },
      counters_);
  edge_messages_.clear();
  const auto n_edges = r.read_u64("net edge count");
  for (std::uint64_t i = 0; i < n_edges; ++i) {
    const auto src = static_cast<std::size_t>(r.read_u64("net edge src"));
    const auto dst = static_cast<std::size_t>(r.read_u64("net edge dst"));
    edge_messages_[{src, dst}] = static_cast<std::size_t>(r.read_u64("net edge messages"));
  }
  pending_.clear();
  const auto n_pending = r.read_u64("net pending count");
  for (std::uint64_t i = 0; i < n_pending; ++i) {
    Pending p;
    p.msg.src = static_cast<std::size_t>(r.read_u64("net pending src"));
    p.msg.dst = static_cast<std::size_t>(r.read_u64("net pending dst"));
    p.msg.tag = r.read_string("net pending tag");
    p.msg.payload = r.read_floats("net pending payload");
    p.msg.sent_round = static_cast<std::size_t>(r.read_u64("net pending sent_round"));
    p.mature_round = static_cast<std::size_t>(r.read_u64("net pending mature_round"));
    p.edge_index = r.read_u64("net pending edge_index");
    pending_.push_back(std::move(p));
  }
  replay_.clear();
  const auto n_replay = r.read_u64("net replay count");
  for (std::uint64_t i = 0; i < n_replay; ++i) {
    ReplayKey key;
    key.src = static_cast<std::size_t>(r.read_u64("net replay src"));
    key.dst = static_cast<std::size_t>(r.read_u64("net replay dst"));
    key.kind = r.read_string("net replay kind");
    ReplayEntry entry;
    entry.payload = r.read_floats("net replay payload");
    entry.round = static_cast<std::size_t>(r.read_u64("net replay round"));
    replay_.emplace(std::move(key), std::move(entry));
  }
}

}  // namespace pdsl::sim
