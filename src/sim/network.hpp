#pragma once
// In-process message-passing network (S7). Algorithms may only move data
// between agents through send/receive on an edge of the topology — this keeps
// implementations honest about what is communicated (and lets us count
// messages/bytes, the "cost" axis of decentralized learning) even though
// everything runs in one process. Fault injection (S-FAULT) models unreliable
// links (drops, per-edge schedules), slow links (bounded delay in rounds) and
// agent churn, all driven by a deterministic FaultPlan.
//
// Thread-safety (S-RT): every public member is safe to call concurrently.
// One mutex, mu_, guards the mailboxes, the delayed-message buffer, the
// stale-replay history, the round clock and every counter. send() holds it
// only for bookkeeping, in two short sections: the first reads the clock,
// counts the send, reserves the per-edge message index and makes the
// offline / drop / Byzantine decisions; the second folds the send's
// transport counts in and places the payload. The payload work runs on the
// sender's thread with no lock held: compression before the first section;
// the Byzantine corruption and the one encode -> corrupt -> decode ->
// retransmit loop between the two.
// Determinism holds at any execution width because (a) each directed edge
// is written by exactly one agent per phase, so the per-edge index sequence
// and each mailbox's FIFO order are fixed by that agent's own loop even
// though another sender's sections may interleave between its two, and
// (b) drop/delay/churn/corruption decisions are a pure hash of (seed,
// identity, index, attempt) rather than draws from a shared sequential RNG
// stream, so the set of faulted messages does not depend on the
// interleaving of senders. Sending on one edge from two threads inside one
// phase is outside this contract. begin_round() sorts matured delayed
// messages by (src, dst, tag, per-edge index), erasing any trace of
// concurrent insertion order.

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "compress/compressor.hpp"
#include "graph/graph.hpp"
#include "io/codec.hpp"
#include "sim/faults.hpp"

namespace pdsl::sim {

/// S-BYZ: what a payload carries, from the adversary's point of view. A
/// Byzantine sender corrupts only kContribution traffic — the messages that
/// directly steer a receiver's update (cross-gradients for the PDSL/CGA
/// family, the gossiped model/tracker for plain mixing-matrix baselines) —
/// and follows the protocol on kState traffic (model broadcasts made so
/// neighbors can *compute* for it, PDSL's momentum/model gossip). This is the
/// stealthy gradient-poisoning threat model: visible state stays plausible,
/// the poison rides the update channel.
enum class Channel {
  kState,         ///< protocol bookkeeping; never corrupted
  kContribution,  ///< update-carrying payload; corrupted by an active attacker
};

struct NetworkOptions {
  std::uint64_t seed = 7;  ///< fault decision seed (faults.seed = 0 uses this)
  bool allow_self_send = true;
  /// Optional lossy channel compression (borrowed; must outlive the
  /// Network). Applied to every inter-agent payload; NetCounters::bytes then
  /// counts wire bytes under the scheme instead of dense floats.
  const compress::Compressor* compressor = nullptr;
  /// S-FAULT: deterministic drop/delay/churn injection.
  FaultPlan faults;
  /// S-BYZ: Byzantine roles; adversary.seed = 0 uses the merged faults.seed.
  AdversaryPlan adversary;
  /// S-SCALE: send every inter-agent message that survives the drop decision
  /// through the fleet wire format (fleet/wire.hpp) and verify that each
  /// clean frame decodes to the sent message bit for bit; the delivered
  /// payload is the decoded copy, so any serialization defect fails the run
  /// loudly instead of silently.
  bool wire_roundtrip = false;
  /// S-RECOV: unreliable-channel model. When any() the inter-agent transport
  /// wire-encodes too, the checksum *detects* hash-driven bit flips, and a
  /// NACK/retransmit loop with bounded retries plus round-granular
  /// exponential backoff recovers; duplication and reorder impairments ride
  /// on top. channel.seed = 0 uses the merged faults.seed.
  ChannelPlan channel;
};

/// The network's cumulative counts, named like the RoundMetrics columns they
/// feed. A new count is a field plus one row of for_each_counter.
struct NetCounters {
  std::size_t messages = 0;          ///< send() calls, self-sends included
  std::size_t dropped = 0;           ///< lost: drop, offline endpoint or retries exhausted
  std::size_t delayed = 0;           ///< delivered late, via a later begin_round()
  std::size_t corrupted = 0;         ///< S-BYZ: payloads a Byzantine sender corrupted
  std::size_t bytes = 0;             ///< payload bytes (the compressor's wire size, if any)
  std::size_t wire_messages = 0;     ///< encoded frames, retransmits and duplicates included
  std::size_t wire_bytes = 0;        ///< encoded frame bytes (header + payload + checksum)
  std::size_t retransmits = 0;       ///< S-RECOV: frames resent after a NACK
  std::size_t corrupt_detected = 0;  ///< S-RECOV: checksum-caught bit flips
  std::size_t retry_exhausted = 0;   ///< S-RECOV: messages lost after all retries
  std::size_t dup_dropped = 0;       ///< S-RECOV: duplicate copies deduped
  std::size_t reordered = 0;         ///< S-RECOV: front-of-queue deliveries
};

/// The counter table, in the order Network::save_state writes the counts:
/// calls f(name, c.field...) per counter with that field of each record in
/// `c` (two to compare or fold one into another).
template <class F, class... Counters>
void for_each_counter(F&& f, Counters&... c) {
  f("messages", c.messages...);
  f("dropped", c.dropped...);
  f("delayed", c.delayed...);
  f("corrupted", c.corrupted...);
  f("bytes", c.bytes...);
  f("wire_messages", c.wire_messages...);
  f("wire_bytes", c.wire_bytes...);
  f("retransmits", c.retransmits...);
  f("corrupt_detected", c.corrupt_detected...);
  f("retry_exhausted", c.retry_exhausted...);
  f("dup_dropped", c.dup_dropped...);
  f("reordered", c.reordered...);
}

/// A delayed payload that matured: begin_round() hands these back to the
/// caller instead of injecting them into mailboxes, so mailboxes stay a
/// strictly intra-round structure and clear() keeps catching protocol bugs.
struct LateMessage {
  std::size_t src = 0;
  std::size_t dst = 0;
  std::string tag;
  std::vector<float> payload;
  std::size_t sent_round = 0;
};

class Network {
 public:
  using Options = NetworkOptions;

  /// Stores a copy of `topo`, so callers may pass temporaries.
  explicit Network(graph::Graph topo, Options opts = {});

  /// Advance the round clock to `t` (1-indexed) and collect every delayed
  /// message that matures by round t, in deterministic (src, dst, tag,
  /// per-edge index) order. Churn decisions for sends during round t are
  /// evaluated against this clock.
  std::vector<LateMessage> begin_round(std::size_t t);

  /// Enqueue a payload from src to dst under `tag`. Throws if (src,dst) is
  /// not an edge (or self without allow_self_send). Returns false if the
  /// message was lost to fault injection (drop or an offline endpoint);
  /// returns true for delayed messages — they were sent, they just surface
  /// via a later begin_round(). When `channel` is kContribution and src has
  /// an active Byzantine role this round, the payload is corrupted at this
  /// boundary (after the drop decision, before any delay), deterministically
  /// in (seed, src, dst, tag).
  bool send(std::size_t src, std::size_t dst, const std::string& tag,
            std::vector<float> payload, Channel channel = Channel::kState);

  /// Dequeue the oldest message from src to dst under `tag`; nullopt if none
  /// arrived this round (never sent, dropped, or still in flight).
  std::optional<std::vector<float>> receive(std::size_t dst, std::size_t src,
                                            const std::string& tag);

  /// True if a message is waiting.
  [[nodiscard]] bool has_message(std::size_t dst, std::size_t src, const std::string& tag) const;

  /// Drop any undelivered mailbox messages (call between rounds to catch
  /// protocol bugs where a round leaves mail unread). Returns the number
  /// discarded. In-flight *delayed* messages are legitimately in transit:
  /// they are neither counted nor discarded (see in_flight()).
  std::size_t clear();

  /// Every cumulative count, read under one lock.
  [[nodiscard]] NetCounters counters() const;
  /// Delayed messages not yet matured by the last begin_round().
  [[nodiscard]] std::size_t in_flight() const;
  /// The fault plan actually in effect (seed fallback folded in).
  [[nodiscard]] const FaultPlan& faults() const { return opts_.faults; }
  /// The adversary plan actually in effect (seed fallback folded in).
  [[nodiscard]] const AdversaryPlan& adversary() const { return opts_.adversary; }
  /// The channel plan actually in effect (seed fallback folded in).
  [[nodiscard]] const ChannelPlan& channel() const { return opts_.channel; }
  /// Round clock as of the last begin_round() (0 before the first round).
  [[nodiscard]] std::size_t round() const;

  /// S-RECOV checkpoint: append the network's dynamic state — round clock,
  /// every counter, per-edge message indices (they key drop/delay/corrupt
  /// decisions), in-flight delayed messages and the stale-replay history —
  /// to `buf`. Mailboxes must be empty (call between rounds); throws
  /// std::runtime_error otherwise.
  void save_state(io::ByteBuffer& buf) const;

  /// Restore state captured by save_state(); throws std::runtime_error on a
  /// malformed blob.
  void restore_state(io::ByteReader& r);

 private:
  struct Key {
    std::size_t src;
    std::size_t dst;
    std::string tag;
    bool operator<(const Key& o) const {
      if (src != o.src) return src < o.src;
      if (dst != o.dst) return dst < o.dst;
      return tag < o.tag;
    }
  };

  struct Pending {
    LateMessage msg;
    std::size_t mature_round = 0;  ///< first round the payload is visible
    std::uint64_t edge_index = 0;  ///< deterministic tiebreak for sorting
  };

  /// S-BYZ stale-replay history: the first payload a replaying attacker sent
  /// on (src, dst, tag kind), where "kind" is the tag up to its '@' (tags
  /// embed round indices, so the raw tag never repeats). Once an entry from
  /// an earlier round exists, every later send on the key resends it.
  struct ReplayKey {
    std::size_t src;
    std::size_t dst;
    std::string kind;
    bool operator<(const ReplayKey& o) const {
      if (src != o.src) return src < o.src;
      if (dst != o.dst) return dst < o.dst;
      return kind < o.kind;
    }
  };
  struct ReplayEntry {
    std::vector<float> payload;
    std::size_t round = 0;  ///< the round the recorded payload was sent in
  };

  graph::Graph topo_;
  Options opts_;
  mutable std::mutex mu_;  ///< guards everything below (see the thread-safety note)
  // Mailboxes are deques (not queues) so the S-RECOV reorder impairment can
  // push a delivery at the *front*; normal deliveries stay strictly FIFO.
  std::map<Key, std::deque<std::vector<float>>> boxes_;
  std::vector<Pending> pending_;  ///< delayed, not yet matured
  std::map<ReplayKey, ReplayEntry> replay_;  ///< stale-replay payload history
  std::size_t clock_ = 0;         ///< current round (set by begin_round)
  NetCounters counters_;
  /// Messages ever sent per (src, dst) edge: the per-edge index that keys
  /// every drop/delay/corrupt decision.
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> edge_messages_;
};

}  // namespace pdsl::sim
