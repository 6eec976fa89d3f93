#pragma once
// Deterministic fault injection (S-FAULT). A FaultPlan describes every fault
// axis an experiment can turn on — link loss (global probability plus
// per-edge scheduled rules), bounded message delay measured in rounds, and
// agent churn (agents offline for whole round intervals) — together with the
// consumer-side staleness bound that governs how long a cached cross-gradient
// may substitute for a missing fresh one.
//
// Determinism contract (S-RT): every decision is a pure hash of
// (seed, identity, index) — drop/delay hash (seed, src, dst, per-edge message
// index), churn hashes (seed, agent, round-interval index). No shared RNG
// stream is ever advanced, so the injected fault set is bit-identical at any
// --threads width, across reruns with the same seed, and independent of the
// order in which decisions are queried. The drop hash is exactly the one
// sim::Network historically used for NetworkOptions::drop_prob, so legacy
// drop-only configurations reproduce the same drop sets.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pdsl::schema {
class Visitor;
}

namespace pdsl::sim {

/// Sentinel for "rule never expires".
inline constexpr std::size_t kNoRoundLimit = static_cast<std::size_t>(-1);

/// Per-edge drop override: directed edge src->dst drops with `drop_prob`
/// during rounds [from_round, until_round) (1-indexed, until exclusive).
/// Where a rule applies, the *larger* of rule and global probability wins.
struct EdgeFaultRule {
  std::size_t src = 0;
  std::size_t dst = 0;
  double drop_prob = 1.0;
  std::size_t from_round = 0;
  std::size_t until_round = kNoRoundLimit;

  [[nodiscard]] bool applies(std::size_t src_, std::size_t dst_, std::size_t round) const {
    return src == src_ && dst == dst_ && round >= from_round && round < until_round;
  }
};

struct FaultPlan {
  /// Probability an inter-agent message is silently lost (self-sends are
  /// never faulted).
  double drop_prob = 0.0;
  /// Per-edge scheduled overrides on top of drop_prob.
  std::vector<EdgeFaultRule> edge_rules;

  /// Probability a surviving inter-agent message is delayed; a delayed
  /// payload surfaces on a later round, uniformly 1..delay_rounds late.
  /// Both knobs must be set for delay to be active.
  double delay_prob = 0.0;
  std::size_t delay_rounds = 0;

  /// Agent churn: per (agent, interval) the agent is offline with
  /// churn_prob, where interval k covers rounds [1+k*churn_interval,
  /// 1+(k+1)*churn_interval). Offline agents freeze (no compute, no traffic);
  /// messages to/from them count as dropped.
  double churn_prob = 0.0;
  std::size_t churn_interval = 5;

  /// Consumer-side degradation: a receiver may reuse the last cross-gradient
  /// it got from a neighbor if it is at most this many rounds old (0 = never
  /// reuse; fall straight through to renormalization / self-fallback).
  std::size_t staleness_rounds = 0;

  /// Seed for every hash decision; 0 = derive from the experiment seed
  /// (Algorithm fills it in, preserving the legacy Network drop stream).
  std::uint64_t seed = 0;

  /// True if any *network-level* fault can fire (drop, delay, churn or an
  /// edge rule). staleness_rounds alone injects nothing.
  [[nodiscard]] bool any() const;

  /// Throws std::invalid_argument on out-of-range knobs.
  void validate() const;

  /// Effective drop probability on directed edge src->dst at `round`.
  [[nodiscard]] double effective_drop_prob(std::size_t src, std::size_t dst,
                                           std::size_t round) const;

  /// Should the edge_index-th message ever sent on src->dst be dropped?
  [[nodiscard]] bool drop(std::size_t src, std::size_t dst, std::uint64_t edge_index,
                          std::size_t round) const;

  /// Rounds of delay for the edge_index-th message on src->dst: 0 = deliver
  /// within the sending round, d >= 1 = surface d rounds later.
  [[nodiscard]] std::size_t delay(std::size_t src, std::size_t dst,
                                  std::uint64_t edge_index) const;

  /// Is `agent` offline for the interval containing `round`?
  [[nodiscard]] bool offline(std::size_t agent, std::size_t round) const;
};

/// The config schema of each plan (common/schema.hpp): JSON keys,
/// `pdsl_cli run` flags and single-field ranges, declared once.
void visit(schema::Visitor& v, EdgeFaultRule& r);
void visit(schema::Visitor& v, FaultPlan& p);

// ---------------------------------------------------------------------------
// S-BYZ: Byzantine adversary injection. Where FaultPlan models *benign*
// failures (lost/slow links, churn), an AdversaryPlan assigns some agents an
// adversarial role: they follow the protocol but corrupt the payloads they
// send on the contribution channel (see sim::Channel). Like every fault axis,
// who attacks and with what is a pure function of (seed, agent, round) plus
// the message identity, so attack traces are bit-identical at any --threads.
// ---------------------------------------------------------------------------

/// What a Byzantine sender does to an outgoing contribution payload.
enum class ByzMode {
  kNone = 0,     ///< honest (the resolved role of a non-attacker)
  kSignFlip,     ///< g -> -scale * g (gradient poisoning; legacy PDSL attack)
  kScale,        ///< g -> +scale * g (boosted/inflated contribution)
  kNoise,        ///< g += N(0, scale^2) per coordinate (large-Gaussian attack)
  kNanBomb,      ///< payload replaced by alternating NaN / +-Inf
  kStaleReplay,  ///< resend the first payload ever sent on this (edge, tag kind)
};

[[nodiscard]] const char* byz_mode_to_string(ByzMode mode);
/// Throws std::invalid_argument on an unknown name.
[[nodiscard]] ByzMode byz_mode_from_string(const std::string& name);

/// One agent's adversarial assignment, active during [from_round, until_round).
struct ByzRole {
  std::size_t agent = 0;
  ByzMode mode = ByzMode::kSignFlip;
  double scale = 3.0;  ///< amplification / noise stddev (ignored by nan_bomb/replay)
  std::size_t from_round = 1;
  std::size_t until_round = kNoRoundLimit;
};

/// Who attacks, how, and when. Two layers: a global default (the first
/// round(frac * m) agents run `mode` from `onset`) plus explicit per-agent
/// `roles` overrides. An agent with any explicit role entry is governed by
/// those entries alone (honest outside their windows), so a plan can schedule
/// onset/offset attacks or mix modes across agents.
struct AdversaryPlan {
  double frac = 0.0;  ///< fraction of agents (lowest ids) attacking by default
  ByzMode mode = ByzMode::kSignFlip;
  double scale = 3.0;
  std::size_t onset = 1;  ///< first attacked round (1-indexed)
  std::size_t until_round = kNoRoundLimit;
  std::vector<ByzRole> roles;  ///< explicit per-agent overrides
  /// Seed for the noise-mode streams; 0 = derive from the merged FaultPlan
  /// seed (Network fills it in, salting internally).
  std::uint64_t seed = 0;

  /// True if any agent can ever attack (frac > 0 or explicit roles).
  [[nodiscard]] bool any() const;

  /// Throws std::invalid_argument on out-of-range knobs.
  void validate() const;

  /// How many agents the frac default covers in an m-agent fleet.
  [[nodiscard]] std::size_t num_default_attackers(std::size_t m) const;

  /// Is `agent` ever Byzantine (in any round) under this plan?
  [[nodiscard]] bool is_byzantine(std::size_t agent, std::size_t m) const;

  /// The role `agent` plays at `round` (mode == kNone when honest then).
  [[nodiscard]] ByzRole role(std::size_t agent, std::size_t m, std::size_t round) const;

  /// Number of agents attacking at `round`.
  [[nodiscard]] std::size_t active_count(std::size_t m, std::size_t round) const;
};

// ---------------------------------------------------------------------------
// S-RECOV: unreliable-channel + crash axes. ChannelPlan models a *benign*
// lossy medium underneath the wire codec: bit-flip corruption (caught by the
// wire frame checksum, answered with bounded retransmission), frame
// duplication (deduplicated at the transport), and mailbox reordering.
// CrashPlan models fail-stop agents: a crashed agent loses its in-memory
// round state and is restored by recovery::RecoveryManager from periodic
// snapshots plus a neighbor resync. Both follow the S-FAULT determinism
// contract — every decision is a pure hash of (seed, identity, index).
// ---------------------------------------------------------------------------

/// Unreliable-channel model for inter-agent sends. Corruption applies per
/// *attempt* (so a retransmission re-rolls the dice with the attempt number
/// mixed into the hash); duplication/reorder apply per delivered message.
struct ChannelPlan {
  /// Probability a transmitted frame arrives with a flipped bit. The wire
  /// checksum detects the flip and the transport retransmits (NACK model).
  double corrupt_prob = 0.0;
  /// Probability a successfully delivered frame is also duplicated; the
  /// transport drops the duplicate copy (exactly-once mailbox delivery) but
  /// charges its bytes.
  double duplicate_prob = 0.0;
  /// Probability a delivered payload is enqueued at the *front* of the
  /// destination mailbox instead of the back.
  double reorder_prob = 0.0;
  /// Retransmission budget per message beyond the first attempt. When all
  /// 1 + max_retries attempts are corrupted the message is dropped and the
  /// receiver degrades through the PR-4 renormalization path.
  std::size_t max_retries = 3;
  /// Round-granular exponential backoff: attempt a (0-indexed) is delivered
  /// backoff_for(a) rounds late (0, 0, 1, 2, 4, ... capped at 8).
  [[nodiscard]] static std::size_t backoff_for(std::size_t attempt);
  /// Seed for every hash decision; 0 = derive from the merged FaultPlan seed
  /// (Network fills it in).
  std::uint64_t seed = 0;

  /// True if any channel impairment can fire.
  [[nodiscard]] bool any() const;

  /// Throws std::invalid_argument on out-of-range knobs.
  void validate() const;

  /// Is attempt `attempt` of the edge_index-th message on src->dst corrupted?
  [[nodiscard]] bool corrupt(std::size_t src, std::size_t dst, std::uint64_t edge_index,
                             std::size_t attempt) const;

  /// Which bit of an n_bytes-long frame does that corruption flip?
  [[nodiscard]] std::size_t corrupt_bit(std::size_t src, std::size_t dst,
                                        std::uint64_t edge_index, std::size_t attempt,
                                        std::size_t n_bytes) const;

  /// Is the edge_index-th delivered message on src->dst duplicated in flight?
  [[nodiscard]] bool duplicate(std::size_t src, std::size_t dst,
                               std::uint64_t edge_index) const;

  /// Does the edge_index-th delivered message on src->dst jump the queue?
  [[nodiscard]] bool reorder(std::size_t src, std::size_t dst,
                             std::uint64_t edge_index) const;
};

void visit(schema::Visitor& v, ChannelPlan& p);

/// Fail-stop crash schedule. A crashed agent loses model / momentum /
/// cross-gradient cache / Shapley cache state at the top of the round and is
/// restored from its latest snapshot plus a neighbor resync.
struct CrashPlan {
  /// Per (agent, round) probability the agent's process dies and restarts.
  double crash_prob = 0.0;
  /// RecoveryManager snapshots every agent every this many rounds.
  std::size_t snapshot_every = 5;
  /// Seed for the crash hash; 0 = derive from the merged FaultPlan seed.
  std::uint64_t seed = 0;

  [[nodiscard]] bool any() const;

  /// Throws std::invalid_argument on out-of-range knobs.
  void validate() const;

  /// Does `agent` crash at the top of `round`? Pure hash of
  /// (seed, agent, round), independent of query order and --threads.
  [[nodiscard]] bool crashes(std::size_t agent, std::size_t round) const;
};

void visit(schema::Visitor& v, CrashPlan& p);

/// FNV-1a over the tag bytes: the per-message identity word for corruption
/// decisions. Tags embed the round (and sweep/event indices where a protocol
/// sends repeatedly), so (src, dst, tag) names each message uniquely without
/// any shared mutable state.
[[nodiscard]] std::uint64_t hash_tag(const std::string& tag);

/// Apply `role`'s corruption to `payload` in place (kStaleReplay and kNone
/// are no-ops here; replay needs the Network's payload history). The noise
/// mode draws from an Rng seeded by a pure hash of (seed, src, dst,
/// hash_tag(tag)), so corruption is independent of send interleaving.
void corrupt_payload(const ByzRole& role, std::uint64_t seed, std::size_t src,
                     std::size_t dst, std::uint64_t tag_hash, std::vector<float>& payload);

void visit(schema::Visitor& v, ByzRole& r);
void visit(schema::Visitor& v, AdversaryPlan& p);

}  // namespace pdsl::sim
