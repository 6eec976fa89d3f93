#include "sim/faults.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "common/schema.hpp"

namespace pdsl::sim {

namespace {

/// Uniform [0,1) from the top 53 bits of a splitmix64-mixed word.
double hash_uniform(std::uint64_t x) {
  return static_cast<double>(splitmix64(x) >> 11) * 0x1.0p-53;
}

/// Per-message word for directed edge (src,dst) and per-edge index. This is
/// byte-for-byte the hash sim::Network always used for drop decisions; the
/// delay/churn streams salt the seed so the three decision families are
/// independent.
std::uint64_t edge_message_hash(std::uint64_t seed, std::size_t src, std::size_t dst,
                                std::uint64_t edge_index) {
  return splitmix64(splitmix64(seed ^ (src + 1)) ^ ((dst + 1) * 0x9E3779B97F4A7C15ULL)) ^
         edge_index;
}

constexpr std::uint64_t kDelaySalt = 0xDE1A7ED0C0FFEEULL;
constexpr std::uint64_t kChurnSalt = 0xC4012ACE5ULL;
constexpr std::uint64_t kByzSalt = 0xB12A47EF00DULL;
constexpr std::uint64_t kCorruptSalt = 0xC022BADB17ULL;
constexpr std::uint64_t kDupSalt = 0xD0B1E7F2A3ULL;
constexpr std::uint64_t kReorderSalt = 0x2E02DE2EDULL;
constexpr std::uint64_t kCrashSalt = 0xC2A54FA11ULL;

}  // namespace

bool FaultPlan::any() const {
  return drop_prob > 0.0 || !edge_rules.empty() || (delay_prob > 0.0 && delay_rounds > 0) ||
         churn_prob > 0.0;
}

void visit(schema::Visitor& v, EdgeFaultRule& r) {
  v.field({.json = "src", .required = true}, r.src);
  v.field({.json = "dst", .required = true}, r.dst);
  v.field({"drop_prob"}, r.drop_prob, schema::kUnit);
  v.field({"from_round"}, r.from_round);
  v.field({"until_round"}, r.until_round, schema::kOptionalRound);
}

void visit(schema::Visitor& v, FaultPlan& p) {
  v.field({"drop_prob"}, p.drop_prob, schema::kProb);
  v.field({"delay_prob", "delay-prob"}, p.delay_prob, schema::kProb);
  v.field({"delay_rounds", "delay-rounds"}, p.delay_rounds);
  v.field({"churn_prob", "churn"}, p.churn_prob, schema::kProb);
  v.field({"churn_interval", "churn-interval"}, p.churn_interval);
  v.field({"staleness_rounds", "staleness"}, p.staleness_rounds);
  v.field({"seed"}, p.seed, schema::kSeed);
  v.list({"edges"}, p.edge_rules);
}

void FaultPlan::validate() const {
  schema::check(*this, "FaultPlan");
  if (churn_prob > 0.0 && churn_interval == 0) {
    throw std::invalid_argument("FaultPlan: churn_interval must be >= 1");
  }
  for (const auto& r : edge_rules) {
    if (r.until_round <= r.from_round) {
      throw std::invalid_argument("FaultPlan: edge rule until_round must exceed from_round");
    }
  }
}

double FaultPlan::effective_drop_prob(std::size_t src, std::size_t dst,
                                      std::size_t round) const {
  double p = drop_prob;
  for (const auto& r : edge_rules) {
    if (r.applies(src, dst, round)) p = std::max(p, r.drop_prob);
  }
  return p;
}

bool FaultPlan::drop(std::size_t src, std::size_t dst, std::uint64_t edge_index,
                     std::size_t round) const {
  const double p = effective_drop_prob(src, dst, round);
  if (p <= 0.0) return false;
  return hash_uniform(edge_message_hash(seed, src, dst, edge_index)) < p;
}

std::size_t FaultPlan::delay(std::size_t src, std::size_t dst,
                             std::uint64_t edge_index) const {
  if (delay_prob <= 0.0 || delay_rounds == 0) return 0;
  const std::uint64_t h =
      splitmix64(edge_message_hash(seed ^ kDelaySalt, src, dst, edge_index));
  if (hash_uniform(h) >= delay_prob) return 0;
  // Second mix for the amount, so "is delayed" and "by how much" decorrelate.
  return 1 + static_cast<std::size_t>(splitmix64(h ^ kDelaySalt) % delay_rounds);
}

bool FaultPlan::offline(std::size_t agent, std::size_t round) const {
  if (churn_prob <= 0.0 || round == 0) return false;
  const std::size_t interval = (round - 1) / std::max<std::size_t>(1, churn_interval);
  const std::uint64_t h =
      splitmix64(splitmix64(seed ^ kChurnSalt ^ (agent + 1)) ^
                 (static_cast<std::uint64_t>(interval) + 1) * 0x9E3779B97F4A7C15ULL);
  return hash_uniform(h) < churn_prob;
}

// ---------------------------------------------------------------------------
// S-RECOV: ChannelPlan + CrashPlan
// ---------------------------------------------------------------------------

std::size_t ChannelPlan::backoff_for(std::size_t attempt) {
  if (attempt <= 1) return 0;
  const std::size_t shift = std::min<std::size_t>(attempt - 2, 3);
  return static_cast<std::size_t>(1) << shift;
}

bool ChannelPlan::any() const {
  return corrupt_prob > 0.0 || duplicate_prob > 0.0 || reorder_prob > 0.0;
}

void visit(schema::Visitor& v, ChannelPlan& p) {
  v.field({"corrupt_prob", "corrupt-prob"}, p.corrupt_prob, schema::kProb);
  v.field({"duplicate_prob", "dup-prob"}, p.duplicate_prob, schema::kProb);
  v.field({"reorder_prob", "reorder-prob"}, p.reorder_prob, schema::kProb);
  v.field({"max_retries", "max-retries"}, p.max_retries, schema::Count{0, 16});
  v.field({"seed"}, p.seed, schema::kSeed);
}

void ChannelPlan::validate() const { schema::check(*this, "ChannelPlan"); }

bool ChannelPlan::corrupt(std::size_t src, std::size_t dst, std::uint64_t edge_index,
                          std::size_t attempt) const {
  if (corrupt_prob <= 0.0) return false;
  // The attempt number is mixed into the message word so each retransmission
  // re-rolls independently — exactly how a real channel treats a resend.
  const std::uint64_t h = edge_message_hash(
      seed ^ kCorruptSalt, src, dst,
      splitmix64(edge_index ^ (static_cast<std::uint64_t>(attempt) + 1) * 0x9E3779B97F4A7C15ULL));
  return hash_uniform(h) < corrupt_prob;
}

std::size_t ChannelPlan::corrupt_bit(std::size_t src, std::size_t dst,
                                     std::uint64_t edge_index, std::size_t attempt,
                                     std::size_t n_bytes) const {
  const std::uint64_t h = edge_message_hash(
      seed ^ kCorruptSalt, src, dst,
      splitmix64(edge_index ^ (static_cast<std::uint64_t>(attempt) + 1) * 0x9E3779B97F4A7C15ULL));
  // Second mix so "is corrupted" and "which bit" decorrelate (delay() idiom).
  return static_cast<std::size_t>(splitmix64(h ^ kCorruptSalt) %
                                  (std::max<std::size_t>(1, n_bytes) * 8));
}

bool ChannelPlan::duplicate(std::size_t src, std::size_t dst,
                            std::uint64_t edge_index) const {
  if (duplicate_prob <= 0.0) return false;
  return hash_uniform(edge_message_hash(seed ^ kDupSalt, src, dst, edge_index)) <
         duplicate_prob;
}

bool ChannelPlan::reorder(std::size_t src, std::size_t dst,
                          std::uint64_t edge_index) const {
  if (reorder_prob <= 0.0) return false;
  return hash_uniform(edge_message_hash(seed ^ kReorderSalt, src, dst, edge_index)) <
         reorder_prob;
}

bool CrashPlan::any() const { return crash_prob > 0.0; }

void visit(schema::Visitor& v, CrashPlan& p) {
  v.field({"crash_prob", "crash-prob"}, p.crash_prob, schema::kProb);
  v.field({"snapshot_every", "snapshot-every"}, p.snapshot_every);
  v.field({"seed"}, p.seed, schema::kSeed);
}

void CrashPlan::validate() const {
  schema::check(*this, "CrashPlan");
  if (crash_prob > 0.0 && snapshot_every == 0) {
    throw std::invalid_argument("CrashPlan: snapshot_every must be >= 1");
  }
}

bool CrashPlan::crashes(std::size_t agent, std::size_t round) const {
  if (crash_prob <= 0.0 || round == 0) return false;
  const std::uint64_t h =
      splitmix64(splitmix64(seed ^ kCrashSalt ^ (agent + 1)) ^
                 (static_cast<std::uint64_t>(round) + 1) * 0x9E3779B97F4A7C15ULL);
  return hash_uniform(h) < crash_prob;
}

// ---------------------------------------------------------------------------
// S-BYZ: AdversaryPlan
// ---------------------------------------------------------------------------

const char* byz_mode_to_string(ByzMode mode) {
  switch (mode) {
    case ByzMode::kNone: return "none";
    case ByzMode::kSignFlip: return "sign_flip";
    case ByzMode::kScale: return "scale";
    case ByzMode::kNoise: return "noise";
    case ByzMode::kNanBomb: return "nan_bomb";
    case ByzMode::kStaleReplay: return "stale_replay";
  }
  return "none";
}

ByzMode byz_mode_from_string(const std::string& name) {
  if (name == "none") return ByzMode::kNone;
  if (name == "sign_flip") return ByzMode::kSignFlip;
  if (name == "scale") return ByzMode::kScale;
  if (name == "noise") return ByzMode::kNoise;
  if (name == "nan_bomb") return ByzMode::kNanBomb;
  if (name == "stale_replay") return ByzMode::kStaleReplay;
  throw std::invalid_argument(
      "byz_mode_from_string: unknown mode '" + name +
      "' (none|sign_flip|scale|noise|nan_bomb|stale_replay)");
}

bool AdversaryPlan::any() const {
  return (frac > 0.0 && mode != ByzMode::kNone) || !roles.empty();
}

namespace {
const schema::Enum kByzModes{byz_mode_to_string, byz_mode_from_string};
}  // namespace

// Rounds are 1-indexed, so onset and from_round are > 0.
void visit(schema::Visitor& v, ByzRole& r) {
  v.field({.json = "agent", .required = true}, r.agent);
  v.field({"mode"}, r.mode, kByzModes);
  v.field({"scale"}, r.scale, schema::kPositiveFinite);
  v.field({"from_round"}, r.from_round, schema::kPositiveCount);
  v.field({"until_round"}, r.until_round, schema::kOptionalRound);
}

void visit(schema::Visitor& v, AdversaryPlan& p) {
  v.field({"frac", "byz-frac"}, p.frac, schema::kProb);
  v.field({"mode", "byz-mode"}, p.mode, kByzModes);
  v.field({"scale", "byz-scale"}, p.scale, schema::kPositiveFinite);
  v.field({"onset", "byz-onset"}, p.onset, schema::kPositiveCount);
  v.field({"until_round"}, p.until_round, schema::kOptionalRound);
  v.field({"seed"}, p.seed, schema::kSeed);
  v.list({"roles"}, p.roles);
}

void AdversaryPlan::validate() const {
  schema::check(*this, "AdversaryPlan");
  if (until_round <= onset) {
    throw std::invalid_argument("AdversaryPlan: until_round must exceed onset");
  }
  for (const auto& r : roles) {
    if (r.until_round <= r.from_round) {
      throw std::invalid_argument("AdversaryPlan: role until_round must exceed from_round");
    }
  }
}

std::size_t AdversaryPlan::num_default_attackers(std::size_t m) const {
  if (frac <= 0.0 || mode == ByzMode::kNone) return 0;
  // Round half-up, but always leave at least one honest agent.
  const auto n = static_cast<std::size_t>(frac * static_cast<double>(m) + 0.5);
  return m == 0 ? 0 : std::min(n, m - 1);
}

bool AdversaryPlan::is_byzantine(std::size_t agent, std::size_t m) const {
  for (const auto& r : roles) {
    if (r.agent == agent) return r.mode != ByzMode::kNone;
  }
  return agent < num_default_attackers(m);
}

ByzRole AdversaryPlan::role(std::size_t agent, std::size_t m, std::size_t round) const {
  bool has_explicit = false;
  for (const auto& r : roles) {
    if (r.agent != agent) continue;
    has_explicit = true;
    if (round >= r.from_round && round < r.until_round) return r;
  }
  ByzRole honest;
  honest.agent = agent;
  honest.mode = ByzMode::kNone;
  // An explicitly scheduled agent is honest outside its windows; the frac
  // default never applies to it.
  if (has_explicit) return honest;
  if (agent < num_default_attackers(m) && round >= onset && round < until_round) {
    ByzRole r;
    r.agent = agent;
    r.mode = mode;
    r.scale = scale;
    r.from_round = onset;
    r.until_round = until_round;
    return r;
  }
  return honest;
}

std::size_t AdversaryPlan::active_count(std::size_t m, std::size_t round) const {
  if (!any()) return 0;
  std::size_t n = 0;
  for (std::size_t a = 0; a < m; ++a) {
    if (role(a, m, round).mode != ByzMode::kNone) ++n;
  }
  return n;
}

std::uint64_t hash_tag(const std::string& tag) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const char c : tag) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

void corrupt_payload(const ByzRole& role, std::uint64_t seed, std::size_t src,
                     std::size_t dst, std::uint64_t tag_hash, std::vector<float>& payload) {
  switch (role.mode) {
    case ByzMode::kNone:
    case ByzMode::kStaleReplay:  // handled by the Network's replay history
      return;
    case ByzMode::kSignFlip: {
      const auto s = static_cast<float>(-role.scale);
      for (auto& x : payload) x *= s;
      return;
    }
    case ByzMode::kScale: {
      const auto s = static_cast<float>(role.scale);
      for (auto& x : payload) x *= s;
      return;
    }
    case ByzMode::kNoise: {
      // Same hash family as drop/delay/churn, salted: the stream is a pure
      // function of (seed, src, dst, tag), never a shared sequential RNG.
      Rng rng(edge_message_hash(seed ^ kByzSalt, src, dst, tag_hash));
      for (auto& x : payload) {
        x += static_cast<float>(role.scale * rng.normal());
      }
      return;
    }
    case ByzMode::kNanBomb: {
      for (std::size_t k = 0; k < payload.size(); ++k) {
        payload[k] = (k % 3 == 0) ? std::numeric_limits<float>::quiet_NaN()
                                  : (k % 3 == 1 ? std::numeric_limits<float>::infinity()
                                                : -std::numeric_limits<float>::infinity());
      }
      return;
    }
  }
}

}  // namespace pdsl::sim
