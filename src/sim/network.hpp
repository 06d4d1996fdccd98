// NetworkModel — the live message-layer adversary behind a NetworkSpec.
//
// The model answers one question per message: what does the network do to
// *this* frame?  Every verdict (drop / duplicate / reorder / delay /
// corrupt, and per-epoch crash churn) is a pure SplitMix64-style hash of
// (model seed, message kind, time, sender, target).  No RNG stream is
// consumed, so verdicts are independent of delivery order: the round
// reaches bit-identical outcomes at every partition count and block size,
// and a model with all rates zero is indistinguishable from no model at
// all.
//
// Corruption is payload-aware.  Inline payloads are bit-flipped generically
// (same tag, same advertised bit size, one flipped bit chosen by the
// verdict hash); boxed payloads go through a per-tag PayloadOps registry so
// protocol payloads (certificates, vote intentions) can define what a
// flipped bit means for them.  Unregistered boxed tags pass through
// uncorrupted — a corruption is only *metered* when a payload actually
// changed.  The registry's clone hook exists because arena-boxed payloads
// die at the round barrier: a delayed push must deep-copy its payload to
// survive into a later round, and a tag that cannot be cloned is delivered
// immediately instead of delayed.
#pragma once

#include <cstdint>
#include <memory>

#include "sim/payload.hpp"
#include "sim/topology.hpp"

namespace rfc::sim {

/// Message kinds the adversary distinguishes.  The enum value salts the
/// verdict hash so e.g. a pull request and the push sharing (time, sender,
/// target) draw independent verdicts.
enum class NetMessage : std::uint64_t {
  kPullRequest = 0x9e3779b97f4a7c15ull,
  kPullReply = 0xbf58476d1ce4e5b9ull,
  kPush = 0x94d049bb133111ebull,
};

/// Per-tag corruption/clone hooks for boxed payloads.
struct PayloadOps {
  /// Returns a tampered deep copy of `payload` (which bit flips is chosen
  /// by `salt`); an empty Payload means "cannot corrupt this one".
  Payload (*corrupt)(const Payload& payload, std::uint64_t salt);
  /// Returns a deep copy safe to retain across round boundaries (re-boxes
  /// arena-backed state on the heap); null means the tag cannot outlive
  /// its round.
  Payload (*clone)(const Payload& payload);
};

/// Registers (or replaces) the corruption/clone hooks for a boxed payload
/// tag.  Inline payloads never consult the registry.
void register_payload_ops(PayloadTag tag, PayloadOps ops);

/// Tampered copy of `payload`: generic bit flip for inline payloads,
/// registry hook for boxed ones.  Empty result means the payload could not
/// be corrupted (unregistered boxed tag, or an empty payload).
Payload corrupt_payload(const Payload& payload, std::uint64_t salt);

/// Deep copy of `payload` that survives round-arena resets, or an empty
/// Payload when the tag cannot be cloned (and the original is non-empty).
/// Inline payloads are trivially copied; boxed ones use the registry.
Payload clone_payload(const Payload& payload);

/// One push held back by the network adversary: due for delivery at the
/// start of round `due`'s push phase.  Reordered pushes keep due == origin
/// and re-enter at the end of their own delivery phase instead.  Delivery
/// sorts by (origin, sender) — unique per push, since an agent sends at
/// most one push per round — so the order cannot depend on how the pending
/// list was accumulated (by one partition or many).
struct DelayedPush {
  std::uint64_t due;
  std::uint64_t origin;  ///< Round the push was sent (sort key).
  AgentId sender;
  AgentId target;
  Payload payload;
};

class NetworkModel {
 public:
  struct Rates {
    double drop = 0.0;     ///< P(message lost), any kind.
    double dup = 0.0;      ///< P(push delivered twice).
    double reorder = 0.0;  ///< P(push deferred to end of delivery phase).
    double corrupt = 0.0;  ///< P(payload tampered in transit).
    double churn = 0.0;    ///< P(an up agent crashes, per epoch).
    std::uint64_t delay = 0;   ///< Max push delay in rounds (uniform 0..delay).
    std::uint64_t rejoin = 0;  ///< Rounds until a crashed agent returns (0: never).
    std::uint64_t seed = 0;    ///< Selects the fault stream.
  };

  NetworkModel() = default;
  explicit NetworkModel(const Rates& rates) : rates_(rates) {}
  virtual ~NetworkModel() = default;

  const Rates& rates() const noexcept { return rates_; }

  /// True when any per-message fault can fire (drop/dup/reorder/delay/
  /// corrupt).  The engine skips the whole fault stage when false.
  bool message_faults() const noexcept {
    return rates_.drop > 0.0 || rates_.dup > 0.0 || rates_.reorder > 0.0 ||
           rates_.corrupt > 0.0 || rates_.delay > 0;
  }

  /// True when agents may crash mid-run.
  bool has_churn() const noexcept { return rates_.churn > 0.0; }

  // --- Per-message verdicts (pure functions of the arguments). ---

  virtual bool drop(NetMessage kind, std::uint64_t time, AgentId sender,
                    AgentId target) const {
    return verdict(rates_.drop, static_cast<std::uint64_t>(kind) ^ kDropSalt,
                   time, sender, target);
  }

  virtual bool duplicate(std::uint64_t time, AgentId sender,
                         AgentId target) const {
    return verdict(rates_.dup, kDupSalt, time, sender, target);
  }

  virtual bool reorder(std::uint64_t time, AgentId sender,
                       AgentId target) const {
    return verdict(rates_.reorder, kReorderSalt, time, sender, target);
  }

  virtual bool corrupt(NetMessage kind, std::uint64_t time, AgentId sender,
                       AgentId target) const {
    return verdict(rates_.corrupt,
                   static_cast<std::uint64_t>(kind) ^ kCorruptSalt, time,
                   sender, target);
  }

  /// Which bit to flip when a corruption fires (feeds corrupt_payload).
  std::uint64_t corrupt_salt(std::uint64_t time, AgentId sender,
                             AgentId target) const {
    return hash(kCorruptSalt, time, sender, target);
  }

  /// Push delay in rounds, uniform in [0, rates().delay]; 0 means deliver
  /// this round as usual.
  virtual std::uint64_t delay_of(std::uint64_t time, AgentId sender,
                                 AgentId target) const {
    if (rates_.delay == 0) return 0;
    return hash(kDelaySalt, time, sender, target) % (rates_.delay + 1);
  }

  /// Does agent `agent` crash at churn epoch `epoch`?  Only consulted for
  /// agents that are currently up.
  virtual bool crashes(std::uint64_t epoch, AgentId agent) const {
    return verdict(rates_.churn, kChurnSalt, epoch, agent, agent);
  }

 private:
  static constexpr std::uint64_t kDropSalt = 0x2545f4914f6cdd1dull;
  static constexpr std::uint64_t kDupSalt = 0xd6e8feb86659fd93ull;
  static constexpr std::uint64_t kReorderSalt = 0xff51afd7ed558ccdull;
  static constexpr std::uint64_t kCorruptSalt = 0xc4ceb9fe1a85ec53ull;
  static constexpr std::uint64_t kDelaySalt = 0x9e6c63d0876a9f4bull;
  static constexpr std::uint64_t kChurnSalt = 0xa24baed4963ee407ull;

  static std::uint64_t mix(std::uint64_t x) noexcept {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
  }

  std::uint64_t hash(std::uint64_t salt, std::uint64_t time, AgentId a,
                     AgentId b) const noexcept {
    std::uint64_t h = mix(rates_.seed + 0x9e3779b97f4a7c15ull);
    h = mix(h ^ salt);
    h = mix(h ^ time);
    h = mix(h ^ ((static_cast<std::uint64_t>(a) << 32) |
                 static_cast<std::uint64_t>(b)));
    return h;
  }

  bool verdict(double rate, std::uint64_t salt, std::uint64_t time, AgentId a,
               AgentId b) const noexcept {
    if (rate <= 0.0) return false;
    if (rate >= 1.0) return true;
    const double u =
        static_cast<double>(hash(salt, time, a, b) >> 11) * 0x1.0p-53;
    return u < rate;
  }

  Rates rates_;
};

using NetworkModelPtr = std::unique_ptr<NetworkModel>;

}  // namespace rfc::sim
