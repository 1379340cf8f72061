// Canonical 64-bit state fingerprints for the model checker.
//
// The explorer (src/check/explorer.h) prunes a run when it reaches a state
// whose fingerprint it has already visited, so the fingerprint must cover
// EVERY bit of protocol-relevant state: two worlds with equal fingerprints
// must behave identically under identical future choice sequences. The
// conventions that keep that true as the protocol grows:
//
//   * Every member of a fingerprinted class (FdsAgent and its opt-in
//     blocks, LinkQualityEstimator, MembershipView, FailureLog — plus the
//     aggregate structs RoundEvidence and ClusterView) is either mixed in
//     fingerprint.cpp or explicitly exempted there with an
//     `FP-EXEMPT(<member>): reason` comment arguing why it cannot influence
//     future protocol behaviour.
//   * cfds-lint rule `state-outside-fingerprint` (tools/lint/lint.h)
//     enforces the convention for private `name_` members of marked
//     classes: a member neither referenced nor FP-EXEMPT'd in
//     fingerprint.cpp fails the lint gate.
//   * `static_assert` sizeof-tripwires at the bottom of the class headers
//     catch layout changes (a new member of any visibility) at compile
//     time, pointing the author here.
//
// Determinism: the hash is a fixed splitmix-style 64-bit mix over values
// and encoded bytes — no pointers, no addresses, no unordered iteration —
// so fingerprints are stable across runs, thread counts, and ASLR, and a
// visited-set hit means the same protocol state, not the same heap layout.

#pragma once

#include <cstddef>
#include <cstdint>

#include "common/ids.h"

namespace cfds {
class FdsAgent;
class LinkQualityEstimator;
class MembershipView;
class FailureLog;
class Payload;
struct RoundEvidence;
struct ClusterView;
}  // namespace cfds

namespace cfds::check {

/// Order-sensitive 64-bit mixer. Each mixed word is diffused through the
/// splitmix64 finalizer, so single-bit input differences avalanche across
/// the whole digest and field boundaries cannot cancel.
class Hasher {
 public:
  void mix(std::uint64_t value) {
    state_ = diffuse(state_ ^ value);
  }

  void mix_bytes(const std::uint8_t* data, std::size_t len) {
    std::uint64_t word = 0;
    std::size_t filled = 0;
    for (std::size_t i = 0; i < len; ++i) {
      word |= std::uint64_t{data[i]} << (8 * filled);
      if (++filled == 8) {
        mix(word);
        word = 0;
        filled = 0;
      }
    }
    // The trailing partial word and the length make "ab","c" != "a","bc".
    mix(word);
    mix(std::uint64_t{len});
  }

  [[nodiscard]] std::uint64_t digest() const { return diffuse(state_); }

 private:
  [[nodiscard]] static std::uint64_t diffuse(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  std::uint64_t state_ = 0x6366647320763955ULL;  // arbitrary fixed seed
};

/// Serializes protocol state into a Hasher. Friend of the classes whose
/// private members it must read; everything else goes through public API.
/// All methods are order-sensitive and prefix every variable-length
/// sequence with its size, so distinct states cannot collide by
/// concatenation.
class StateFingerprinter {
 public:
  /// Complete protocol-relevant state of one agent, including its Node's
  /// liveness/marked/incarnation and its MembershipView. Diagnostics-only
  /// members are exempted in the implementation (see FP-EXEMPT comments).
  static void mix_agent(Hasher& h, const FdsAgent& agent);

  static void mix_membership(Hasher& h, const MembershipView& view);
  static void mix_cluster(Hasher& h, const ClusterView& view);
  static void mix_failure_log(Hasher& h, const FailureLog& log);
  static void mix_evidence(Hasher& h, const RoundEvidence& evidence);
  static void mix_estimator(Hasher& h, const LinkQualityEstimator& estimator);

  /// Payload content via the canonical wire encoding (transport/wire.h):
  /// the same bytes service mode puts on the wire, so two payloads hash
  /// equal iff they are protocol-indistinguishable.
  static void mix_payload(Hasher& h, const Payload& payload);

  static void mix_id(Hasher& h, NodeId id) { h.mix(id.value()); }
};

}  // namespace cfds::check
