// The fast functional backend: executes the same ISA and enforces the
// same SOFIA integrity semantics as the cycle-accurate machine. Both are
// shells around the same two definitions: the architectural core
// (sim::Core, sim/core.hpp) executes every instruction, and block
// admission (sim::admit, sim/admission.hpp) vets every entered block —
// fetched, decrypted with its control-flow-dependent counters, verified by
// the protection scheme, and checked against the placement rules, with any
// violation pulling the reset line. What this backend leaves out is the
// micro-architecture: no I-cache, no fetch queue, no cipher-engine
// scheduling, no store gate. Control flow is purely architectural (no
// fall-through speculation). A run of padding NOPs in a block retires in
// one step: the counters, the budget cut and the trace come out as if each
// NOP had executed alone.
//
// Admitted blocks are cached at two levels (sim/admission.hpp). Within a
// run, the front cache maps (entry word, prevPC) to the admission, so a
// loop body is fetched, decrypted and MACed once. Behind it sits the
// backend's BlockStore, which outlives the run: on a front miss the block's
// words are fetched and, when they equal the words a stored record was
// opened from, the record is reused instead of opened again. The store
// serves only runs of its own device identity (scheme, keys, image omega,
// granularity, block policy, text base); any other run opens everything
// itself. So a campaign's tampered trials re-open only the blocks they
// actually changed, and a CTR scheme decrypts those with the keystream of
// the record already held for the pair (scheme::OpenedReference).
//
// Consequences, documented as contract:
//  * stats.cycles is the retired instruction count (cycle_accurate()
//    is false); SimConfig::max_cycles bounds it.
//  * stats counts only architecturally demanded work: ctr/cbc ops and
//    verifications for blocks actually entered, once per distinct
//    (entry, prevPC) pair — a lower bound on what the device performs.
//    A record reused from the store counts exactly what opening it would
//    have, so every SimStats field is independent of what the store holds.
//  * Fault injection (SimConfig::fault) flips the N-th word this backend
//    fetches. Until that fetch has happened every block entry refetches;
//    after it the front cache starts over and is used as normal.
//  * Stores into the text section drop the front cache, so
//    self-modifying (i.e. self-tampering) code still resets exactly like
//    the live-fetching cycle machine.
//  * A vanilla image runs from a per-run predecoded text: each word is
//    decoded on its first fetch and reused until a store into it. While a
//    fetch fault is pending every fetch reads memory, so the fault fires
//    at its index and stays transient.
#pragma once

#include "sim/admission.hpp"
#include "sim/backend.hpp"

namespace sofia::sim {

class FunctionalBackend final : public Backend {
 public:
  bool cycle_accurate() const override { return false; }
  RunResult run(const assembler::LoadImage& image,
                const SimConfig& config) const override;

  /// The opened blocks this instance's runs share.
  const BlockStore& block_store() const { return store_; }

 private:
  mutable BlockStore store_;
};

}  // namespace sofia::sim
