// Control-flow attack demonstrations (paper §IV-A-2): code-reuse attacks
// that corrupt data the victim jumps through, run against the vanilla core
// and the SOFIA device. On vanilla the attack fires its "disable the
// brakes" store; on SOFIA the device resets (or traps) before any tampered
// store reaches the MA stage. Image tampering — injection, relocation,
// splicing, version replay, fetch faults — is campaign::Target's domain
// (campaign/campaign.hpp).
#pragma once

#include "crypto/key_set.hpp"
#include "sim/machine.hpp"

namespace sofia::security {

/// The ROP-style demonstration (paper §IV-A-2): a victim with a
/// stack-smash-like vulnerability that lets attacker-controlled input
/// overwrite a return address, aimed at a store "gadget" that must never
/// execute (the paper's disable-the-brakes store). Returns the outcome on
/// the SOFIA device; `vanilla_outcome` shows the same attack succeeding on
/// the unprotected core.
struct RopDemo {
  sim::RunResult vanilla_clean;
  sim::RunResult vanilla_attacked;   ///< gadget fires: output contains 6666
  sim::RunResult sofia_clean;
  sim::RunResult sofia_attacked;     ///< must reset before the gadget store
};

RopDemo run_rop_demo(const crypto::KeySet& keys);

/// The JOP-style demonstration: the victim dispatches through a
/// function-pointer table in (writable) data; the attacker overwrites a
/// table entry with the address of a store gadget outside the dispatch's
/// static target set. On the vanilla core the gadget fires; on SOFIA the
/// devirtualized dispatch finds no matching static target and falls into
/// its trap before any gadget instruction executes.
struct JopDemo {
  sim::RunResult vanilla_clean;
  sim::RunResult vanilla_attacked;  ///< gadget fires: output contains 7777
  sim::RunResult sofia_clean;
  sim::RunResult sofia_attacked;    ///< trap: halts without gadget output
};

JopDemo run_jop_demo(const crypto::KeySet& keys);

}  // namespace sofia::security
