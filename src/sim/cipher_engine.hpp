// Timing model of the single shared cipher instance (paper §III): the
// RECTANGLE round function is unrolled into a `latency`-cycle pipelined
// operation, and the instance alternates between CTR-mode (instruction
// keystream) and CBC-mode (MAC) operations every other cycle. Functional
// crypto lives elsewhere; this class only assigns start/finish cycles.
#pragma once

#include <cstdint>
#include <deque>

#include "sim/config.hpp"

namespace sofia::sim {

class CipherEngine {
 public:
  enum class Op : std::uint8_t { kCtr = 0, kCbc = 1 };

  explicit CipherEngine(const CipherTiming& timing) : timing_(timing) {}

  /// Schedule an operation whose inputs are ready at `earliest`; returns the
  /// cycle its output is available.
  std::uint64_t schedule(Op op, std::uint64_t earliest) {
    std::uint64_t start = earliest;
    if (!timing_.pipelined) {
      // Iterative engine: busy for the whole operation. Alternation is
      // implicit (one shared resource).
      if (start < next_any_slot_) start = next_any_slot_;
      next_any_slot_ = start + timing_.latency;
      // Remember start cycles so flush() can tell an in-flight op (which
      // must drain) from queued ones (which a redirect drops).
      iter_starts_.push_back(start);
      prune_iter_history();
      return start + timing_.latency;
    }
    if (timing_.alternate) {
      // CTR ops start on even cycles, CBC on odd; each class therefore has
      // an initiation interval of 2.
      const std::uint64_t parity = (op == Op::kCtr) ? 0 : 1;
      if (start % 2 != parity) ++start;
      auto& next = next_class_slot_[static_cast<int>(op)];
      if (start < next) start = next;
      next = start + 2;
    } else {
      // Demand-driven fully pipelined engine: one op per cycle, any class.
      if (start < next_any_slot_) start = next_any_slot_;
      next_any_slot_ = start + 1;
    }
    return start + timing_.latency;
  }

  /// A pipelined engine's next free start slot for `op`'s class: one slot
  /// per class when alternating, one for both otherwise. An iterative
  /// engine's state is more than its slots; these are for pipelined ones.
  std::uint64_t next_slot(Op op) const {
    return timing_.alternate ? next_class_slot_[static_cast<int>(op)]
                             : next_any_slot_;
  }
  void set_next_slot(Op op, std::uint64_t slot) {
    (timing_.alternate ? next_class_slot_[static_cast<int>(op)]
                       : next_any_slot_) = slot;
  }

  /// Drop queued work (fetch redirect). Pipelined slots free immediately —
  /// squashed ops simply drain out of the stage registers — but an
  /// iterative instance that already started an op is occupied until that
  /// op completes: the flush must not rewind next_any_slot_ below its
  /// finish cycle, or a post-redirect op would start on busy hardware.
  void flush(std::uint64_t cycle) {
    next_class_slot_[0] = next_class_slot_[1] = cycle;
    if (timing_.pipelined) {
      next_any_slot_ = cycle;
      return;
    }
    if (cycle > last_flush_cycle_) last_flush_cycle_ = cycle;
    std::uint64_t busy_until = cycle;
    std::uint64_t in_flight_start = 0;
    bool in_flight = false;
    for (const std::uint64_t start : iter_starts_) {
      if (start <= cycle && cycle < start + timing_.latency) {
        busy_until = start + timing_.latency;
        in_flight_start = start;
        in_flight = true;
      }
    }
    next_any_slot_ = busy_until;
    iter_starts_.clear();
    // Keep the draining op visible to a second flush before its finish.
    if (in_flight) iter_starts_.push_back(in_flight_start);
  }

 private:
  void prune_iter_history() {
    // Redirect cycles are monotone within a run, so an op that finished at
    // or before the last flush can never be in flight at a future one.
    while (!iter_starts_.empty() &&
           iter_starts_.front() + timing_.latency <= last_flush_cycle_)
      iter_starts_.pop_front();
    // Memory backstop for long redirect-free stretches. Evicting the
    // oldest entries can only make a much later flush slightly optimistic
    // (the evicted op would almost certainly have drained by then).
    while (iter_starts_.size() > kIterHistory) iter_starts_.pop_front();
  }

  static constexpr std::size_t kIterHistory = 256;

  CipherTiming timing_;
  std::uint64_t next_class_slot_[2] = {0, 0};
  std::uint64_t next_any_slot_ = 0;
  std::uint64_t last_flush_cycle_ = 0;
  std::deque<std::uint64_t> iter_starts_;  ///< iterative-mode op start cycles
};

}  // namespace sofia::sim
