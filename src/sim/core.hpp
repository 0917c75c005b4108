// The SR32 architectural core: the register file, memory, and the concrete
// semantics of every instruction (ALU, branches, loads, stores, MMIO),
// including the fault, exit and console-output outcomes. This is the one
// definition of what an instruction does; both execution backends wrap it.
// The cycle machine adds operand-ready and latency bookkeeping and fetch
// redirects; the functional machine adds its block loop. The core itself
// has no notion of time.
//
// Header-inline so each backend's per-instruction dispatch compiles into a
// single switch.
#pragma once

#include <cstdint>
#include <string>

#include "assembler/image.hpp"
#include "isa/isa.hpp"
#include "sim/config.hpp"
#include "sim/memory.hpp"
#include "support/bits.hpp"

namespace sofia::sim {

/// What one executed instruction did beyond its register and memory writes:
/// everything a backend needs to decide what happens next, and when.
struct Effect {
  enum class Kind : std::uint8_t {
    kNext,   ///< continue at pc + 4
    kTaken,  ///< control transfers to `target`
    kHalt,   ///< HALT retired
    kExit,   ///< stored to kMmioExit; RunResult::exit_code holds the value
    kFault,  ///< simulator-level fault; RunResult::fault holds the message
  };
  Kind kind = Kind::kNext;
  std::uint32_t target = 0;  ///< kTaken: byte address of the successor
  bool stored = false;       ///< a memory (non-MMIO) store committed...
  std::uint32_t store_addr = 0;  ///< ...at this byte address
};

class Core {
 public:
  /// Load `image` into memory and point sp at its stack top. Architectural
  /// outcomes (the instruction-level counters of `out.stats`, console
  /// output, exit code, fault message) accumulate in `out`.
  Core(const assembler::LoadImage& image, const FaultInjection& fault,
       RunResult& out)
      : fault_(fault), out_(out) {
    mem_.load_image(image);
    regs_[isa::kRegSp] = image.stack_top;
  }

  /// Read a raw instruction word on the fetch path, through the
  /// SimConfig::fault transient-fault model: one bit of the N-th word
  /// fetched in the run is flipped.
  std::uint32_t fetch(std::uint32_t addr) {
    const std::uint32_t word = mem_.load32(addr);
    const std::uint64_t index = fetched_++;
    if (fault_.enabled && index == fault_.fetch_index)
      return word ^ (1u << (fault_.bit & 31));
    return word;
  }

  /// An armed fault has yet to fire: the run has not fetched past its
  /// injection index.
  bool fault_pending() const {
    return fault_.enabled && fetched_ <= fault_.fetch_index;
  }

  /// Execute `in`, located at byte address `pc`.
  Effect execute(const isa::Instruction& in, std::uint32_t pc) {
    using isa::Opcode;
    auto& st = out_.stats;
    ++st.insts;
    const std::uint32_t a = regs_[in.ra];
    const std::uint32_t b = regs_[in.rb];
    const auto sa = static_cast<std::int32_t>(a);
    const auto sb = static_cast<std::int32_t>(b);
    const auto imm = in.imm;
    const auto uimm = static_cast<std::uint32_t>(imm);

    switch (in.op) {
      case Opcode::kNop: ++st.nops; break;
      case Opcode::kHalt: return {Effect::Kind::kHalt};
      case Opcode::kAdd: write(in.rd, a + b); break;
      case Opcode::kSub: write(in.rd, a - b); break;
      case Opcode::kAnd: write(in.rd, a & b); break;
      case Opcode::kOr: write(in.rd, a | b); break;
      case Opcode::kXor: write(in.rd, a ^ b); break;
      case Opcode::kSll: write(in.rd, a << (b & 31)); break;
      case Opcode::kSrl: write(in.rd, a >> (b & 31)); break;
      case Opcode::kSra:
        write(in.rd, static_cast<std::uint32_t>(sa >> (b & 31)));
        break;
      case Opcode::kSlt: write(in.rd, sa < sb ? 1 : 0); break;
      case Opcode::kSltu: write(in.rd, a < b ? 1 : 0); break;
      case Opcode::kMul: write(in.rd, a * b); break;
      case Opcode::kAddi: write(in.rd, a + uimm); break;
      case Opcode::kAndi: write(in.rd, a & uimm); break;
      case Opcode::kOri: write(in.rd, a | uimm); break;
      case Opcode::kXori: write(in.rd, a ^ uimm); break;
      case Opcode::kSlli: write(in.rd, a << (uimm & 31)); break;
      case Opcode::kSrli: write(in.rd, a >> (uimm & 31)); break;
      case Opcode::kSrai:
        write(in.rd, static_cast<std::uint32_t>(sa >> (uimm & 31)));
        break;
      case Opcode::kSlti: write(in.rd, sa < imm ? 1 : 0); break;
      case Opcode::kSltiu: write(in.rd, a < uimm ? 1 : 0); break;
      case Opcode::kLui: write(in.rd, uimm << 14); break;
      case Opcode::kLw:
      case Opcode::kLh:
      case Opcode::kLhu:
      case Opcode::kLb:
      case Opcode::kLbu:
        return load(in, a + uimm);
      case Opcode::kSw:
      case Opcode::kSh:
      case Opcode::kSb:
        return store(in, a + uimm, regs_[in.rd]);
      case Opcode::kBeq:
      case Opcode::kBne:
      case Opcode::kBlt:
      case Opcode::kBge:
      case Opcode::kBltu:
      case Opcode::kBgeu:
        ++st.branches;
        if (!branch_taken(in.op, a, b)) break;
        ++st.taken;
        return {Effect::Kind::kTaken, pc + static_cast<std::uint32_t>(imm * 4)};
      case Opcode::kJal:
        ++st.branches;
        ++st.taken;
        write(in.rd, pc + 4);
        return {Effect::Kind::kTaken, pc + static_cast<std::uint32_t>(imm * 4)};
      case Opcode::kJalr: {
        ++st.branches;
        ++st.taken;
        const std::uint32_t target = (a + uimm) & ~3u;
        write(in.rd, pc + 4);
        return {Effect::Kind::kTaken, target};
      }
    }
    return {};
  }

 private:
  void write(unsigned r, std::uint32_t value) {
    if (r != isa::kRegZero) regs_[r] = value;
  }

  Effect fault(const char* message) {
    out_.fault = message;
    return {Effect::Kind::kFault};
  }

  static bool branch_taken(isa::Opcode op, std::uint32_t a, std::uint32_t b) {
    using isa::Opcode;
    const auto sa = static_cast<std::int32_t>(a);
    const auto sb = static_cast<std::int32_t>(b);
    switch (op) {
      case Opcode::kBeq: return a == b;
      case Opcode::kBne: return a != b;
      case Opcode::kBlt: return sa < sb;
      case Opcode::kBge: return sa >= sb;
      case Opcode::kBltu: return a < b;
      case Opcode::kBgeu: return a >= b;
      default: return false;
    }
  }

  Effect load(const isa::Instruction& in, std::uint32_t addr) {
    using isa::Opcode;
    if (addr >= kMmioConsole) return fault("load from MMIO region");
    std::uint32_t value = 0;
    switch (in.op) {
      case Opcode::kLw:
        if (addr % 4 != 0) return fault("misaligned lw");
        value = mem_.load32(addr);
        break;
      case Opcode::kLh:
        if (addr % 2 != 0) return fault("misaligned lh");
        value = static_cast<std::uint32_t>(sign_extend(mem_.load16(addr), 16));
        break;
      case Opcode::kLhu:
        if (addr % 2 != 0) return fault("misaligned lhu");
        value = mem_.load16(addr);
        break;
      case Opcode::kLb:
        value = static_cast<std::uint32_t>(sign_extend(mem_.load8(addr), 8));
        break;
      default:  // kLbu
        value = mem_.load8(addr);
        break;
    }
    write(in.rd, value);
    ++out_.stats.loads;
    return {};
  }

  Effect store(const isa::Instruction& in, std::uint32_t addr,
               std::uint32_t value) {
    using isa::Opcode;
    Effect effect;
    if (addr >= kMmioConsole) {
      switch (addr) {
        case kMmioConsole:
          out_.output.push_back(static_cast<char>(value & 0xFF));
          break;
        case kMmioExit:
          out_.exit_code = static_cast<int>(value);
          return {Effect::Kind::kExit};
        case kMmioPutInt:
          out_.output += std::to_string(static_cast<std::int32_t>(value));
          out_.output.push_back('\n');
          break;
        default:
          return fault("store to unmapped MMIO address");
      }
    } else {
      switch (in.op) {
        case Opcode::kSw:
          if (addr % 4 != 0) return fault("misaligned sw");
          mem_.store32(addr, value);
          break;
        case Opcode::kSh:
          if (addr % 2 != 0) return fault("misaligned sh");
          mem_.store16(addr, static_cast<std::uint16_t>(value));
          break;
        default:  // kSb
          mem_.store8(addr, static_cast<std::uint8_t>(value));
          break;
      }
      effect.stored = true;
      effect.store_addr = addr;
    }
    ++out_.stats.stores;
    return effect;
  }

  Memory mem_;
  std::uint32_t regs_[isa::kNumRegs] = {};
  FaultInjection fault_;
  std::uint64_t fetched_ = 0;  ///< raw words fetched so far (fault index)
  RunResult& out_;
};

}  // namespace sofia::sim
