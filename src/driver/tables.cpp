#include "driver/tables.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "driver/sweep.hpp"
#include "hw/hw_model.hpp"
#include "pipeline/pipeline.hpp"
#include "support/error.hpp"

namespace sofia::driver {

namespace {

/// A successful job record read back into its measurement (m.name: workload).
struct Job {
  std::string config;
  int unroll = 2;
  pipeline::Measurement m;
};

using Jobs = std::vector<Job>;

/// Blank line, title, rule, column header, rule.
void heading(std::FILE* out, const char* title, int width,
             const char* columns) {
  std::fprintf(out, "\n%s\n", title);
  print_rule(width, out);
  std::fputs(columns, out);
  print_rule(width, out);
}

unsigned long long ull(std::uint64_t v) { return v; }

double pad_pct(const pipeline::Measurement& m) {
  return 100.0 * static_cast<double>(m.sofia_stats.nops) /
         static_cast<double>(m.sofia_stats.insts);
}

double miss_pct(const sim::SimStats& s) {
  const double total = static_cast<double>(s.icache_hits + s.icache_misses);
  return total == 0 ? 0.0
                    : 100.0 * static_cast<double>(s.icache_misses) / total;
}

Job read_job(const json::Value& record, const std::string& where) {
  // A required unsigned member in [min, max], of the "vanilla" or "sofia"
  // sub-object when `core` is set; every failure names the member.
  const auto get = [&](const char* core, std::string_view key,
                       std::uint64_t min = 0, std::uint64_t max = UINT64_MAX) {
    const std::string parent = core ? where + '.' + core : where;
    const std::string name = parent + '.' + std::string(key);
    const json::Value& object = core ? record.at(core, where) : record;
    const std::uint64_t v = object.at(key, parent).as_uint(name);
    if (v < min || v > max) throw Error(name + " is out of range");
    return v;
  };
  Job job;
  job.config = record.at("config", where).as_string(where + ".config");
  // hw::HwModel::sofia() is defined for 1..total_rounds cycles per block op.
  const auto rounds = static_cast<std::uint64_t>(hw::HwModel{}.total_rounds);
  job.unroll = static_cast<int>(get(nullptr, "unroll", 1, rounds));
  auto& m = job.m;
  m.name = record.at("workload", where).as_string(where + ".workload");
  m.vanilla_cycles = get("vanilla", "cycles");
  m.vanilla_text_bytes =
      static_cast<std::uint32_t>(get("vanilla", "text_bytes", 0, UINT32_MAX));
  m.vanilla_stats.icache_hits = get("vanilla", "icache_hits");
  m.vanilla_stats.icache_misses = get("vanilla", "icache_misses");
  m.sofia_cycles = get("sofia", "cycles");
  m.sofia_text_bytes =
      static_cast<std::uint32_t>(get("sofia", "text_bytes", 0, UINT32_MAX));
  m.sofia_stats.insts = get("sofia", "insts");
  m.sofia_stats.nops = get("sofia", "nops");
  m.sofia_stats.ctr_ops = get("sofia", "ctr_ops");
  m.sofia_stats.icache_hits = get("sofia", "icache_hits");
  m.sofia_stats.icache_misses = get("sofia", "icache_misses");
  m.sofia_stats.store_gate_stalls = get("sofia", "store_gate_stalls");
  return job;
}

/// Jobs grouped by workload or by config, groups in first-appearance order,
/// jobs in document order within each.
std::vector<Jobs> group_by(const Jobs& jobs, bool by_workload) {
  const auto key = [&](const Job& j) {
    return by_workload ? j.m.name : j.config;
  };
  std::vector<Jobs> groups;
  for (const auto& job : jobs) {
    const auto it =
        std::find_if(groups.begin(), groups.end(),
                     [&](const Jobs& g) { return key(g.front()) == key(job); });
    if (it == groups.end())
      groups.push_back({job});
    else
      it->push_back(job);
  }
  return groups;
}

/// Sums over a group of jobs. `sum` adds up the integer counts (cycles,
/// CTR ops, store-gate stalls); the doubles add up per-job values in
/// document order, so dividing by n gives the mean.
struct Totals {
  pipeline::Measurement sum;
  double ratio = 0;
  double pad = 0;
  double cyc = 0;
  double time = 0;
  double n = 0;
};

Totals totals(const Jobs& jobs) {
  const hw::HwModel model;
  Totals t;
  for (const auto& [config, unroll, m] : jobs) {
    t.sum.vanilla_cycles += m.vanilla_cycles;
    t.sum.sofia_cycles += m.sofia_cycles;
    t.sum.sofia_stats.ctr_ops += m.sofia_stats.ctr_ops;
    t.sum.sofia_stats.store_gate_stalls += m.sofia_stats.store_gate_stalls;
    t.ratio += m.size_ratio();
    t.pad += pad_pct(m);
    t.cyc += m.cycle_overhead_pct();
    t.time += m.time_overhead_pct(model, unroll);
    t.n += 1;
  }
  return t;
}

// ---- the tables -------------------------------------------------------------

void adpcm_table(const Jobs& jobs, std::FILE* out) {
  const hw::HwModel model;
  heading(out,
          "ADPCM overhead (paper S IV-B): vanilla vs SOFIA per cipher engine",
          104,
          "workload (engine)            text(V)   text(S)  ratio"
          " |   cycles(V)   cycles(S)    cyc% |    time%\n");
  for (const auto& group : group_by(jobs, false)) {
    for (const auto& [config, unroll, m] : group)
      std::fprintf(
          out, "%-26s %9u %9u %6.2f | %11llu %11llu %+6.1f%% | %+7.1f%%\n",
          (m.name + " (" + config + ")").c_str(), m.vanilla_text_bytes,
          m.sofia_text_bytes, m.size_ratio(), ull(m.vanilla_cycles),
          ull(m.sofia_cycles), m.cycle_overhead_pct(),
          m.time_overhead_pct(model, unroll));
    const auto sum = totals(group).sum;
    std::fprintf(out, "%-26s %9s %9s %6s | %11llu %11llu %+6.1f%% | %+7.1f%%\n",
                 ("combined (" + group.front().config + ")").c_str(), "", "",
                 "",
                 ull(sum.vanilla_cycles), ull(sum.sofia_cycles),
                 sum.cycle_overhead_pct(),
                 sum.time_overhead_pct(model, group.front().unroll));
    print_rule(104, out);
  }
  std::fputs("paper: text 6976 -> 16816 B (2.41x); cycles +13.7%; "
             "exec time +110%\n",
             out);
}

void unroll_table(const Jobs& jobs, std::FILE* out) {
  const hw::HwModel model;
  const auto vanilla = model.vanilla();
  const auto time_ms = [&](const Job& job) {
    return hw::execution_time_ms(job.m.sofia_cycles,
                                 model.sofia(job.unroll).clock_mhz);
  };
  heading(out, "Cipher unroll design space (paper S III, per-pair CTR)", 115,
          "workload       design                   slices      MHz"
          " |     cycles |  time (ms) vs paper pt |   area x\n");
  for (const auto& group : group_by(jobs, true)) {
    const auto& v = group.front().m;
    std::fprintf(out,
                 "%-14s %-22s %8.0f %8.1f | %10llu | %10.3f %10s | %8.2f\n",
                 v.name.c_str(), "vanilla", vanilla.slices, vanilla.clock_mhz,
                 ull(v.vanilla_cycles),
                 hw::execution_time_ms(v.vanilla_cycles, vanilla.clock_mhz),
                 "-", 1.0);
    // Every design point is compared with the paper's 2-cycle one (nan
    // when the document lacks it).
    const auto paper = std::find_if(group.begin(), group.end(),
                                    [](const Job& j) { return j.unroll == 2; });
    const double paper_ms = paper == group.end() ? NAN : time_ms(*paper);
    for (const auto& job : group) {
      const auto est = model.sofia(job.unroll);
      std::fprintf(out,
                   "%-14s SOFIA %2d-cycle%-8s %8.0f %8.1f | %10llu | %10.3f "
                   "%+9.1f%% | %8.2f\n",
                   job.m.name.c_str(), job.unroll,
                   job.unroll == 2 ? " (paper)" : "", est.slices, est.clock_mhz,
                   ull(job.m.sofia_cycles), time_ms(job),
                   hw::overhead_pct(paper_ms, time_ms(job)),
                   est.slices / vanilla.slices);
    }
  }
  print_rule(115, out);
}

void blockpolicy_table(const Jobs& jobs, std::FILE* out) {
  heading(out, "Block-policy ablation (Figs. 5/6, per-pair CTR)", 96,
          "policy                             text x     pad%"
          " |  cycles(S)     cyc% | gate stalls\n");
  for (const auto& group : group_by(jobs, false)) {
    const Totals t = totals(group);
    std::fprintf(out, "%-32s %8.2f %7.1f%% | %10llu %+7.1f%% | %10llu\n",
                 group.front().config.c_str(), t.ratio / t.n, t.pad / t.n,
                 ull(t.sum.sofia_cycles), t.cyc / t.n,
                 ull(t.sum.sofia_stats.store_gate_stalls));
  }
  print_rule(96, out);
}

void suite_table(const Jobs& jobs, std::FILE* out) {
  const hw::HwModel model;
  heading(out, "Suite overhead: every workload on the paper device", 104,
          "workload        text(V)  text(S)  ratio"
          " |  cycles(V)  cycles(S)     cyc% |    time% |   pad%\n");
  for (const auto& [config, unroll, m] : jobs)
    std::fprintf(
        out,
        "%-14s %8u %8u %6.2f | %10llu %10llu %+7.1f%% | %+7.1f%% | %5.1f%%\n",
        m.name.c_str(), m.vanilla_text_bytes, m.sofia_text_bytes,
        m.size_ratio(), ull(m.vanilla_cycles), ull(m.sofia_cycles),
        m.cycle_overhead_pct(), m.time_overhead_pct(model, unroll), pad_pct(m));
  print_rule(104, out);
  const Totals t = totals(jobs);
  std::fprintf(out, "%-14s %8s %8s %6.2f | %10s %10s %+7.1f%% | %+7.1f%% |\n",
               "mean", "", "", t.ratio / t.n, "", "", t.cyc / t.n,
               t.time / t.n);
}

void granularity_table(const Jobs& jobs, std::FILE* out) {
  heading(out, "CTR granularity / engine policy ablation", 92,
          "configuration                     "
          " |       cycles     cyc ovh% |    CTR ops\n");
  for (const auto& group : group_by(jobs, false)) {
    const auto sum = totals(group).sum;
    std::fprintf(out, "%-34s | %12llu %+11.1f%% | %10llu\n",
                 group.front().config.c_str(), ull(sum.sofia_cycles),
                 sum.cycle_overhead_pct(), ull(sum.sofia_stats.ctr_ops));
  }
  print_rule(92, out);
}

void icache_table(const Jobs& jobs, std::FILE* out) {
  heading(out,
          "I-cache size sweep: miss rates of the vanilla and SOFIA binaries",
          96,
          "workload       I-cache       "
          " |  cycles(V) miss%(V) |  cycles(S) miss%(S) | cyc ovh%\n");
  for (const auto& [config, unroll, m] : jobs)
    std::fprintf(out,
                 "%-14s %-14s | %10llu %7.2f%% | %10llu %7.2f%% | %+7.1f%%\n",
                 m.name.c_str(), config.c_str(), ull(m.vanilla_cycles),
                 miss_pct(m.vanilla_stats), ull(m.sofia_cycles),
                 miss_pct(m.sofia_stats), m.cycle_overhead_pct());
  print_rule(96, out);
}

using Render = void (*)(const Jobs&, std::FILE*);
constexpr std::pair<std::string_view, Render> kTables[] = {
    {"adpcm", adpcm_table},
    {"unroll", unroll_table},
    {"blockpolicy", blockpolicy_table},
    {"suite-overhead", suite_table},
    {"granularity", granularity_table},
    {"icache", icache_table},
};

}  // namespace

void print_table(const json::Value& document, std::FILE* out) {
  constexpr std::string_view kDoc = "table: document";
  if (document.at("schema", kDoc).as_string("schema") != kSweepSchema)
    throw Error("table: document is not a " + std::string(kSweepSchema) +
                " document");
  std::string_view sweep = document.at("sweep", kDoc).as_string("sweep");
  if (sweep.ends_with("-smoke")) sweep.remove_suffix(6);
  const auto* table =
      std::find_if(std::begin(kTables), std::end(kTables),
                   [&](const auto& t) { return t.first == sweep; });
  if (table == std::end(kTables)) return;

  // Every record is read and checked before anything is printed.
  const auto& records = document.at("jobs", kDoc).as_array("jobs");
  Jobs jobs;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::string where = "table: job " + std::to_string(i);
    if (records[i].at("ok", where).as_bool(where + ".ok"))
      jobs.push_back(read_job(records[i], where));
  }
  if (jobs.size() < records.size())
    std::fprintf(out, "\n%s table not rendered: %zu of %zu job(s) failed\n",
                 std::string(sweep).c_str(), records.size() - jobs.size(),
                 records.size());
  else
    table->second(jobs, out);
}

int verdict(const json::Value& document, std::FILE* out) {
  print_table(document, out);
  constexpr std::string_view kContext = "sweep document";
  for (const auto& job : document.at("jobs", kContext).as_array(kContext))
    if (!job.at("ok", kContext).as_bool(kContext)) return 1;
  return 0;
}

void print_rule(int width, std::FILE* out) {
  for (int i = 0; i < width; ++i) std::fputc('-', out);
  std::fputc('\n', out);
}

}  // namespace sofia::driver
