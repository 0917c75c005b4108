// The adversarial campaign engine: mutation vocabulary, seeded generation,
// trial classification, greedy counterexample minimization, and the
// determinism contract (thread count and shard/merge splits must not change
// a byte of the sofia-attack-campaign-v1 document).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>

#include "campaign/campaign.hpp"
#include "pipeline/pipeline.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/json.hpp"

namespace {

using namespace sofia;
using campaign::Mutation;
using campaign::MutationKind;
using campaign::MutationRecord;
using campaign::TrialClass;

// ---- mutation vocabulary ---------------------------------------------------

TEST(Mutation, CatalogMatchesEnum) {
  const auto& catalog = campaign::mutator_catalog();
  ASSERT_EQ(catalog.size(), campaign::kMutationKindCount);
  std::set<std::string_view> names;
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    EXPECT_EQ(static_cast<std::size_t>(catalog[i].kind), i);
    EXPECT_FALSE(catalog[i].name.empty());
    EXPECT_FALSE(catalog[i].description.empty());
    names.insert(catalog[i].name);
    EXPECT_EQ(campaign::to_string(catalog[i].kind), catalog[i].name);
    EXPECT_EQ(campaign::parse_mutation_kind(catalog[i].name), catalog[i].kind);
  }
  EXPECT_EQ(names.size(), catalog.size()) << "names must be unique";
  EXPECT_THROW(campaign::parse_mutation_kind("warp-core-breach"), Error);
}

TEST(Mutation, ResetCauseCountPinsSimEnum) {
  // CellResult::causes is indexed by sim::ResetCause; if the simulator
  // grows a cause this must grow with it.
  EXPECT_EQ(static_cast<std::size_t>(sim::ResetCause::kTargetSetViolation) + 1,
            campaign::kResetCauseCount);
  for (std::size_t i = 0; i < campaign::kResetCauseCount; ++i)
    EXPECT_FALSE(sim::to_string(static_cast<sim::ResetCause>(i)).empty());
}

/// A geometry of `text_words` words in 8-word blocks at text base 0.
campaign::ImageGeometry geometry(std::uint32_t text_words) {
  campaign::ImageGeometry g;
  g.text_words = text_words;
  g.words_per_block = 8;
  return g;
}

TEST(Mutation, GenerationIsSeededAndBounded) {
  const campaign::ImageGeometry g = geometry(96);
  const Rng parent(7);
  for (std::uint64_t job = 0; job < 200; ++job) {
    Rng a = parent.fork(job);
    Rng b = parent.fork(job);
    const auto ra = campaign::generate_record(a, g);
    const auto rb = campaign::generate_record(b, g);
    EXPECT_EQ(ra, rb) << "per-job substreams must replay";
    ASSERT_FALSE(ra.empty());
    ASSERT_LE(ra.size(), 3u);
    int faults = 0;
    for (const auto& m : ra) {
      switch (m.kind) {
        case MutationKind::kBitFlip:
          EXPECT_LT(m.a, g.text_words);
          EXPECT_LT(m.b, 32u);
          break;
        case MutationKind::kWordPatch:
        case MutationKind::kWordRelocate:
          EXPECT_LT(m.a, g.text_words);
          break;
        case MutationKind::kBlockSplice:
        case MutationKind::kCrossVersionSplice:
          EXPECT_LT(m.a, g.blocks());
          break;
        case MutationKind::kHeaderForge:
          EXPECT_LT(m.a, g.blocks());
          EXPECT_LT(m.b, 2u);
          EXPECT_NE(m.c, 0u);
          break;
        case MutationKind::kFetchFault:
          ++faults;
          EXPECT_LT(m.a, 4ull * g.text_words);
          break;
        case MutationKind::kRetargetIndirect:
          ADD_FAILURE() << "retargets need dispatch slots; this geometry "
                           "has none";
          break;
      }
    }
    EXPECT_LE(faults, 1) << "SimConfig carries a single fault slot";
  }
}

TEST(Mutation, RetargetGenerationStaysOutsideTheProvedSets) {
  campaign::ImageGeometry g = geometry(32);
  g.text_base = 0x1000;
  g.dispatch_slots = {0, 4, 12};
  g.indirect_targets = {0x1004, 0x1008, 0x1020};  // sorted byte addresses
  Rng rng(11);
  int seen = 0;
  for (int i = 0; i < 400; ++i) {
    const Mutation m = campaign::generate(rng, g);
    if (m.kind != MutationKind::kRetargetIndirect) continue;
    ++seen;
    EXPECT_TRUE(std::find(g.dispatch_slots.begin(), g.dispatch_slots.end(),
                          m.a) != g.dispatch_slots.end());
    EXPECT_GE(m.b, g.text_base);
    EXPECT_LT(m.b, g.text_base + 4ull * g.text_words);
    EXPECT_EQ(m.b % 4, 0u);
    EXPECT_FALSE(std::binary_search(g.indirect_targets.begin(),
                                    g.indirect_targets.end(),
                                    static_cast<std::uint32_t>(m.b)))
        << "an in-set rewire is admitted by the policy, never generated";
  }
  EXPECT_GT(seen, 0) << "the retarget share of the kind mix never fired";
}

TEST(Mutation, JsonRoundTrip) {
  const campaign::ImageGeometry g = geometry(64);
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const Mutation m = campaign::generate(rng, g);
    json::Writer w;
    campaign::to_json(m, w);
    const Mutation back = campaign::mutation_from_json(json::parse(w.str()));
    EXPECT_EQ(m, back) << m.describe();
  }
  EXPECT_THROW(campaign::mutation_from_json(json::parse("{\"kind\":\"x\"}")),
               Error);
}

TEST(Mutation, ApplySemantics) {
  assembler::LoadImage image;
  image.text.assign(16, 0);
  for (std::uint32_t i = 0; i < 16; ++i) image.text[i] = 0x100 + i;
  assembler::LoadImage donor = image;
  for (auto& w : donor.text) w ^= 0xAAAA0000u;
  sim::SimConfig config;
  const campaign::ApplyContext ctx{8, &donor};

  auto img = image;
  campaign::apply({MutationKind::kBitFlip, 3, 5}, img, config, ctx);
  EXPECT_EQ(img.text[3], (0x100u + 3) ^ (1u << 5));

  img = image;
  campaign::apply({MutationKind::kWordPatch, 2, 0xDEAD}, img, config, ctx);
  EXPECT_EQ(img.text[2], 0xDEADu);

  img = image;
  campaign::apply({MutationKind::kWordRelocate, 1, 9}, img, config, ctx);
  EXPECT_EQ(img.text[9], image.text[1]);

  img = image;
  campaign::apply({MutationKind::kBlockSplice, 0, 1}, img, config, ctx);
  for (std::uint32_t j = 0; j < 8; ++j)
    EXPECT_EQ(img.text[8 + j], image.text[j]);

  img = image;
  campaign::apply({MutationKind::kHeaderForge, 1, 1, 0xFF}, img, config, ctx);
  EXPECT_EQ(img.text[9], image.text[9] ^ 0xFFu);

  img = image;
  campaign::apply({MutationKind::kCrossVersionSplice, 1}, img, config, ctx);
  for (std::uint32_t j = 0; j < 8; ++j)
    EXPECT_EQ(img.text[8 + j], donor.text[8 + j]);

  img = image;
  EXPECT_FALSE(config.fault.enabled);
  campaign::apply({MutationKind::kFetchFault, 42, 7}, img, config, ctx);
  EXPECT_TRUE(config.fault.enabled);
  EXPECT_EQ(config.fault.fetch_index, 42u);
  EXPECT_EQ(config.fault.bit, 7u);
  EXPECT_EQ(img.text, image.text) << "fault schedules leave the image alone";

  img = image;
  img.data.assign(12, 0xEE);
  campaign::apply({MutationKind::kRetargetIndirect, 4, 0x00001234}, img,
                  config, ctx);
  EXPECT_EQ(img.data[4], 0x34);
  EXPECT_EQ(img.data[5], 0x12);
  EXPECT_EQ(img.data[6], 0x00);
  EXPECT_EQ(img.data[7], 0x00);
  EXPECT_EQ(img.data[0], 0xEE);
  EXPECT_EQ(img.data[8], 0xEE);
  EXPECT_EQ(img.text, image.text) << "retargets leave the sealed text alone";

  // Out-of-range parameters and a missing donor fail loudly.
  img = image;
  EXPECT_THROW(campaign::apply({MutationKind::kBitFlip, 16, 0}, img, config, ctx),
               Error);
  img.data.assign(12, 0);
  EXPECT_THROW(campaign::apply({MutationKind::kRetargetIndirect, 12, 0}, img,
                               config, ctx),
               Error);
  EXPECT_THROW(campaign::apply({MutationKind::kRetargetIndirect, 2, 0}, img,
                               config, ctx),
               Error);
  // An aligned offset whose end (offset + 4) wraps to 0 in 64 bits.
  EXPECT_THROW(campaign::apply({MutationKind::kRetargetIndirect,
                                ~std::uint64_t{0} - 3, 0},
                               img, config, ctx),
               Error);
  EXPECT_EQ(img.data, std::vector<std::uint8_t>(12, 0));
  EXPECT_THROW(campaign::apply({MutationKind::kBlockSplice, 2, 0}, img, config, ctx),
               Error);
  EXPECT_THROW(campaign::apply({MutationKind::kHeaderForge, 0, 2, 1}, img, config, ctx),
               Error);
  const campaign::ApplyContext no_donor{8, nullptr};
  EXPECT_THROW(
      campaign::apply({MutationKind::kCrossVersionSplice, 0}, img, config, no_donor),
      Error);
}

// ---- classification and minimization ---------------------------------------

TEST(Campaign, Classify) {
  sim::RunResult run;
  run.status = sim::RunResult::Status::kHalted;
  run.output = "42\n";
  EXPECT_EQ(campaign::classify(run, "42\n"), TrialClass::kHarmless);
  EXPECT_EQ(campaign::classify(run, "43\n"), TrialClass::kEscaped);
  run.status = sim::RunResult::Status::kReset;
  EXPECT_EQ(campaign::classify(run, "42\n"), TrialClass::kDetected);
  run.status = sim::RunResult::Status::kFault;
  EXPECT_EQ(campaign::classify(run, "42\n"), TrialClass::kEscaped);
  run.status = sim::RunResult::Status::kMaxCycles;
  EXPECT_EQ(campaign::classify(run, "42\n"), TrialClass::kEscaped);
}

TEST(Campaign, MinimizeDropsIrrelevantMutations) {
  const Mutation vital{MutationKind::kWordPatch, 7, 0xBAD};
  const MutationRecord record = {{MutationKind::kBitFlip, 1, 1},
                                 vital,
                                 {MutationKind::kWordRelocate, 2, 3}};
  int trials = 0;
  const auto result =
      campaign::minimize(record, [&](const MutationRecord& candidate) {
        ++trials;
        for (const auto& m : candidate)
          if (m == vital) return TrialClass::kEscaped;
        return TrialClass::kDetected;
      });
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0], vital);
  EXPECT_GT(trials, 0);
}

TEST(Campaign, MinimizeKeepsInteractingPair) {
  // Both mutations are needed: dropping either stops the escape, so the
  // greedy pass must keep the pair intact.
  const MutationRecord record = {{MutationKind::kBitFlip, 1, 1},
                                 {MutationKind::kBitFlip, 2, 2},
                                 {MutationKind::kBitFlip, 3, 3}};
  const auto result =
      campaign::minimize(record, [&](const MutationRecord& candidate) {
        int hits = 0;
        for (const auto& m : candidate)
          if (m.a == 1 || m.a == 3) ++hits;
        return hits == 2 ? TrialClass::kEscaped : TrialClass::kHarmless;
      });
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0].a, 1u);
  EXPECT_EQ(result[1].a, 3u);
}

TEST(Campaign, MinimizeSingleMutationSkipsTrials) {
  const MutationRecord record = {{MutationKind::kBitFlip, 1, 1}};
  int trials = 0;
  const auto result = campaign::minimize(record, [&](const MutationRecord&) {
    ++trials;
    return TrialClass::kEscaped;
  });
  EXPECT_EQ(result, record);
  EXPECT_EQ(trials, 0);
}

// ---- campaign runs ---------------------------------------------------------

campaign::CampaignSpec smoke_spec(std::uint32_t jobs) {
  auto spec = campaign::smoke(campaign::default_campaign());
  spec.jobs_per_cell = jobs;
  return spec;
}

TEST(Campaign, SmokeMatrixShape) {
  const auto spec = smoke_spec(10);
  // One cell per registered scheme, each on the paper cipher / per-pair.
  ASSERT_EQ(spec.cells.size(), scheme::scheme_registry().size());
  std::set<std::string> schemes;
  for (const auto& cell : spec.cells) {
    schemes.insert(cell.scheme);
    EXPECT_EQ(cell.cipher, crypto::CipherKind::kRectangle80);
    EXPECT_EQ(cell.granularity, crypto::Granularity::kPerPair);
  }
  EXPECT_EQ(schemes.size(), spec.cells.size());
  EXPECT_EQ(spec.total_jobs(), 10u * spec.cells.size());
}

TEST(Campaign, AuthenticatedSchemesDetectEverything) {
  const auto result = campaign::run_campaign(smoke_spec(120), 4);
  ASSERT_EQ(result.cells.size(), result.spec.cells.size());
  bool saw_authenticated = false;
  bool saw_null = false;
  for (const auto& cell : result.cells) {
    EXPECT_EQ(cell.jobs, 120u);
    EXPECT_EQ(cell.detected + cell.harmless + cell.escaped, cell.jobs);
    if (cell.authenticated) {
      saw_authenticated = true;
      EXPECT_EQ(cell.escaped, 0u) << cell.cell.label();
      EXPECT_TRUE(cell.escapes.empty());
      EXPECT_GT(cell.detected, 0u);
      EXPECT_DOUBLE_EQ(cell.detection_rate(), 1.0);
      EXPECT_GE(cell.latency_max, cell.latency_min);
      EXPECT_GE(cell.latency_total, cell.latency_max);
    } else {
      saw_null = true;
    }
  }
  EXPECT_TRUE(saw_authenticated);
  EXPECT_TRUE(saw_null);
  EXPECT_TRUE(result.authenticated_clean());
  EXPECT_EQ(result.jobs_run(), result.spec.total_jobs());
}

TEST(Campaign, NullSchemeLeaksWithTriagedEscapes) {
  auto spec = smoke_spec(120);
  std::erase_if(spec.cells, [](const campaign::CellSpec& c) {
    return c.scheme != "null";
  });
  ASSERT_EQ(spec.cells.size(), 1u);
  const auto result = campaign::run_campaign(spec, 4);
  const auto& cell = result.cells[0];
  EXPECT_FALSE(cell.authenticated);
  ASSERT_GT(cell.escaped, 0u) << "the encrypt-only baseline must leak";
  EXPECT_TRUE(result.authenticated_clean()) << "null escapes never gate";
  ASSERT_EQ(cell.escapes.size(), cell.escaped);
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < cell.escapes.size(); ++i) {
    const auto& e = cell.escapes[i];
    if (i > 0) {
      EXPECT_GT(e.job, prev) << "escapes sorted by job index";
    }
    prev = e.job;
    ASSERT_FALSE(e.applied.empty());
    ASSERT_FALSE(e.minimized.empty());
    EXPECT_LE(e.minimized.size(), e.applied.size());
    // Every minimized mutation is one of the applied ones.
    for (const auto& m : e.minimized)
      EXPECT_NE(std::find(e.applied.begin(), e.applied.end(), m),
                e.applied.end());
    // Image-tampering escapes are attributed by the static layer; pure
    // fault schedules are invisible to it.
    const bool image_tamper =
        std::any_of(e.applied.begin(), e.applied.end(), [](const Mutation& m) {
          return m.kind != MutationKind::kFetchFault;
        });
    if (!image_tamper) {
      EXPECT_TRUE(e.lint.empty());
    }
  }
}

TEST(Campaign, EscapesReplayFromTheDocument) {
  // The replay contract: a counterexample pulled out of the campaign
  // document, full or minimized, escapes again on a Target built for its
  // cell. The full record reproduces the recorded run status.
  auto spec = smoke_spec(120);
  std::erase_if(spec.cells, [](const campaign::CellSpec& c) {
    return c.scheme != "null";
  });
  ASSERT_EQ(spec.cells.size(), 1u);
  const json::Value doc =
      json::parse(campaign::to_json(campaign::run_campaign(spec, 4)));
  const auto& cells = doc.at("cells", "doc").as_array("cells");
  ASSERT_EQ(cells.size(), 1u);
  const auto& escapes = cells[0].at("escapes", "cell").as_array("escapes");
  ASSERT_FALSE(escapes.empty());

  const campaign::Target target(spec, spec.cells[0]);
  const auto replay = [&](const json::Value& list) {
    MutationRecord record;
    for (const auto& m : list.as_array("record"))
      record.push_back(campaign::mutation_from_json(m));
    return target.execute(record);
  };
  const std::string& clean = target.clean_run().output;
  for (const auto& e : escapes) {
    const std::string job = std::to_string(e.at("job", "escape").as_uint("job"));
    const std::string& status = e.at("status", "escape").as_string("status");
    const auto applied = replay(e.at("mutations", "escape"));
    EXPECT_EQ(campaign::classify(applied, clean), TrialClass::kEscaped)
        << "job " << job;
    EXPECT_EQ(to_string(applied.status), status) << "job " << job;
    const auto minimized = replay(e.at("minimized", "escape"));
    EXPECT_EQ(campaign::classify(minimized, clean), TrialClass::kEscaped)
        << "job " << job;
  }
}

TEST(Campaign, DetectionLatencyMatchesAcrossBackends) {
  // The reset criterion is architectural: the cycle-accurate and functional
  // backends must agree on every verdict and on the retired-instruction
  // count at which each tampered run resets. sponge is left out: its cycle
  // runs can reset on a block fetched ahead of a taken exit and never
  // entered, which the functional backend never opens (README, "Execution
  // backends").
  auto spec = smoke_spec(60);
  std::erase_if(spec.cells, [](const campaign::CellSpec& c) {
    return c.scheme != std::string(scheme::kDefaultScheme) &&
           c.scheme != "flta";
  });
  ASSERT_EQ(spec.cells.size(), 2u);
  auto cycle_spec = spec;
  cycle_spec.backend = "cycle";
  const auto functional = campaign::run_campaign(spec, 4);
  const auto cycle = campaign::run_campaign(cycle_spec, 4);
  for (std::size_t i = 0; i < spec.cells.size(); ++i) {
    const auto& f = functional.cells[i];
    const auto& c = cycle.cells[i];
    const std::string cell = spec.cells[i].label();
    EXPECT_EQ(f.detected, c.detected) << cell;
    EXPECT_EQ(f.harmless, c.harmless) << cell;
    EXPECT_EQ(f.escaped, c.escaped) << cell;
    EXPECT_EQ(f.causes, c.causes) << cell;
    EXPECT_EQ(f.latency_min, c.latency_min) << cell;
    EXPECT_EQ(f.latency_max, c.latency_max) << cell;
    EXPECT_EQ(f.latency_total, c.latency_total) << cell;
  }
}

// Two dispatch sites with disjoint target sets — two distinct label
// classes, so a cross-class retarget exercises the label gate (not just
// the MAC check a stray redirect dies in).
constexpr char kRetargetVictim[] = R"(
main:
  li r1, 0
  la r4, table
  lw r5, 0(r4)
  .targets f1, f2
  jr r5
mid:
  la r4, table2
  lw r5, 0(r4)
  .targets g1, g2
  jr r5
done:
  li r10, 0xFFFF0008
  sw r1, 0(r10)
  halt
f1:
  addi r1, r1, 1
  j mid
f2:
  addi r1, r1, 2
  j mid
g1:
  addi r1, r1, 4
  j done
g2:
  addi r1, r1, 8
  j done
.data
table: .word f1, f2
table2: .word g1, g2
)";

TEST(Campaign, RetargetedIndirectTransfersAreDetectedByFlta) {
  auto profile =
      pipeline::DeviceProfile::from_seed(crypto::CipherKind::kRectangle80, 17);
  profile.scheme = pipeline::DeviceProfile::parse_scheme("flta");
  auto session =
      pipeline::Pipeline::from_source(kRetargetVictim, profile, "retarget");
  const auto& clean = session.run();
  ASSERT_TRUE(clean.ok());

  const auto model = verify::model_of(session.hardened());
  std::vector<std::vector<std::uint32_t>> sets;  // declared, in block order
  for (const auto& blk : model.blocks)
    if (!blk.jalr_targets.empty()) sets.push_back(blk.jalr_targets);
  ASSERT_EQ(sets.size(), 2u);

  const auto& image = session.hardened().image;
  const auto slot_of = [&](std::uint32_t target) -> std::uint32_t {
    for (std::uint32_t off = 0; off + 4 <= image.data.size(); off += 4) {
      std::uint32_t v = 0;
      for (std::uint32_t j = 0; j < 4; ++j)
        v |= static_cast<std::uint32_t>(image.data[off + j]) << (8 * j);
      if (v == target) return off;
    }
    ADD_FAILURE() << "no dispatch slot holds the target";
    return 0;
  };
  const auto retarget = [&](std::uint32_t slot, std::uint32_t addr) {
    auto img = image;
    sim::SimConfig config = session.sim_config();
    campaign::apply(Mutation{MutationKind::kRetargetIndirect, slot, addr},
                    img, config, campaign::ApplyContext{});
    return session.run_image(img, config);
  };

  // Cross-class: redirect the first dispatch into the second set. The MAC
  // opens (both entries are canonical) but the label gate must trip.
  const auto cross = retarget(slot_of(sets[0][0]), sets[1][0]);
  ASSERT_EQ(cross.status, sim::RunResult::Status::kReset);
  EXPECT_EQ(cross.reset.cause, sim::ResetCause::kTargetSetViolation);

  // Out-of-set: redirect into a block body word — no canonical entry
  // opens there, so the transfer dies before the label compare.
  const auto stray = retarget(slot_of(sets[1][0]), model.text_base + 4 * 3);
  ASSERT_EQ(stray.status, sim::RunResult::Status::kReset);
  EXPECT_NE(stray.reset.cause, sim::ResetCause::kNone);

  // In-set rewire: swapping within one class passes the gate and bends the
  // output — the target-set policy's admitted residual surface, and why
  // generation never draws in-set addresses.
  const auto bent = retarget(slot_of(sets[0][0]), sets[0][1]);
  EXPECT_TRUE(bent.ok());
  EXPECT_NE(bent.output, clean.output);
}

TEST(Campaign, InvalidSpecsThrow) {
  campaign::CampaignSpec empty;
  EXPECT_THROW(campaign::run_campaign(empty, 1), Error);
  auto bad_jobs = smoke_spec(10);
  bad_jobs.jobs_per_cell = 0;
  EXPECT_THROW(campaign::run_campaign(bad_jobs, 1), Error);
  auto bad_scheme = smoke_spec(1);
  bad_scheme.cells[0].scheme = "unobtainium";
  EXPECT_THROW(campaign::run_campaign(bad_scheme, 1), Error);
  auto bad_backend = smoke_spec(1);
  bad_backend.backend = "quantum";
  EXPECT_THROW(campaign::run_campaign(bad_backend, 1), Error);
}

// ---- document determinism --------------------------------------------------

TEST(CampaignJson, ByteIdenticalAcrossThreadCounts) {
  const auto spec = smoke_spec(60);
  const auto doc1 = campaign::to_json(campaign::run_campaign(spec, 1));
  const auto doc4 = campaign::to_json(campaign::run_campaign(spec, 4));
  EXPECT_EQ(doc1, doc4);
  EXPECT_NE(doc1.find("\"schema\": \"sofia-attack-campaign-v1\""),
            std::string::npos);
}

TEST(CampaignJson, ShardMergeIsByteIdenticalToUnsharded) {
  const auto spec = smoke_spec(45);
  const auto whole = campaign::to_json(campaign::run_campaign(spec, 4));
  const auto s0 = campaign::to_json(
      campaign::run_campaign(spec, 2, {}, driver::ShardSpec{0, 3}));
  const auto s1 = campaign::to_json(
      campaign::run_campaign(spec, 3, {}, driver::ShardSpec{1, 3}));
  const auto s2 = campaign::to_json(
      campaign::run_campaign(spec, 4, {}, driver::ShardSpec{2, 3}));
  // A shard carries its trials, not tallies the merge would have to trust.
  EXPECT_NE(s1.find("\"trials\":["), std::string::npos);
  EXPECT_EQ(s1.find("\"escapes\""), std::string::npos);
  EXPECT_EQ(whole.find("\"trials\""), std::string::npos);
  // Merge accepts the shards in any order.
  EXPECT_EQ(campaign::merge_json({s0, s1, s2}), whole);
  EXPECT_EQ(campaign::merge_json({s2, s0, s1}), whole);
}

TEST(CampaignJson, VerdictReadsAuthenticityFromTheRegistry) {
  // A document's "authenticated" flags do not decide the verdict: a leaking
  // "null" cell relabelled authenticated stays a pass, and an escape in a
  // "sofia-cbcmac" cell relabelled unauthenticated still fails.
  auto spec = smoke_spec(60);
  std::erase_if(spec.cells, [](const campaign::CellSpec& cell) {
    return cell.scheme != "null" && cell.scheme != "sofia-cbcmac";
  });
  const json::Value doc =
      json::parse(campaign::to_json(campaign::run_campaign(spec, 2)));
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  json::Value relabelled = doc;
  json::Value* mac = nullptr;
  const json::Value* leak = nullptr;
  for (auto& cell : relabelled.object) {
    if (cell.first != "cells") continue;
    for (auto& c : cell.second.array) {
      json::Value* scheme = nullptr;
      json::Value* flag = nullptr;
      json::Value* escapes = nullptr;
      for (auto& [k, v] : c.object) {
        if (k == "scheme") scheme = &v;
        if (k == "authenticated") flag = &v;
        if (k == "escapes") escapes = &v;
      }
      ASSERT_TRUE(scheme && flag && escapes);
      flag->boolean = !flag->boolean;
      if (scheme->string == "null") {
        ASSERT_FALSE(escapes->array.empty());
        leak = &escapes->array.front();
      } else {
        mac = &c;
      }
    }
  }
  ASSERT_TRUE(mac && leak);
  EXPECT_EQ(campaign::verdict(doc, sink), 0);
  EXPECT_EQ(campaign::verdict(relabelled, sink), 0);
  for (auto& [k, v] : mac->object) {
    if (k == "escaped") v.number = "1";
    if (k == "escapes") v.array.push_back(*leak);
  }
  EXPECT_EQ(campaign::verdict(relabelled, sink), 1);
  std::fclose(sink);
}

// ---- pinned documents ------------------------------------------------------

TEST(CampaignDigest, DocumentsMatchTheRecordedDigests) {
  // SHA-256 of whole campaign documents, so any change to a trial's
  // outcome, latency or escape record shows here.
  const auto with = [](campaign::CampaignSpec spec, std::uint64_t seed,
                       const char* backend) {
    spec.seed = seed;
    spec.backend = backend;
    return spec;
  };
  auto matrix = campaign::default_campaign();
  matrix.jobs_per_cell = 20;
  const struct {
    const char* label;
    campaign::CampaignSpec spec;
    const char* digest;
  } cases[] = {
      {"smoke seed 1", with(smoke_spec(200), 1, "functional"),
       "f2c6c2365471cdc978e6325cbfb027bf625f66d89593789a95807f21d9269575"},
      {"smoke seed 7919", with(smoke_spec(200), 7919, "functional"),
       "238ae1490358cf3bcdbfef2100dc01a2199930c333e6b7a98d6974ff825968dd"},
      {"smoke cycle", with(smoke_spec(50), 1, "cycle"),
       "1e2a44c255cd6b4769f4c4ebac1f30fa98ed23c7b8ee9600884b78be8d03c800"},
      {"default matrix", matrix,
       "217da9cff6f5728be4cc7e0a73e623093a258f363e3fd88a5f55ddba5b804820"},
  };
  for (const auto& c : cases) {
    const auto got = support::sha256_hex(
        campaign::to_json(campaign::run_campaign(c.spec, 2)));
    EXPECT_EQ(got, c.digest) << c.label;
  }
}

}  // namespace
